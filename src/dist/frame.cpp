#include "dist/frame.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <new>
#include <stdexcept>

namespace mdgan::dist {

namespace {

void put_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_le64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_le32(out, static_cast<std::uint32_t>(v));
  put_le32(out, static_cast<std::uint32_t>(v >> 32));
}

}  // namespace

std::uint32_t read_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t read_le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(read_le32(p)) |
         static_cast<std::uint64_t>(read_le32(p + 4)) << 32;
}

std::vector<std::uint8_t> encode_frame_head(int src, int dst,
                                            const std::string& tag,
                                            std::size_t payload_size,
                                            const TraceCtx& ctx) {
  const std::size_t body_len =
      kFrameBodyFixedBytes + tag.size() + payload_size;
  if (body_len > kMaxFrameBodyBytes) {
    throw std::runtime_error("encode_frame: frame too large");
  }
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + kFrameBodyFixedBytes + tag.size());
  put_le32(out, kFrameMagic);
  put_le32(out, static_cast<std::uint32_t>(body_len));
  put_le32(out, static_cast<std::uint32_t>(src));
  put_le32(out, static_cast<std::uint32_t>(dst));
  put_le32(out, static_cast<std::uint32_t>(tag.size()));
  put_le32(out, ctx.node);
  put_le32(out, ctx.seq);
  put_le64(out, ctx.span);
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

std::vector<std::uint8_t> encode_frame(int src, int dst,
                                       const std::string& tag,
                                       const ByteBuffer& payload,
                                       const TraceCtx& ctx) {
  std::vector<std::uint8_t> out =
      encode_frame_head(src, dst, tag, payload.size(), ctx);
  out.insert(out.end(), payload.data(), payload.data() + payload.size());
  return out;
}

std::uint32_t decode_frame_header(
    const std::uint8_t header[kFrameHeaderBytes]) {
  if (read_le32(header) != kFrameMagic) {
    throw std::runtime_error("decode_frame_header: bad magic");
  }
  const std::uint32_t body_len = read_le32(header + 4);
  if (body_len < kFrameBodyFixedBytes || body_len > kMaxFrameBodyBytes) {
    throw std::runtime_error("decode_frame_header: bad body length");
  }
  return body_len;
}

Frame decode_frame_body(const std::uint8_t* body, std::size_t len) {
  if (len < kFrameBodyFixedBytes) {
    throw std::runtime_error("decode_frame_body: truncated body");
  }
  Frame f;
  f.src = static_cast<std::int32_t>(read_le32(body));
  f.dst = static_cast<std::int32_t>(read_le32(body + 4));
  const std::uint32_t tag_len = read_le32(body + 8);
  f.ctx.node = read_le32(body + 12);
  f.ctx.seq = read_le32(body + 16);
  f.ctx.span = read_le64(body + 20);
  if (tag_len > kMaxFrameTagBytes ||
      kFrameBodyFixedBytes + static_cast<std::size_t>(tag_len) > len) {
    throw std::runtime_error("decode_frame_body: tag overruns body");
  }
  f.tag.assign(reinterpret_cast<const char*>(body + kFrameBodyFixedBytes),
               tag_len);
  const std::uint8_t* payload = body + kFrameBodyFixedBytes + tag_len;
  f.payload = ByteBuffer::wrap(payload, len - kFrameBodyFixedBytes - tag_len);
  return f;
}

FrameReader::Status FrameReader::read(int fd, Frame& out,
                                      std::uint32_t max_body) {
  for (;;) {
    std::uint8_t* dst = fixed_;
    std::size_t want = kFrameHeaderBytes;
    if (stage_ == Stage::kFixed) {
      dst = fixed_ + kFrameHeaderBytes;
      want = kFrameBodyFixedBytes;
    } else if (stage_ == Stage::kTag) {
      dst = reinterpret_cast<std::uint8_t*>(&frame_.tag[0]);
      want = frame_.tag.size();
    } else if (stage_ == Stage::kPayload) {
      dst = payload_.data();
      want = payload_.size();
    }
    if (got_ < want) {
      const ssize_t r = ::recv(fd, dst + got_, want - got_, 0);
      if (r > 0) {
        got_ += static_cast<std::size_t>(r);
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return Status::kAgain;
      }
      return Status::kClosed;  // EOF or hard error: the peer is gone
    }
    got_ = 0;
    if (stage_ == Stage::kHeader) {
      try {
        body_len_ = decode_frame_header(fixed_);
      } catch (const std::exception&) {
        return Status::kClosed;
      }
      if (body_len_ > max_body) return Status::kClosed;
      stage_ = Stage::kFixed;
    } else if (stage_ == Stage::kFixed) {
      const std::uint8_t* b = fixed_ + kFrameHeaderBytes;
      frame_.src = static_cast<std::int32_t>(read_le32(b));
      frame_.dst = static_cast<std::int32_t>(read_le32(b + 4));
      const std::uint32_t tag_len = read_le32(b + 8);
      frame_.ctx.node = read_le32(b + 12);
      frame_.ctx.seq = read_le32(b + 16);
      frame_.ctx.span = read_le64(b + 20);
      if (tag_len > kMaxFrameTagBytes ||
          kFrameBodyFixedBytes + static_cast<std::size_t>(tag_len) >
              body_len_) {
        return Status::kClosed;  // tag overruns the body (or is absurd)
      }
      frame_.tag.assign(tag_len, '\0');
      stage_ = Stage::kTag;
    } else if (stage_ == Stage::kTag) {
      try {  // a valid header may still announce more than we can hold
        payload_.resize(body_len_ - kFrameBodyFixedBytes - frame_.tag.size());
      } catch (const std::bad_alloc&) {
        return Status::kClosed;
      }
      stage_ = Stage::kPayload;
    } else {
      frame_.payload = ByteBuffer::adopt(std::move(payload_));
      out = std::move(frame_);
      frame_ = Frame{};
      payload_ = {};
      stage_ = Stage::kHeader;
      return Status::kFrame;
    }
  }
}

bool read_frame(int fd, Frame& out) {
  FrameReader reader;
  return reader.read(fd, out) == FrameReader::Status::kFrame;
}

}  // namespace mdgan::dist
