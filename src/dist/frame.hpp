// Wire framing of the TCP backend: every message travels as one
// length-prefixed frame so a byte stream can be cut back into tagged
// messages without any in-band parsing of the payload.
//
//   u32  magic     0x4d444731 ("MDG1"), little-endian like all fields
//   u32  body_len  bytes that follow this header
//   i32  src       sending node id
//   i32  dst       destination node id
//   u32  tag_len   length of the tag string
//   u32  ctx_node  trace context: originating node id
//   u32  ctx_seq   trace context: per-(src,dst)-link sequence number
//   u64  ctx_span  trace context: flow/span id (0 = frame not traced)
//   ...  tag       tag bytes (no terminator)
//   ...  payload   body_len - 28 - tag_len bytes, the ByteBuffer verbatim
//
// The trace-context triple is stamped by the sending transport when a
// tracer is attached, relayed verbatim through the server on W->W swap
// frames, and copied onto the receiver's recv:<tag> span, so a merged
// cluster trace can draw a flow arrow from every send to its matching
// recv. ctx_span == 0 (the default) means "untraced"; control frames
// and telemetry-off runs leave the triple zero. The context lives in
// the frame HEAD, not the payload, so traffic accounting (payload
// bytes only) is unchanged by tracing.
//
// All integers are explicitly little-endian (common/serialize), so a
// frame produced on any host parses identically on any other. Tags
// beginning with '!' are transport-internal control frames and are
// never charged to the traffic accountants. The vocabulary:
//
//   !hello   W->S  rendezvous: u32 worker id, u64 n_workers
//   !epoch   S->W  membership epoch: u64 epoch, u32 n_workers, then one
//                  byte per worker (1 = alive). Sent as the hello ack
//                  and re-broadcast on every membership change, so a
//                  (re)joining worker learns of deaths that predate it.
//   !death   S->W  peer-death notice: u32 dead worker id, u64 epoch
//   !rejoin  S->W  rejoin grant: u64 epoch. Precedes the !epoch ack on
//                  a re-accepted connection.
//   !state   S->W  rejoin state transfer: an opaque core-level payload
//                  (core::RejoinState — generator θ, admission round,
//                  holder map, swap RNG state). Sent to a granted
//                  rejoiner when the engine re-admits it at the
//                  admission round's boundary; always precedes that
//                  round's data frames on the connection.
//   !admit   S->W  re-admission notice, broadcast to every live worker:
//                  u32 readmitted worker id, i64 admission round,
//                  u64 epoch. Written on the server's ENGINE thread
//                  before the prior round's data frames, so
//                  per-connection FIFO guarantees every survivor holds
//                  it by the admission round's own boundary — all roles
//                  admit (and seed the rebirth) on the same round.
//   !ping    S->W  heartbeat probe: u64 sequence, f64 send timestamp
//                  (server clock, seconds), then optionally i64 server
//                  tracer nanoseconds (-1 when the server runs without
//                  a tracer). The worker echoes the payload verbatim,
//                  appending its own i64 tracer nanoseconds when it has
//                  one — the server pairs the two stamps with the RTT
//                  midpoint to estimate the per-worker trace-clock
//                  offset (NTP style, minimum-RTT sample wins).
//   !pong    W->S  heartbeat echo: the !ping payload verbatim (plus the
//                  optional worker clock stamp); the server recovers
//                  the RTT from the echoed timestamp.
//   !stats   any->S one-shot introspection: a client dials the server,
//                  sends !hello-position frame tagged !stats (empty
//                  payload), and receives a single !stats reply whose
//                  payload is a JSON snapshot (registry counters,
//                  liveness table, round/phase, membership epoch); the
//                  server then closes the connection. Never charged.
//
// The codec is pure (bytes in, bytes out) so the framing cost is
// measurable in bench_micro_ops without sockets, and fuzzable in tests.
// FrameReader is the one socket-facing parser: it cuts a byte stream
// into frames incrementally, so a nonblocking event loop can feed it
// whatever bytes have arrived; read_frame runs it to completion on a
// blocking fd and is what the adversarial socketpair fuzz drives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hpp"

namespace mdgan::dist {

inline constexpr std::uint32_t kFrameMagic = 0x4d444731u;  // "MDG1"
inline constexpr std::size_t kFrameHeaderBytes = 8;  // magic + body_len
// src + dst + tag_len + trace context (node, seq, span), the fixed part
// of the body. tag_len stays at offset 8 so incremental decoders and
// the frame fuzzer's corruption offsets are stable across revisions.
inline constexpr std::size_t kFrameBodyFixedBytes = 28;
// Reject absurd frames before allocating (a corrupt stream must not
// drive a 4 GiB allocation). Generous: the largest real message is a
// full CNN discriminator swap, a few tens of MB.
inline constexpr std::uint32_t kMaxFrameBodyBytes = 1u << 30;
// Tags are short protocol names ("feedback", "!epoch"); a header
// announcing a longer one is corrupt and rejected before the tag is
// allocated — otherwise a garbage header could still drive a
// body_len-sized (up to 1 GiB) tag allocation.
inline constexpr std::uint32_t kMaxFrameTagBytes = 256;
// The largest body a connection may announce before its hello: a
// `!hello` (worker id u32 + cluster size u64) or an empty `!stats`
// probe, under a tag of up to kMaxFrameTagBytes. A bigger frame from a
// stranger is refused before anything is allocated for it.
inline constexpr std::uint32_t kMaxPreHelloBodyBytes =
    static_cast<std::uint32_t>(kFrameBodyFixedBytes) + kMaxFrameTagBytes +
    12;

// Prefix of every transport-internal control tag.
inline constexpr char kControlTagPrefix = '!';
inline bool is_control_tag(const std::string& tag) {
  return !tag.empty() && tag[0] == kControlTagPrefix;
}

// The control-frame vocabulary (see the header comment for payloads).
inline constexpr char kTagHello[] = "!hello";
inline constexpr char kTagEpoch[] = "!epoch";
inline constexpr char kTagDeath[] = "!death";
inline constexpr char kTagRejoin[] = "!rejoin";
inline constexpr char kTagState[] = "!state";
inline constexpr char kTagAdmit[] = "!admit";
inline constexpr char kTagPing[] = "!ping";
inline constexpr char kTagPong[] = "!pong";
inline constexpr char kTagStats[] = "!stats";

// Compact causal-trace context carried in every frame head. `span` is
// the flow id the sender's send:<tag> trace event carries (0 = frame
// not traced), `node` the originating node, `seq` the per-link
// sequence the sender assigned.
struct TraceCtx {
  std::uint32_t node = 0;
  std::uint32_t seq = 0;
  std::uint64_t span = 0;

  bool traced() const { return span != 0; }
};

struct Frame {
  int src = 0;
  int dst = 0;
  TraceCtx ctx;
  std::string tag;
  ByteBuffer payload;
};

// Little-endian u32/u64 off a raw wire pointer (for incremental
// decoders that read the fixed body fields straight off a socket
// buffer).
std::uint32_t read_le32(const std::uint8_t* p);
std::uint64_t read_le64(const std::uint8_t* p);

// Serializes header + body into one contiguous buffer, ready for a
// single write(2). Copies the payload; TcpNetwork's gathered send
// uses encode_frame_head + an iovec over the payload instead.
std::vector<std::uint8_t> encode_frame(int src, int dst,
                                       const std::string& tag,
                                       const ByteBuffer& payload,
                                       const TraceCtx& ctx = {});

// Everything of the frame *before* the payload bytes — header, fixed
// body fields and tag — announcing a payload of `payload_size` bytes.
// Pairing this head with the payload buffer itself in a gathered write
// (writev/sendmsg) produces the identical byte stream encode_frame
// would, without ever copying the payload into a wire buffer.
std::vector<std::uint8_t> encode_frame_head(int src, int dst,
                                            const std::string& tag,
                                            std::size_t payload_size,
                                            const TraceCtx& ctx = {});

// Parses the 8-byte header. Returns the body length; throws
// std::runtime_error on a bad magic or an oversized body.
std::uint32_t decode_frame_header(const std::uint8_t header[kFrameHeaderBytes]);

// Parses a frame body of `len` bytes (as announced by the header).
// Throws std::runtime_error on a malformed body.
Frame decode_frame_body(const std::uint8_t* body, std::size_t len);

// Incremental frame reassembly off one stream socket. Each read() pulls
// bytes in stages — header, fixed body fields, tag, then the payload
// straight into the buffer the Frame's ByteBuffer adopts (the
// payload bytes, the bulk of a swap frame, are copied off the socket
// exactly once) — and keeps its place across calls, so a frame may
// arrive split at any byte. A malformed header (bad magic, a body_len
// over `max_body`, tag overrun) is rejected BEFORE any payload
// allocation, so a corrupt or adversarial stream can neither crash the
// reader nor drive a giant allocation.
class FrameReader {
 public:
  enum class Status {
    kFrame,   // one whole frame was moved into `out`
    kAgain,   // no more bytes for now (EAGAIN, or an SO_RCVTIMEO expiry)
    kClosed,  // EOF, a socket error, or bytes that are not a valid frame
  };
  // `max_body` bounds the body_len a header may announce; it applies
  // when a header is parsed. A connection that has not said hello yet
  // passes kMaxPreHelloBodyBytes.
  Status read(int fd, Frame& out,
              std::uint32_t max_body = kMaxFrameBodyBytes);

 private:
  enum class Stage { kHeader, kFixed, kTag, kPayload };
  Stage stage_ = Stage::kHeader;
  std::size_t got_ = 0;  // bytes of the current stage received so far
  std::uint8_t fixed_[kFrameHeaderBytes + kFrameBodyFixedBytes] = {};
  std::uint32_t body_len_ = 0;
  Frame frame_;
  std::vector<std::uint8_t> payload_;
};

// Reads one full frame off a blocking `fd`. False when the stream ended,
// timed out, or the bytes are not a valid frame.
bool read_frame(int fd, Frame& out);

}  // namespace mdgan::dist
