// Adversarial bytes against the TCP wire framing. read_frame is the
// one function that turns an untrusted byte stream into Frames, so it
// is driven here over real socketpairs with every malformation class a
// hostile or corrupt peer can produce: truncated headers, bad magic,
// tag lengths overrunning the body, oversize body lengths, truncated
// payloads, and plain seeded garbage. The contract under attack is
// always the same — return false, never crash, never hang, never let a
// 4-byte length field drive a giant allocation. The later tests point
// the same adversary at a live endpoint's event loop: a garbage or
// stalled hello must not stall the rendezvous for a legitimate worker,
// frames split at any byte must reassemble, and a corrupt header must
// kill only its own connection.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <netinet/tcp.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/rejoin.hpp"
#include "dist/frame.hpp"
#include "dist/tcp_network.hpp"

namespace mdgan::dist {
namespace {

// A connected AF_UNIX stream pair; fd[0] is the attacker's pen, fd[1]
// the reader under test.
struct Pair {
  int fd[2];
  Pair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~Pair() {
    ::close(fd[0]);
    ::close(fd[1]);
  }
  void write_bytes(const void* p, std::size_t n) {
    ASSERT_EQ(::write(fd[0], p, n), static_cast<ssize_t>(n));
  }
  void write_bytes(const std::vector<std::uint8_t>& v) {
    if (!v.empty()) write_bytes(v.data(), v.size());
  }
  // End of the attack: the reader must now observe EOF, not block.
  void finish() { ::shutdown(fd[0], SHUT_WR); }
};

ByteBuffer payload_of(const std::vector<float>& v) {
  ByteBuffer buf;
  buf.write_floats(v.data(), v.size());
  return buf;
}

// A raw loopback connection to `port`, for speaking the wire by hand.
int dial_raw(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  int one = 1;  // each write goes out as it is, never coalesced
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

std::vector<std::uint8_t> hello_wire(int worker_id, std::size_t n_workers) {
  ByteBuffer hello;
  hello.write_pod<std::uint32_t>(static_cast<std::uint32_t>(worker_id));
  hello.write_pod<std::uint64_t>(n_workers);
  return encode_frame(worker_id, kServerId, kTagHello, hello);
}

bool eventually(const std::function<bool()>& pred, double timeout_s = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

void put_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

TEST(FrameFuzz, RoundtripSurvivesTheCodec) {
  const auto wire = encode_frame(3, 0, "feedback", payload_of(std::vector<float>{1.f, 2.f}));
  ASSERT_GT(wire.size(), kFrameHeaderBytes);
  const std::uint32_t body_len = decode_frame_header(wire.data());
  ASSERT_EQ(body_len, wire.size() - kFrameHeaderBytes);
  const Frame f = decode_frame_body(wire.data() + kFrameHeaderBytes,
                                    body_len);
  EXPECT_EQ(f.src, 3);
  EXPECT_EQ(f.dst, 0);
  EXPECT_EQ(f.tag, "feedback");

  Pair p;
  p.write_bytes(wire);
  p.finish();
  Frame g;
  ASSERT_TRUE(read_frame(p.fd[1], g));
  EXPECT_EQ(g.src, 3);
  EXPECT_EQ(g.tag, "feedback");
  EXPECT_EQ(g.payload.read_floats(), (std::vector<float>{1.f, 2.f}));
  EXPECT_FALSE(read_frame(p.fd[1], g));  // then clean EOF
}

TEST(FrameFuzz, TruncatedHeaderIsEofNotACrash) {
  for (std::size_t cut = 0; cut < kFrameHeaderBytes; ++cut) {
    Pair p;
    const auto wire = encode_frame(1, 0, "t", payload_of(std::vector<float>{1.f}));
    if (cut > 0) p.write_bytes(wire.data(), cut);
    p.finish();
    Frame f;
    EXPECT_FALSE(read_frame(p.fd[1], f)) << "cut at byte " << cut;
  }
}

TEST(FrameFuzz, BadMagicIsRejected) {
  std::uint8_t header[kFrameHeaderBytes];
  put_le32(header, 0xdeadbeefu);
  put_le32(header + 4, 16);
  EXPECT_THROW(decode_frame_header(header), std::runtime_error);

  Pair p;
  p.write_bytes(header, sizeof(header));
  p.finish();
  Frame f;
  EXPECT_FALSE(read_frame(p.fd[1], f));
}

TEST(FrameFuzz, OversizeBodyLenIsRejectedBeforeAllocation) {
  // body_len fields of 1 GiB + 1 and 4 GiB - 1: both must be rejected
  // from the 8 header bytes alone — the payload is never allocated,
  // never read.
  for (std::uint32_t body_len :
       {kMaxFrameBodyBytes + 1, 0xffffffffu}) {
    std::uint8_t header[kFrameHeaderBytes];
    put_le32(header, kFrameMagic);
    put_le32(header + 4, body_len);
    EXPECT_THROW(decode_frame_header(header), std::runtime_error);

    Pair p;
    p.write_bytes(header, sizeof(header));
    p.finish();
    Frame f;
    EXPECT_FALSE(read_frame(p.fd[1], f));
  }
}

TEST(FrameFuzz, TagLengthOverrunsAreRejected) {
  // (a) tag_len larger than the whole body.
  {
    std::uint8_t body[kFrameBodyFixedBytes] = {};
    put_le32(body, 1);                              // src
    put_le32(body + 4, 0);                          // dst
    put_le32(body + 8, 64);                         // tag_len > remaining 0
    EXPECT_THROW(decode_frame_body(body, sizeof(body)),
                 std::runtime_error);
  }
  // (b) tag_len over the cap, inside an otherwise plausible body —
  // must be rejected before a tag that large is ever allocated.
  {
    std::uint8_t wire[kFrameHeaderBytes + kFrameBodyFixedBytes] = {};
    put_le32(wire, kFrameMagic);
    put_le32(wire + 4, kFrameBodyFixedBytes + kMaxFrameTagBytes + 1);
    put_le32(wire + 8, 1);
    put_le32(wire + 12, 0);
    put_le32(wire + 16, kMaxFrameTagBytes + 1);
    Pair p;
    p.write_bytes(wire, sizeof(wire));
    p.finish();
    Frame f;
    EXPECT_FALSE(read_frame(p.fd[1], f));
  }
}

TEST(FrameFuzz, TruncatedPayloadIsEofNotAHangOrCrash) {
  const auto wire = encode_frame(2, 0, "feedback",
                                 payload_of(std::vector<float>{1.f, 2.f, 3.f, 4.f}));
  // Cut the stream at every boundary inside the body.
  for (std::size_t cut = kFrameHeaderBytes; cut < wire.size(); cut += 5) {
    Pair p;
    p.write_bytes(wire.data(), cut);
    p.finish();
    Frame f;
    EXPECT_FALSE(read_frame(p.fd[1], f)) << "cut at byte " << cut;
  }
}

TEST(FrameFuzz, SeededGarbageNeverCrashesTheReader) {
  Rng rng(0xfeedface);
  for (int it = 0; it < 200; ++it) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform() * 96);
    std::vector<std::uint8_t> junk(n);
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.uniform() * 256.0);
    }
    // Half the iterations lead with a valid magic so the fuzz also
    // exercises the post-header paths, not just the magic check.
    if (it % 2 == 0 && n >= 4) put_le32(junk.data(), kFrameMagic);
    Pair p;
    p.write_bytes(junk);
    p.finish();
    Frame f;
    // True is conceivable (garbage can spell a tiny valid frame);
    // the property under test is only no-crash / no-hang.
    (void)read_frame(p.fd[1], f);
  }
}

// The adversary against the live event loop: a connection that sends
// garbage instead of a hello must neither crash the server nor wedge
// its rendezvous — a legitimate worker joining afterwards still forms
// the cluster.
TEST(FrameFuzz, GarbageHelloDoesNotStallTheAcceptor) {
  TcpOptions opts;
  opts.rendezvous_timeout_s = 20.0;
  opts.receive_timeout_s = 20.0;
  auto server = TcpNetwork::serve(0, 1, opts);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char junk[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::write(fd, junk, sizeof(junk)), 0);
  ::close(fd);

  auto w1 = TcpNetwork::connect("127.0.0.1", server->port(), 1, 1, opts);
  EXPECT_TRUE(server->wait_ready());
  EXPECT_TRUE(w1->wait_ready());
  EXPECT_TRUE(server->is_alive(1));
}

// A dialer that sends 4 bytes of a hello and then stalls is just one
// more connection state of the server's event loop: a real worker that
// dials after it completes the rendezvous at once, and the stalled
// connection holds up neither the control pump nor the heartbeats.
TEST(FrameFuzz, StalledHelloDoesNotBlockTheRendezvous) {
  TcpOptions opts;
  opts.rendezvous_timeout_s = 20.0;
  opts.receive_timeout_s = 20.0;
  auto server = TcpNetwork::serve(0, 1, opts);
  const int fd = dial_raw(server->port());
  const auto wire = hello_wire(1, 1);
  ASSERT_EQ(::write(fd, wire.data(), 4), 4);

  const auto t0 = std::chrono::steady_clock::now();
  auto w1 = TcpNetwork::connect("127.0.0.1", server->port(), 1, 1, opts);
  EXPECT_TRUE(server->wait_ready());
  EXPECT_TRUE(w1->wait_ready());
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 1.0);
  EXPECT_TRUE(server->is_alive(1));
  ::close(fd);
}

// A stranger's first frame may announce only a hello-sized body. A
// 42-byte frame head (header, fixed fields, `!hello`) announcing a
// 256 MiB body is refused from its 8 header bytes, before anything is
// allocated for it: the connection closes at once instead of holding
// the announced bytes until the hello deadline, and a real worker still
// joins afterwards.
TEST(FrameFuzz, PreHelloFrameCannotAnnounceALargeBody) {
  TcpOptions opts;
  opts.rendezvous_timeout_s = 20.0;
  opts.receive_timeout_s = 20.0;
  auto server = TcpNetwork::serve(0, 1, opts);
  const int fd = dial_raw(server->port());
  timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const auto head = encode_frame_head(1, kServerId, kTagHello, 256u << 20);
  ASSERT_EQ(head.size(), 42u);
  ASSERT_EQ(::write(fd, head.data(), head.size()), 42);

  const auto t0 = std::chrono::steady_clock::now();
  std::uint8_t byte = 0;
  const ssize_t r = ::recv(fd, &byte, 1, 0);
  const int err = errno;
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // EOF, or a reset because the server closed with our bytes unread.
  EXPECT_TRUE(r == 0 || (r < 0 && err == ECONNRESET))
      << "recv returned " << r << " (errno " << err << ")";
  EXPECT_LT(waited, 1.0);
  ::close(fd);

  auto w1 = TcpNetwork::connect("127.0.0.1", server->port(), 1, 1, opts);
  EXPECT_TRUE(server->wait_ready());
  EXPECT_TRUE(w1->wait_ready());
}

// The incremental parser of the event loop against a live server: one
// frame trickled in a byte at a time, two frames in one write, then a
// valid frame followed by a corrupt header. Every valid frame arrives
// intact and in order; the corrupt header fail-stops only its own
// connection (with the !death fan-out to the survivor), and the loop
// keeps serving the other worker in both directions.
TEST(FrameFuzz, FramesSurviveArbitrarySplitPoints) {
  TcpOptions opts;
  opts.rendezvous_timeout_s = 20.0;
  opts.receive_timeout_s = 20.0;
  auto server = TcpNetwork::serve(0, 2, opts);
  const int fd = dial_raw(server->port());
  const auto hello = hello_wire(1, 2);
  ASSERT_EQ(::write(fd, hello.data(), hello.size()),
            static_cast<ssize_t>(hello.size()));
  auto w2 = TcpNetwork::connect("127.0.0.1", server->port(), 2, 2, opts);
  ASSERT_TRUE(server->wait_ready());
  ASSERT_TRUE(w2->wait_ready());

  auto fb = [](float v) {
    return encode_frame(1, kServerId, "fb", payload_of(std::vector<float>{v}));
  };
  const auto one = fb(1.f);
  for (std::uint8_t b : one) {
    ASSERT_EQ(::write(fd, &b, 1), 1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  auto two = fb(2.f);
  const auto three = fb(3.f);
  two.insert(two.end(), three.begin(), three.end());
  ASSERT_EQ(::write(fd, two.data(), two.size()),
            static_cast<ssize_t>(two.size()));
  auto four = fb(4.f);
  std::uint8_t corrupt[kFrameHeaderBytes];
  put_le32(corrupt, 0xdeadbeefu);
  put_le32(corrupt + 4, 16);
  four.insert(four.end(), corrupt, corrupt + sizeof(corrupt));
  ASSERT_EQ(::write(fd, four.data(), four.size()),
            static_cast<ssize_t>(four.size()));

  // The corrupt header is fail-stop for worker 1 alone...
  ASSERT_TRUE(eventually([&] { return !server->is_alive(1); }));
  EXPECT_TRUE(server->is_alive(2));
  // ...and everything it sent before that was delivered, in order.
  for (float want : {1.f, 2.f, 3.f, 4.f}) {
    auto m = server->receive_tagged(kServerId, "fb");
    ASSERT_TRUE(m.has_value()) << "frame " << want;
    EXPECT_EQ(m->from, 1);
    EXPECT_EQ(m->payload.read_floats(), std::vector<float>{want});
  }
  // The survivor hears of the death over the control plane, and the
  // loop still carries its traffic both ways.
  ASSERT_TRUE(eventually(
      [&] { return !w2->is_alive(1) && w2->membership_epoch() >= 1; }));
  server->send(kServerId, 2, "t", payload_of(std::vector<float>{5.f}));
  auto down = w2->receive_tagged(2, "t");
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->payload.read_floats(), std::vector<float>{5.f});
  w2->send(2, kServerId, "fb", payload_of(std::vector<float>{6.f}));
  auto up = server->receive_tagged(kServerId, "fb");
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->from, 2);
  ::close(fd);
}

// --- the control-frame vocabulary under the same adversary --------------

TEST(FrameFuzz, ControlTagAtTheLengthCapBoundary) {
  // Exactly at the cap: a legal (if absurd) control tag; the reader
  // accepts it and higher layers ignore the unknown '!' name.
  std::string fat_tag(kMaxFrameTagBytes, 'x');
  fat_tag[0] = kControlTagPrefix;
  const auto wire = encode_frame(0, 1, fat_tag, ByteBuffer());
  Pair p;
  p.write_bytes(wire);
  p.finish();
  Frame f;
  ASSERT_TRUE(read_frame(p.fd[1], f));
  EXPECT_EQ(f.tag, fat_tag);
  EXPECT_TRUE(is_control_tag(f.tag));

  // One byte over: rejected from the length fields alone, before the
  // tag (or a 1 GiB "!state..." body riding behind it) is allocated.
  std::uint8_t raw[kFrameHeaderBytes + kFrameBodyFixedBytes] = {};
  put_le32(raw, kFrameMagic);
  put_le32(raw + 4, kFrameBodyFixedBytes + kMaxFrameTagBytes + 1);
  put_le32(raw + 8, 0);                       // src
  put_le32(raw + 12, 1);                      // dst
  put_le32(raw + 16, kMaxFrameTagBytes + 1);  // tag_len over the cap
  Pair q;
  q.write_bytes(raw, sizeof(raw));
  q.finish();
  EXPECT_FALSE(read_frame(q.fd[1], f));
}

TEST(FrameFuzz, GarbagePongInsteadOfHelloIsRejectedByTheAcceptor) {
  // A connection whose first frame is a well-formed !pong from an
  // unknown id — not a hello — must be turned away without crashing
  // the event loop or wedging the rendezvous.
  TcpOptions opts;
  opts.rendezvous_timeout_s = 20.0;
  opts.receive_timeout_s = 20.0;
  auto server = TcpNetwork::serve(0, 1, opts);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ByteBuffer junk_pong;
  junk_pong.write_pod<std::uint64_t>(0xdeadu);
  const auto wire = encode_frame(42, kServerId, kTagPong, junk_pong);
  ASSERT_GT(::write(fd, wire.data(), wire.size()), 0);
  ::close(fd);

  auto w1 = TcpNetwork::connect("127.0.0.1", server->port(), 1, 1, opts);
  EXPECT_TRUE(server->wait_ready());
  EXPECT_TRUE(w1->wait_ready());
  EXPECT_TRUE(server->is_alive(1));
}

TEST(FrameFuzz, MalformedControlFramesAfterAValidHelloAreDropped) {
  // A seated worker that turns hostile: truncated pongs, pongs spoofing
  // another id, worker-bound tags aimed at the server, unknown control
  // names. All dropped; the connection and the server survive.
  TcpOptions opts;
  opts.rendezvous_timeout_s = 20.0;
  opts.receive_timeout_s = 20.0;
  auto server = TcpNetwork::serve(0, 1, opts);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  auto send_frame = [&](const std::vector<std::uint8_t>& wire) {
    ASSERT_EQ(::write(fd, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
  };
  ByteBuffer hello;
  hello.write_pod<std::uint32_t>(1);
  hello.write_pod<std::uint64_t>(1);
  send_frame(encode_frame(1, kServerId, kTagHello, hello));
  ASSERT_TRUE(server->wait_ready());

  send_frame(encode_frame(1, kServerId, kTagPong, ByteBuffer()));
  ByteBuffer short_pong;
  short_pong.write_pod<std::uint32_t>(7);  // u64+f64 expected
  send_frame(encode_frame(1, kServerId, kTagPong, short_pong));
  ByteBuffer spoofed;
  spoofed.write_pod<std::uint64_t>(1);
  spoofed.write_pod<double>(0.0);
  send_frame(encode_frame(7, kServerId, kTagPong, spoofed));  // wrong src
  ByteBuffer theta;
  theta.write_pod<std::uint8_t>(0x7f);
  send_frame(encode_frame(1, kServerId, kTagState, theta));  // S->W tag
  send_frame(encode_frame(1, kServerId, "!wat", ByteBuffer()));

  // The server has digested (dropped) all of it and the peer is still
  // seated: a real data frame afterwards is delivered normally.
  ByteBuffer data;
  data.write_floats(std::vector<float>{3.5f}.data(), 1);
  send_frame(encode_frame(1, kServerId, "feedback", data));
  const auto msg = server->receive_tagged(kServerId, "feedback");
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->from, 1);
  EXPECT_TRUE(server->is_alive(1));
  ::close(fd);
}

TEST(FrameFuzz, TruncatedStateAndAdmitFramesDoNotKillTheWorker) {
  // The mirror image: a hostile/corrupt *server* feeding a worker
  // endpoint truncated !admit bodies and a truncated θ inside a
  // well-framed !state. The control pump drops the former; the latter
  // is stored verbatim and fails loudly (and cleanly) only at
  // RejoinState::decode.
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &alen),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::thread fake_server([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    Frame hello;
    ASSERT_TRUE(read_frame(fd, hello));
    EXPECT_EQ(hello.tag, kTagHello);
    auto send_frame = [&](const std::string& tag, const ByteBuffer& pay) {
      const auto wire = encode_frame(kServerId, 1, tag, pay);
      ASSERT_EQ(::write(fd, wire.data(), wire.size()),
                static_cast<ssize_t>(wire.size()));
    };
    // An empty !ping: echoed verbatim, nothing to parse.
    send_frame(kTagPing, ByteBuffer());
    // A truncated !admit (u32 only; u32+i64+u64 expected) and one whose
    // fields parse but point at a nonsense worker.
    ByteBuffer cut;
    cut.write_pod<std::uint32_t>(1);
    send_frame(kTagAdmit, cut);
    ByteBuffer bogus;
    bogus.write_pod<std::uint32_t>(999);
    bogus.write_pod<std::int64_t>(4);
    bogus.write_pod<std::uint64_t>(2);
    send_frame(kTagAdmit, bogus);
    // A well-framed !state carrying a truncated θ payload.
    ByteBuffer theta;
    theta.write_pod<std::uint8_t>(1);  // the RejoinState version byte
    theta.write_pod<std::uint32_t>(0xffffu);  // then: nothing
    send_frame(kTagState, theta);
    // Finally the legitimate hello-ack so wait_ready can succeed.
    ByteBuffer epoch;
    epoch.write_pod<std::uint64_t>(1);
    epoch.write_pod<std::uint32_t>(1);
    epoch.write_pod<std::uint8_t>(1);
    send_frame(kTagEpoch, epoch);
    // The worker's reply to the ping must arrive — proof the event
    // loop survived everything that preceded it.
    Frame pong;
    EXPECT_TRUE(read_frame(fd, pong));
    EXPECT_EQ(pong.tag, kTagPong);
    ::close(fd);
  });

  TcpOptions opts;
  opts.rendezvous_timeout_s = 20.0;
  opts.receive_timeout_s = 20.0;
  auto w1 = TcpNetwork::connect("127.0.0.1", port, 1, 1, opts);
  EXPECT_TRUE(w1->wait_ready());
  auto payload = w1->wait_rejoin_state(10.0);
  ASSERT_TRUE(payload.has_value());
  EXPECT_THROW(core::RejoinState::decode(*payload), std::runtime_error);
  fake_server.join();
  ::close(listen_fd);
}

}  // namespace
}  // namespace mdgan::dist
