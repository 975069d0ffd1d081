// The per-connection send queue: what a TcpNetwork send cannot write
// straight to the socket waits on a bounded queue that the endpoint's
// event loop drains. Pinned here: a full queue blocks the producer (backpressure, visible
// in the send_queue_stall_seconds histogram) until the peer drains it,
// and a peer dying mid-backpressure drops the queue wholesale — the
// producer unblocks, nothing waits on undeliverable frames, and the
// flight recorder books the drop.
#include "dist/tcp_network.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "dist/frame.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sink.hpp"

namespace mdgan::dist {
namespace {

ByteBuffer payload_of(std::size_t n_floats, float fill = 1.f) {
  std::vector<float> v(n_floats, fill);
  ByteBuffer buf;
  buf.write_floats(v.data(), v.size());
  return buf;
}

bool eventually(const std::function<bool()>& pred, double timeout_s = 15.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// A raw socket that completes a valid hello and then reads (or
// doesn't) at the test's pleasure — the only way to control the
// consumer side of the send queue, since a real endpoint's event loop
// always drains promptly.
int raw_hello(std::uint16_t port, int worker_id, std::size_t n_workers) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ByteBuffer hello;
  hello.write_pod<std::uint32_t>(static_cast<std::uint32_t>(worker_id));
  hello.write_pod<std::uint64_t>(n_workers);
  const auto wire = encode_frame(worker_id, kServerId, kTagHello, hello);
  EXPECT_EQ(::write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  return fd;
}

// ~1 MiB frames: a handful of them overflow any loopback socket
// buffer, so the socket stops taking bytes and the tiny queue fills.
constexpr std::size_t kBigFloats = 262144;
constexpr int kTotalSends = 24;

TcpOptions tiny_queue_opts() {
  TcpOptions opts;
  opts.rendezvous_timeout_s = 20.0;
  opts.receive_timeout_s = 20.0;
  opts.send_queue_depth = 2;
  return opts;
}

TEST(WriterQueue, BackpressureBlocksProducerUntilThePeerDrains) {
  obs::Sink sink;
  auto server = TcpNetwork::serve(0, 1, tiny_queue_opts());
  server->set_sink(&sink);
  const int fd = raw_hello(server->port(), 1, 1);
  ASSERT_TRUE(server->wait_ready());

  std::atomic<int> done{0};
  std::thread producer([&] {
    for (int i = 0; i < kTotalSends; ++i) {
      server->send(kServerId, 1, "bulk", payload_of(kBigFloats));
      done.fetch_add(1);
    }
  });

  // The socket buffer plus a depth-2 queue cannot absorb 24 MiB: the
  // producer must wedge well short of completion while the peer reads
  // nothing...
  ASSERT_TRUE(eventually([&] { return done.load() > 0; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_LT(done.load(), kTotalSends);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(done.load(), kTotalSends);  // still parked

  // ...and resume the moment the peer starts draining.
  std::atomic<bool> drain{true};
  std::thread drainer([&] {
    std::vector<char> sink_buf(1 << 20);
    while (drain.load()) {
      const ssize_t n = ::read(fd, sink_buf.data(), sink_buf.size());
      if (n <= 0) break;
    }
  });
  producer.join();  // completes only because the drain frees slots
  EXPECT_EQ(done.load(), kTotalSends);
  drain.store(false);

  // Every send was charged (the peer is alive; backpressure delays,
  // never drops), and the stall was observed.
  EXPECT_EQ(server->message_count(LinkKind::kServerToWorker),
            static_cast<std::uint64_t>(kTotalSends));
  auto& stall = sink.registry().histogram("send_queue_stall_seconds", {1.0});
  EXPECT_GT(stall.count(), 0u);
  EXPECT_GT(stall.sum(), 0.0);

  // close() flushes and tears the connection down; the drainer sees
  // EOF and exits before we release the raw fd.
  server->close();
  drainer.join();
  ::close(fd);
}

TEST(WriterQueue, DeadPeerDropsTheQueueAndUnblocksTheProducer) {
  obs::Sink sink;
  sink.flight().set_enabled(true);
  auto server = TcpNetwork::serve(0, 1, tiny_queue_opts());
  server->set_sink(&sink);
  const int fd = raw_hello(server->port(), 1, 1);
  ASSERT_TRUE(server->wait_ready());

  const auto charged_before_death = [&] {
    return server->message_count(LinkKind::kServerToWorker);
  };

  std::atomic<int> done{0};
  std::thread producer([&] {
    for (int i = 0; i < kTotalSends; ++i) {
      server->send(kServerId, 1, "bulk", payload_of(kBigFloats));
      done.fetch_add(1);
    }
  });
  ASSERT_TRUE(eventually([&] { return done.load() > 0; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_LT(done.load(), kTotalSends);  // wedged behind the full queue

  // kill -9 semantics: the peer's socket dies mid-backpressure. The
  // loop's next sendmsg fails, the queue is dropped, the
  // blocked producer wakes, and every remaining send becomes the
  // usual uncharged fail-stop no-op.
  const std::uint64_t charged_at_kill = charged_before_death();
  ::close(fd);
  producer.join();
  EXPECT_EQ(done.load(), kTotalSends);
  ASSERT_TRUE(eventually([&] { return !server->is_alive(1); }));
  EXPECT_EQ(server->alive_worker_count(), 0u);
  // Post-death sends charged nothing new.
  EXPECT_LE(charged_before_death(), charged_at_kill);

  // Join the event loop before reading the ring: the recorder is a
  // lock-free ring and snapshot() is only ordered against writers that
  // have been joined (post-mortem semantics, same as the JSONL dump).
  server->close();

  // The post-mortem shows what never reached the wire.
  const auto events = sink.flight().snapshot();
  bool saw_drop = false;
  for (const auto& ev : events) {
    if (ev.kind == obs::FlightKind::kWriterDrop) {
      saw_drop = true;
      EXPECT_EQ(ev.node, 1);
      EXPECT_GT(ev.a, 0);  // frames dropped
      EXPECT_GT(ev.b, 0);  // bytes dropped
    }
  }
  EXPECT_TRUE(saw_drop)
      << "expected a writer_drop flight event for the dead peer's queue";
}

}  // namespace
}  // namespace mdgan::dist
