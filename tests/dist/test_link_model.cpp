// Closed-form checks of the simulated-time link model: latency-only,
// bandwidth-only, mixed, queueing and straggler throttling, jitter determinism — and the contract the whole PR rests
// on: the zero model is byte-for-byte the pre-clock SimNetwork.
#include "dist/link_model.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dist/sim_network.hpp"

namespace mdgan::dist {
namespace {

// A payload of exactly n wire bytes.
ByteBuffer raw_bytes(std::size_t n, std::uint8_t fill = 0xab) {
  ByteBuffer buf;
  for (std::size_t i = 0; i < n; ++i) buf.write_pod<std::uint8_t>(fill);
  return buf;
}

TEST(LinkModel, DefaultIsZeroModel) {
  LinkModel m;
  EXPECT_TRUE(m.zero());
  const auto d = m.delay(0, 1, 1 << 20, 0);
  EXPECT_EQ(d.transmit_s, 0.0);
  EXPECT_EQ(d.propagation_s, 0.0);
  EXPECT_EQ(d.total(), 0.0);

  LinkModel uniform(LinkParams{0.01, 0.0, 0.0});
  EXPECT_FALSE(uniform.zero());
}

TEST(LinkModel, LatencyOnlyClosedForm) {
  // latency L, infinite bandwidth: every message costs exactly L,
  // independent of its size.
  LinkModel m(LinkParams{0.25, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(m.delay(0, 1, 0, 0).total(), 0.25);
  EXPECT_DOUBLE_EQ(m.delay(0, 1, 123456, 7).total(), 0.25);
  EXPECT_DOUBLE_EQ(m.delay(0, 1, 123456, 7).transmit_s, 0.0);

  SimNetwork net(2);
  net.set_link_model(m);
  net.send(kServerId, 1, "t", raw_bytes(64));
  auto msg = net.receive_tagged(1, "t");
  ASSERT_TRUE(msg.has_value());
  EXPECT_DOUBLE_EQ(msg->arrival_s, 0.25);
  EXPECT_DOUBLE_EQ(net.sim_time(1), 0.25);
  EXPECT_DOUBLE_EQ(net.sim_time(kServerId), 0.0);  // sender unaffected
}

TEST(LinkModel, BandwidthOnlyClosedForm) {
  // bandwidth B bytes/s, zero latency: a message of n bytes costs n/B.
  LinkModel m(LinkParams{0.0, 1000.0, 0.0});
  EXPECT_DOUBLE_EQ(m.delay(1, 0, 250, 0).total(), 0.25);
  EXPECT_DOUBLE_EQ(m.delay(1, 0, 250, 0).transmit_s, 0.25);

  SimNetwork net(2);
  net.set_link_model(m);
  net.send(1, kServerId, "fb", raw_bytes(250));
  auto msg = net.receive_tagged(kServerId, "fb");
  ASSERT_TRUE(msg.has_value());
  EXPECT_DOUBLE_EQ(msg->arrival_s, 0.25);
  EXPECT_DOUBLE_EQ(net.sim_time(kServerId), 0.25);
}

TEST(LinkModel, MixedAndQueueingClosedForm) {
  // latency 0.1s + 1000 B/s. Two back-to-back 500 B sends on the SAME
  // link queue behind each other: transmit finishes at 0.5 and 1.0, the
  // latency pipelines, so arrivals are 0.6 and 1.1.
  SimNetwork net(2);
  net.set_link_model(LinkModel(LinkParams{0.1, 1000.0, 0.0}));
  net.send(kServerId, 1, "t", raw_bytes(500));
  net.send(kServerId, 1, "t", raw_bytes(500));
  auto first = net.receive_tagged(1, "t");
  auto second = net.receive_tagged(1, "t");
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_DOUBLE_EQ(first->arrival_s, 0.6);
  EXPECT_DOUBLE_EQ(second->arrival_s, 1.1);
  EXPECT_DOUBLE_EQ(net.sim_time(1), 1.1);

  // Different links do NOT queue on each other: a send to worker 2
  // starting at the same clock arrives like a first message.
  net.send(kServerId, 2, "t", raw_bytes(500));
  EXPECT_DOUBLE_EQ(net.receive_tagged(2, "t")->arrival_s, 0.6);
}

TEST(LinkModel, SlowNodeThrottlesBothDirections) {
  LinkModel m(LinkParams{0.0, 1000.0, 0.0});
  m.slow_node(1, 10.0);
  EXPECT_DOUBLE_EQ(m.params(0, 1).bytes_per_s, 100.0);
  EXPECT_DOUBLE_EQ(m.params(1, 0).bytes_per_s, 100.0);
  EXPECT_DOUBLE_EQ(m.params(0, 2).bytes_per_s, 1000.0);
  EXPECT_DOUBLE_EQ(m.params(2, 1).bytes_per_s, 100.0);  // w->w too
  // Both endpoints slowed: the slower one governs.
  m.slow_node(2, 4.0);
  EXPECT_DOUBLE_EQ(m.params(2, 1).bytes_per_s, 100.0);
  EXPECT_DOUBLE_EQ(m.params(0, 2).bytes_per_s, 250.0);
  EXPECT_THROW(m.slow_node(1, 0.0), std::invalid_argument);
  // Infinite bandwidth stays infinite.
  LinkModel lat(LinkParams{0.5, 0.0, 0.0});
  lat.slow_node(1, 10.0);
  EXPECT_DOUBLE_EQ(lat.params(0, 1).bytes_per_s, 0.0);
  EXPECT_DOUBLE_EQ(lat.delay(0, 1, 1000, 0).total(), 0.5);
}

TEST(LinkModel, JitterIsDeterministicPerSeedAndBounded) {
  const LinkParams p{0.1, 0.0, 0.5};
  LinkModel a(p, 7), b(p, 7), c(p, 8);
  bool any_jitter = false, seeds_differ = false;
  for (std::uint64_t s = 0; s < 32; ++s) {
    const double da = a.delay(0, 1, 100, s).total();
    const double db = b.delay(0, 1, 100, s).total();
    const double dc = c.delay(0, 1, 100, s).total();
    EXPECT_EQ(da, db);  // bit-identical across identically-seeded models
    EXPECT_GE(da, 0.1);
    EXPECT_LT(da, 0.1 + 0.5);
    any_jitter = any_jitter || da != 0.1;
    seeds_differ = seeds_differ || da != dc;
  }
  EXPECT_TRUE(any_jitter);
  EXPECT_TRUE(seeds_differ);
  // Different links and different messages draw different jitter.
  EXPECT_NE(a.delay(0, 1, 100, 0).total(), a.delay(0, 2, 100, 0).total());
  EXPECT_NE(a.delay(0, 1, 100, 0).total(), a.delay(0, 1, 100, 1).total());
}

TEST(LinkModel, JitteredNetworkRunsAreReproducible) {
  auto run = [] {
    SimNetwork net(3);
    net.set_link_model(LinkModel(LinkParams{0.01, 5000.0, 0.02}, 99));
    for (int w = 1; w <= 3; ++w) {
      net.send(kServerId, w, "t", raw_bytes(100));
    }
    std::vector<double> times;
    for (int w = 1; w <= 3; ++w) {
      times.push_back(net.receive_tagged(w, "t")->arrival_s);
      net.send(w, kServerId, "fb", raw_bytes(40));
    }
    for (int w = 1; w <= 3; ++w) {
      net.receive_tagged(kServerId, "fb");
    }
    times.push_back(net.sim_time(kServerId));
    return times;
  };
  EXPECT_EQ(run(), run());
}

TEST(LinkModel, ZeroModelMatchesDefaultNetworkByteForByte) {
  // Three networks — untouched default, explicit zero model, and a
  // decidedly nonzero model — driven through the same script must move
  // the exact same bytes; only the timestamps may differ.
  SimNetwork plain(2);
  SimNetwork zeroed(2);
  zeroed.set_link_model(LinkModel{});
  SimNetwork timed(2);
  timed.set_link_model(LinkModel(LinkParams{0.005, 1e6, 0.001}, 3));

  auto script = [](SimNetwork& net) {
    std::vector<std::vector<std::uint8_t>> received;
    net.begin_iteration(1);
    net.send(kServerId, 1, "t", raw_bytes(33, 0x11));
    net.send(kServerId, 2, "t", raw_bytes(65, 0x22));
    net.send(2, 1, "t", raw_bytes(9, 0x33));
    for (int node : {1, 1, 2}) {
      auto m = net.receive_tagged(node, "t");
      if (!m) continue;
      std::vector<std::uint8_t> bytes(m->payload.size());
      std::memcpy(bytes.data(), m->payload.data(), bytes.size());
      received.push_back(std::move(bytes));
      net.send(node, kServerId, "fb", raw_bytes(17, 0x44));
    }
    while (auto m = net.receive_tagged(kServerId, "fb")) {
      std::vector<std::uint8_t> bytes(m->payload.size());
      std::memcpy(bytes.data(), m->payload.data(), bytes.size());
      received.push_back(std::move(bytes));
    }
    return received;
  };

  const auto a = script(plain);
  const auto b = script(zeroed);
  const auto c = script(timed);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  for (auto kind : {LinkKind::kServerToWorker, LinkKind::kWorkerToServer,
                    LinkKind::kWorkerToWorker}) {
    EXPECT_EQ(plain.totals(kind).bytes, zeroed.totals(kind).bytes);
    EXPECT_EQ(plain.totals(kind).bytes, timed.totals(kind).bytes);
    EXPECT_EQ(plain.totals(kind).messages, timed.totals(kind).messages);
  }
  // The zero-model clocks never moved; the timed ones did.
  for (int node : {0, 1, 2}) {
    EXPECT_EQ(plain.sim_time(node), 0.0);
    EXPECT_EQ(zeroed.sim_time(node), 0.0);
  }
  EXPECT_GT(timed.max_sim_time(), 0.0);
}

TEST(LinkModel, AdvanceTimeComposesWithZeroModel) {
  // advance_time is usable even without a link model: arrival = the
  // sender's (advanced) clock, and receive max-propagates it.
  SimNetwork net(2);
  net.advance_time(1, 1.5);
  EXPECT_DOUBLE_EQ(net.sim_time(1), 1.5);
  net.send(1, kServerId, "t", raw_bytes(8));
  EXPECT_DOUBLE_EQ(net.receive_tagged(kServerId, "t")->arrival_s, 1.5);
  EXPECT_DOUBLE_EQ(net.sim_time(kServerId), 1.5);
  net.advance_time(kServerId, 0.0);  // no-op is fine
  EXPECT_DOUBLE_EQ(net.max_sim_time(), 1.5);
  EXPECT_THROW(net.advance_time(1, -0.1), std::invalid_argument);
  EXPECT_THROW(net.advance_time(9, 1.0), std::out_of_range);
}

TEST(LinkModel, CrashedWorkerFreezesOutOfCriticalPath) {
  SimNetwork net(2);
  net.advance_time(1, 5.0);
  net.advance_time(2, 1.0);
  EXPECT_DOUBLE_EQ(net.max_sim_time(), 5.0);
  net.crash(1);
  // The frozen clock is still readable but no longer the critical path.
  EXPECT_DOUBLE_EQ(net.sim_time(1), 5.0);
  EXPECT_DOUBLE_EQ(net.max_sim_time(), 1.0);
}

}  // namespace
}  // namespace mdgan::dist
