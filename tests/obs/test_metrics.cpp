#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/alloc_tracker.hpp"
#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"
#include "obs/json.hpp"
#include "obs/sink.hpp"

namespace mdgan::obs {
namespace {

TEST(Registry, CounterGetOrCreateReturnsSameInstance) {
  Registry r;
  Counter& a = r.counter("rounds_total");
  Counter& b = r.counter("rounds_total");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(4);
  EXPECT_EQ(r.counter_value("rounds_total"), 5u);
  // A label makes a distinct instrument under the Prometheus-style key.
  Counter& c = r.counter("bytes_total", "link=c2w");
  c.inc(10);
  EXPECT_EQ(r.counter_value("bytes_total{link=c2w}"), 10u);
  EXPECT_EQ(r.counter_value("bytes_total"), 0u);  // absent => 0
  EXPECT_TRUE(r.has("bytes_total{link=c2w}"));
  EXPECT_FALSE(r.has("bytes_total{link=w2w}"));
}

TEST(Registry, GaugeHoldsLatestValue) {
  Registry r;
  Gauge& g = r.gauge("alive_workers");
  g.set(3.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(r.gauge_value("alive_workers"), 2.0);
}

TEST(Registry, KindConflictThrows) {
  Registry r;
  r.counter("x");
  EXPECT_THROW(r.gauge("x"), std::invalid_argument);
  EXPECT_THROW(r.histogram("x", {1.0}), std::invalid_argument);
  r.histogram("h", {1.0, 2.0});
  EXPECT_THROW(r.counter("h"), std::invalid_argument);
}

TEST(Histogram, BucketMathUsesLeSemantics) {
  Registry r;
  Histogram& h = r.histogram("lat", {1.0, 2.0, 4.0});
  h.observe(0.5);  // <= 1       -> bucket 0
  h.observe(1.0);  // <= 1 (le)  -> bucket 0
  h.observe(1.5);  // <= 2       -> bucket 1
  h.observe(4.0);  // <= 4 (le)  -> bucket 2
  h.observe(5.0);  // > 4        -> overflow
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 5.0);
}

TEST(Histogram, RejectsBadBounds) {
  Registry r;
  EXPECT_THROW(r.histogram("empty", {}), std::invalid_argument);
  EXPECT_THROW(r.histogram("nonmono", {2.0, 1.0}), std::invalid_argument);
}

TEST(Registry, SnapshotIsWellFormedSingleLineJson) {
  Registry r;
  r.counter("rounds_total").inc(3);
  r.gauge("alive_workers").set(2);
  r.histogram("round_duration_seconds", {0.1, 1.0}).observe(0.05);
  std::ostringstream os;
  r.write_snapshot_json(os, "snapshot", /*round=*/7, /*wall_s=*/1.25,
                        /*sim_s=*/0.5);
  const std::string line = os.str();
  std::string err;
  EXPECT_TRUE(json::parse(line, nullptr, &err)) << err << "\n" << line;
  EXPECT_EQ(line.find('\n'), std::string::npos) << "snapshot must be one line";
  EXPECT_NE(line.find("\"kind\":\"snapshot\""), std::string::npos);
  EXPECT_NE(line.find("\"rounds_total\":3"), std::string::npos);
  EXPECT_NE(line.find("round_duration_seconds"), std::string::npos);
}

TEST(Registry, SnapshotIsByteDeterministic) {
  auto render = [] {
    Registry r;
    // Insertion order shuffled relative to key order on purpose: the
    // sorted map must serialize both the same way.
    r.counter("z_total").inc(1);
    r.counter("a_total").inc(2);
    r.gauge("m_gauge").set(1.5);
    std::ostringstream os;
    r.write_snapshot_json(os, "final", 3, 2.0, 1.0);
    return os.str();
  };
  EXPECT_EQ(render(), render());
}

// The acceptance bar for the metrics pillar: the registry's per-link
// byte counters must equal the transport accountant's totals EXACTLY —
// both are charged on the same guarded code path.
TEST(Registry, MatchesTransportAccountantExactly) {
  const std::size_t n = 3;
  Sink sink;  // metrics only; tracer stays disabled
  dist::SimNetwork net(n);
  net.set_sink(&sink);

  auto full = data::make_synthetic_digits(n * 16, 42);
  Rng rng(42);
  auto shards = data::split_iid(full, n, rng);

  core::MdGanConfig cfg;
  cfg.hp.batch = 8;
  cfg.hp.disc_steps = 1;
  cfg.k = 2;
  cfg.epochs_per_swap = 1;
  cfg.sink = &sink;
  core::MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
                 std::move(shards), 7, net);
  md.train(4);  // long enough to cover a swap epoch (period 2)

  const Registry& r = sink.registry();
  EXPECT_EQ(r.counter_value("bytes_total{link=c2w}"),
            net.totals(dist::LinkKind::kServerToWorker).bytes);
  EXPECT_EQ(r.counter_value("bytes_total{link=w2c}"),
            net.totals(dist::LinkKind::kWorkerToServer).bytes);
  EXPECT_EQ(r.counter_value("bytes_total{link=w2w}"),
            net.totals(dist::LinkKind::kWorkerToWorker).bytes);
  EXPECT_EQ(r.counter_value("messages_total{link=c2w}"),
            net.message_count(dist::LinkKind::kServerToWorker));
  EXPECT_EQ(r.counter_value("messages_total{link=w2c}"),
            net.message_count(dist::LinkKind::kWorkerToServer));
  // W->C carries only feedback frames, so the feedback counter must
  // equal the whole link total there and stay zero on the others.
  EXPECT_EQ(r.counter_value("feedback_bytes_total{link=w2c}"),
            net.totals(dist::LinkKind::kWorkerToServer).bytes);
  EXPECT_EQ(r.counter_value("feedback_bytes_total{link=c2w}"), 0u);
  // Engine-side instruments moved too.
  EXPECT_EQ(r.counter_value("rounds_total"), 4u);
  EXPECT_GT(r.counter_value("local_steps_total"), 0u);
  EXPECT_GT(r.counter_value("gen_updates_total"), 0u);
}

// The engine observes the wall seconds of every phase it runs into
// phase_duration_seconds{phase=...}: once per round for the phases every
// round runs, once per swap round for the swap.
TEST(Sink, EngineObservesEveryPhaseDuration) {
  const std::size_t n = 2;
  Sink sink;
  dist::SimNetwork net(n);
  auto full = data::make_synthetic_digits(n * 16, 43);
  Rng rng(43);
  auto shards = data::split_iid(full, n, rng);
  core::MdGanConfig cfg;
  cfg.hp.batch = 8;
  cfg.hp.disc_steps = 1;
  cfg.k = 2;
  cfg.sink = &sink;
  core::MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
                 std::move(shards), 43, net);
  const std::uint64_t rounds = 5;  // swap period 2: swaps at 2 and 4
  md.train(static_cast<std::int64_t>(rounds));

  Registry& r = sink.registry();
  const auto phase = [&](const std::string& name) -> const Histogram& {
    const std::string label = "phase=" + name;
    EXPECT_TRUE(r.has(Registry::key_of("phase_duration_seconds", label)))
        << name;
    return r.histogram("phase_duration_seconds", {1.0}, label);
  };
  for (const std::string name : {"membership", "broadcast", "local",
                                 "collect", "swap"}) {
    const Histogram& h = phase(name);
    EXPECT_EQ(h.count(), name == "swap" ? 2u : rounds) << name;
    EXPECT_TRUE(std::isfinite(h.sum())) << name;
    EXPECT_GE(h.sum(), 0.0) << name;
  }
}

// The other acceptance bar: with no sink wired, the instrumented hot
// paths must not touch the heap at all.
TEST(Sink, DisabledTelemetryMakesZeroAllocations) {
  Sink disabled;  // no paths => tracer disabled
  Tracer& t = disabled.tracer();
  ASSERT_FALSE(t.enabled());
  Counter& c = disabled.registry().counter("warm");  // resolve BEFORE

  const AllocStats before = alloc_stats();
  for (int i = 0; i < 1000; ++i) {
    Span a(&t, "phase:broadcast", Cat::kPhase, 0, i);
    Span b(nullptr, "phase:collect", Cat::kPhase, 0, i);
    Span d(&t, "gemm_f32", Cat::kCompute, -1);
    c.inc(3);
    (void)a.active();
  }
  const AllocStats delta = alloc_stats() - before;
  EXPECT_EQ(delta.count, 0u);
  EXPECT_EQ(delta.bytes, 0u);
}

}  // namespace
}  // namespace mdgan::obs
