#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"
#include "obs/json.hpp"
#include "obs/sink.hpp"

namespace mdgan::obs {
namespace {

TEST(Tracer, SpanStampsBothClocks) {
  Tracer t;  // enabled by default when constructed bare
  t.set_sim_clock([](int node) { return node == 3 ? 42.5 : -1.0; });
  {
    Span s(&t, "phase:broadcast", Cat::kPhase, /*node=*/3, /*iter=*/7);
    EXPECT_TRUE(s.active());
    s.add_bytes(128);
  }
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& ev = events[0];
  EXPECT_STREQ(ev.name, "phase:broadcast");
  EXPECT_EQ(ev.cat, Cat::kPhase);
  EXPECT_EQ(ev.node, 3);
  EXPECT_EQ(ev.iter, 7);
  EXPECT_EQ(ev.bytes, 128u);
  EXPECT_GE(ev.wall_t0_ns, 0);
  EXPECT_GE(ev.wall_dur_ns, 0);
  EXPECT_DOUBLE_EQ(ev.sim_t0, 42.5);
  EXPECT_DOUBLE_EQ(ev.sim_t1, 42.5);
}

TEST(Tracer, NoSimClockStampsNegativeSentinel) {
  Tracer t;
  EXPECT_FALSE(t.has_sim_clock());
  { Span s(&t, "x", Cat::kPhase, 0); }
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LT(events[0].sim_t0, 0.0);
  EXPECT_LT(events[0].sim_t1, 0.0);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t;
  t.set_enabled(false);
  {
    Span s(&t, "x", Cat::kPhase, 0);
    EXPECT_FALSE(s.active());
  }
  { Span s(nullptr, "y", Cat::kPhase, 0); }
  EXPECT_EQ(t.event_count(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, ComputeCategoryIsGated) {
  Tracer t;
  {
    Span s(&t, "gemm_f32", Cat::kCompute, -1);
    EXPECT_FALSE(s.active());  // capture_compute off by default
  }
  EXPECT_EQ(t.event_count(), 0u);
  t.set_capture_compute(true);
  {
    Span s(&t, "gemm_f32", Cat::kCompute, -1);
    EXPECT_TRUE(s.active());
  }
  EXPECT_EQ(t.event_count(), 1u);
}

TEST(Tracer, BufferCapDropsAndCounts) {
  Tracer t;
  t.set_max_events_per_thread(4);
  for (int i = 0; i < 10; ++i) {
    Span s(&t, "x", Cat::kPhase, 0, i);
  }
  EXPECT_EQ(t.event_count(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  // The retained events are the FIRST four, in program order.
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(events[i].iter, i);
}

TEST(Tracer, LongNamesAreTruncatedNotOverrun) {
  Tracer t;
  const std::string long_name(100, 'a');
  { Span s(&t, long_name.c_str(), Cat::kPhase, 0); }
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::strlen(events[0].name), TraceEvent::kNameCap - 1);
}

TEST(Tracer, ChromeTraceIsWellFormedJson) {
  Tracer t;
  t.set_sim_clock([](int) { return 1.5; });
  { Span s(&t, "phase:local", Cat::kPhase, 0, 2); }
  {
    Span s(&t, "send:feedback", Cat::kNet, 1, 2);
    s.add_bytes(4096);
  }
  std::ostringstream os;
  t.write_chrome_trace(os);
  const std::string doc = os.str();
  std::string err;
  EXPECT_TRUE(json::parse(doc, nullptr, &err)) << err;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("process_name"), std::string::npos);
  EXPECT_NE(doc.find("\"bytes\":4096"), std::string::npos);
  EXPECT_NE(doc.find("sim_t0_s"), std::string::npos);
}

// Structural identity of one event, everything except wall-clock times
// (which legitimately differ between runs of the same schedule).
using Shape =
    std::tuple<std::string, Cat, std::int32_t, std::int64_t, std::uint64_t,
               double, double>;

Shape shape_of(const TraceEvent& ev) {
  return {ev.name, ev.cat, ev.node, ev.iter, ev.bytes, ev.sim_t0, ev.sim_t1};
}

// The spans of a traced 2-worker sim run, stably sorted by node. The
// workers run on the pool, so spans of different nodes interleave in
// any order; one thread at a time emits a given node's spans, in
// program order, and that per-node order is what a run can promise.
std::vector<Shape> traced_sim_run() {
  Sink sink;
  sink.tracer().set_enabled(true);
  const std::size_t n = 2;
  dist::SimNetwork net(n);
  auto full = data::make_synthetic_digits(n * 16, 9);
  Rng rng(9);
  core::MdGanConfig cfg;
  cfg.hp.batch = 8;
  cfg.hp.disc_steps = 1;
  cfg.k = 1;
  cfg.epochs_per_swap = 1;
  cfg.sink = &sink;
  core::MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
                 data::split_iid(full, n, rng), 21, net);
  md.train(3);
  auto events = sink.tracer().snapshot();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.node < b.node;
                   });
  std::vector<Shape> out;
  for (const auto& ev : events) out.push_back(shape_of(ev));
  return out;
}

// Golden determinism: under SimNetwork, two runs of the same
// configuration must produce structurally identical traces — same
// spans, same per-node order, same nodes/iters/bytes and the same
// VIRTUAL timestamps; only wall-clock readings may differ.
TEST(Tracer, SimTraceIsDeterministic) {
  const auto a = traced_sim_run();
  const auto b = traced_sim_run();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// The span inventory the ISSUE promises: every engine phase, the round
// envelope, worker local steps and both wire directions show up in a
// traced sim run.
TEST(Tracer, SimRunEmitsExpectedSpanInventory) {
  const auto shapes = traced_sim_run();
  auto has = [&](const char* name) {
    for (const auto& s : shapes) {
      if (std::get<0>(s) == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("round"));
  EXPECT_TRUE(has("phase:membership"));
  EXPECT_TRUE(has("phase:broadcast"));
  EXPECT_TRUE(has("phase:local"));
  EXPECT_TRUE(has("phase:collect"));
  EXPECT_TRUE(has("phase:swap"));
  EXPECT_TRUE(has("local_step"));
  auto has_prefix = [&](const char* prefix) {
    for (const auto& s : shapes) {
      if (std::get<0>(s).rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_prefix("send:"));
  EXPECT_TRUE(has_prefix("recv:"));
  // Net spans carry payload sizes and virtual timestamps.
  bool net_span_ok = false;
  for (const auto& s : shapes) {
    if (std::get<0>(s).rfind("send:", 0) == 0 && std::get<4>(s) > 0 &&
        std::get<5>(s) >= 0.0) {
      net_span_ok = true;
      break;
    }
  }
  EXPECT_TRUE(net_span_ok);
}

}  // namespace
}  // namespace mdgan::obs
