// Trace-merge contracts: virtual-time merges of deterministic runs are
// byte-identical (wall jitter must not leak into the output), flow
// arrows bind every recv span to exactly the send span carrying the
// same flow id, wall-time merges shift worker files by the estimated
// clock offsets, and a real TCP loopback cluster (server + 2 workers,
// three per-endpoint trace files) merges with zero unmatched flows.
// The JSON parser every trace, metrics line and `!stats` reply goes
// through rejects whatever RFC 8259 forbids.
#include "obs/trace_merge.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "dist/tcp_network.hpp"
#include "obs/json.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace mdgan::obs {
namespace {

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// Hand-rolled span emission: full control over every stamp, so the two
// "runs" below can differ ONLY in wall time.
void emit_span(Tracer& t, const char* name, Cat cat, int node,
               double sim_t0, double sim_t1, std::int64_t wall_t0_ns,
               std::uint64_t flow = 0, std::uint64_t bytes = 0,
               std::int64_t iter = -1) {
  TraceEvent ev{};
  std::strncpy(ev.name, name, TraceEvent::kNameCap - 1);
  ev.cat = cat;
  ev.node = node;
  ev.wall_t0_ns = wall_t0_ns;
  ev.wall_dur_ns = 1000;
  ev.sim_t0 = sim_t0;
  ev.sim_t1 = sim_t1;
  ev.iter = iter;
  ev.bytes = bytes;
  ev.flow = flow;
  t.emit(ev);
}

// One synthetic single-file "sim run": a broadcast send/recv pair plus
// a phase span, with the wall clock offset by `wall_skew_ns` — which a
// virtual-time merge must erase completely.
std::string sim_trace_doc(std::int64_t wall_skew_ns) {
  Tracer t;
  t.set_local_node(0);
  emit_span(t, "phase:broadcast", Cat::kPhase, 0, 0.10, 0.20,
            wall_skew_ns + 100, /*flow=*/0, /*bytes=*/0, /*iter=*/1);
  emit_span(t, "send:gen_batches", Cat::kNet, 0, 0.10, 0.15,
            wall_skew_ns + 200, /*flow=*/7, /*bytes=*/64, /*iter=*/1);
  emit_span(t, "recv:gen_batches", Cat::kNet, 1, 0.15, 0.18,
            wall_skew_ns + 300, /*flow=*/7, /*bytes=*/64, /*iter=*/1);
  std::ostringstream os;
  t.write_chrome_trace(os);
  return os.str();
}

TEST(Json, ParseRejectsWhatRfc8259Forbids) {
  const std::vector<std::string> bad = {
      // A raw control character inside a string.
      std::string("\"a\x01z\""), "\"tab\there\"", "[\"line\nbreak\"]",
      // A sign, point or exponent marker with no digit after it, and a
      // leading zero.
      "-", "[-]", "-x", "01", "1.", "1.e5", "[1.]", ".5", "1e", "1e+",
      "[1E-]",
      // Trailing garbage.
      "{} x", "1 2", "[1]]", "\"s\"\"",
      // Lone surrogates.
      "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\""};
  for (const std::string& text : bad) {
    std::string err;
    EXPECT_FALSE(json::parse(text, nullptr, &err)) << text;
    EXPECT_FALSE(err.empty()) << text;
  }

  const std::vector<std::pair<std::string, double>> good = {
      {"0", 0.0}, {"-0", -0.0}, {"-3", -3.0}, {"12.5e-1", 1.25},
      {"1E+2", 100.0}};
  for (const auto& [text, want] : good) {
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(text, &v, &err)) << text << ": " << err;
    EXPECT_EQ(v.number, want) << text;
  }
  json::Value v;
  ASSERT_TRUE(json::parse("\"\\u00e9\\ud83d\\ude00\"", &v, nullptr));
  EXPECT_EQ(v.string, "\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(TraceMerge, VirtualMergeIsByteDeterministicAcrossWallJitter) {
  const std::string run_a = sim_trace_doc(/*wall_skew_ns=*/0);
  const std::string run_b = sim_trace_doc(/*wall_skew_ns=*/987654321);
  ASSERT_NE(run_a, run_b);  // the inputs really do differ in wall time

  std::ostringstream out_a, out_b;
  MergeStats st_a, st_b;
  std::string err;
  ASSERT_TRUE(
      merge_traces({run_a}, MergeTime::kVirtual, out_a, &st_a, &err))
      << err;
  ASSERT_TRUE(
      merge_traces({run_b}, MergeTime::kVirtual, out_b, &st_b, &err))
      << err;
  EXPECT_EQ(out_a.str(), out_b.str());
  EXPECT_EQ(st_a.events, 3u);
  EXPECT_EQ(st_a.flows_bound, 1u);
  EXPECT_EQ(st_a.flows_unmatched, 0u);
  EXPECT_EQ(st_a.dropped_no_sim, 0u);
  EXPECT_TRUE(json::parse(out_a.str(), nullptr, &err)) << err;
  // kAuto resolves to virtual for a single input: identical output.
  std::ostringstream out_auto;
  ASSERT_TRUE(
      merge_traces({run_a}, MergeTime::kAuto, out_auto, nullptr, &err))
      << err;
  EXPECT_EQ(out_auto.str(), out_a.str());
}

TEST(TraceMerge, FlowArrowsBindRecvToItsSendAndCountOrphans) {
  Tracer t;
  t.set_local_node(0);
  emit_span(t, "send:feedback", Cat::kNet, 1, 1.000, 1.010, 1000,
            /*flow=*/42, /*bytes=*/128);
  emit_span(t, "recv:feedback", Cat::kNet, 0, 1.010, 1.020, 2000,
            /*flow=*/42, /*bytes=*/128);
  // A receive whose sender span was lost (e.g. ring overflow upstream).
  emit_span(t, "recv:disc_swap", Cat::kNet, 2, 1.030, 1.040, 3000,
            /*flow=*/99, /*bytes=*/32);

  std::ostringstream out;
  MergeStats st;
  std::string err;
  ASSERT_TRUE(merge_traces({""}, MergeTime::kVirtual, out, &st, &err) ==
              false);  // garbage input is a parse error, not a crash
  out.str("");
  std::ostringstream doc;
  t.write_chrome_trace(doc);
  ASSERT_TRUE(merge_traces({doc.str()}, MergeTime::kVirtual, out, &st,
                           &err))
      << err;
  EXPECT_EQ(st.flows_bound, 1u);
  EXPECT_EQ(st.flows_unmatched, 1u);

  const std::string merged = out.str();
  EXPECT_TRUE(json::parse(merged, nullptr, &err)) << err;
  // Exactly one arrow pair, carrying the bound flow's id.
  EXPECT_EQ(count_occurrences(merged, "\"ph\":\"s\""), 1u);
  EXPECT_EQ(count_occurrences(merged, "\"ph\":\"f\""), 1u);
  EXPECT_EQ(count_occurrences(merged, "\"id\":42"), 2u);
  EXPECT_EQ(count_occurrences(merged, "\"id\":99"), 0u);
  EXPECT_NE(merged.find("\"flows_bound\":1"), std::string::npos);
  EXPECT_NE(merged.find("\"flows_unmatched\":1"), std::string::npos);
}

TEST(TraceMerge, WallMergeShiftsWorkerFilesByClockOffset) {
  // Server file: owns the reference clock and the offset estimate for
  // node 1 (5 ms: worker epoch is 5 ms behind; their_ns + offset ≈ ours).
  Tracer server;
  server.set_local_node(0);
  server.offer_clock_offset(/*node=*/1, /*offset_ns=*/5'000'000,
                            /*rtt_s=*/0.001);
  emit_span(server, "send:gen_batches", Cat::kNet, 0, -1.0, -1.0,
            /*wall_t0_ns=*/1'000'000, /*flow=*/5, /*bytes=*/64);
  // Worker file: its unshifted recv would land BEFORE the send.
  Tracer worker;
  worker.set_local_node(1);
  emit_span(worker, "recv:gen_batches", Cat::kNet, 1, -1.0, -1.0,
            /*wall_t0_ns=*/0, /*flow=*/5, /*bytes=*/64);

  std::ostringstream sdoc, wdoc;
  server.write_chrome_trace(sdoc);
  worker.write_chrome_trace(wdoc);
  ASSERT_NE(sdoc.str().find("\"clockOffsets\":{\"1\":5000000}"),
            std::string::npos)
      << sdoc.str();

  std::ostringstream out;
  MergeStats st;
  std::string err;
  ASSERT_TRUE(merge_traces({sdoc.str(), wdoc.str()}, MergeTime::kAuto,
                           out, &st, &err))
      << err;  // kAuto => wall for >1 input
  EXPECT_EQ(st.files, 2u);
  EXPECT_EQ(st.flows_bound, 1u);
  EXPECT_EQ(st.flows_unmatched, 0u);
  // The worker's recv moved from ts=0 to ts=+5000 us — after the send.
  EXPECT_NE(out.str().find("\"ts\":5000.000"), std::string::npos)
      << out.str();
}

// The acceptance property, in-process: a server + 2 workers over real
// loopback TCP, one trace file per endpoint, merged into one timeline
// where EVERY recv:<tag> flow resolves to exactly one send:<tag> span —
// broadcast (c2w), feedback (w2c) and the relayed swap (w2w) included.
TEST(TraceMerge, TcpLoopbackClusterMergesWithZeroUnmatchedFlows) {
  Sink sink_s, sink_1, sink_2;
  for (Sink* s : {&sink_s, &sink_1, &sink_2}) s->tracer().set_enabled(true);

  dist::TcpOptions opts;
  opts.rendezvous_timeout_s = 20.0;
  opts.receive_timeout_s = 20.0;
  auto server = dist::TcpNetwork::serve(0, 2, opts);
  server->set_sink(&sink_s);
  auto w1 = dist::TcpNetwork::connect("127.0.0.1", server->port(), 1, 2,
                                      opts);
  w1->set_sink(&sink_1);
  auto w2 = dist::TcpNetwork::connect("127.0.0.1", server->port(), 2, 2,
                                      opts);
  w2->set_sink(&sink_2);
  ASSERT_TRUE(server->wait_ready());

  const auto payload = [] {
    ByteBuffer buf;
    const std::vector<float> v(4, 1.f);
    buf.write_floats(v.data(), v.size());
    return buf;
  };
  // One message of each traffic class the paper's protocol uses.
  server->send(dist::kServerId, 1, "gen_batches", payload());
  ASSERT_TRUE(w1->receive_tagged(1, "gen_batches").has_value());
  w1->send(1, dist::kServerId, "feedback", payload());
  ASSERT_TRUE(
      server->receive_tagged(dist::kServerId, "feedback").has_value());
  w1->send(1, 2, "disc_swap", payload());  // relayed through the server
  ASSERT_TRUE(w2->receive_tagged(2, "disc_swap").has_value());

  // Tear down the endpoints so every wire span has been emitted.
  server.reset();
  w1.reset();
  w2.reset();

  std::ostringstream ds, d1, d2;
  sink_s.tracer().write_chrome_trace(ds);
  sink_1.tracer().write_chrome_trace(d1);
  sink_2.tracer().write_chrome_trace(d2);

  std::ostringstream out;
  MergeStats st;
  std::string err;
  ASSERT_TRUE(merge_traces({ds.str(), d1.str(), d2.str()},
                           MergeTime::kWall, out, &st, &err))
      << err;
  const std::string merged = out.str();
  EXPECT_TRUE(json::parse(merged, nullptr, &err)) << err;

  // Every receive bound, none orphaned; at least the three user frames.
  EXPECT_EQ(st.flows_unmatched, 0u);
  EXPECT_GE(st.flows_bound, 3u);
  EXPECT_EQ(count_occurrences(merged, "\"ph\":\"s\""), st.flows_bound);
  EXPECT_EQ(count_occurrences(merged, "\"ph\":\"f\""), st.flows_bound);
  for (const char* name :
       {"\"send:gen_batches\"", "\"recv:gen_batches\"",
        "\"send:feedback\"", "\"recv:feedback\"", "\"send:disc_swap\"",
        "\"recv:disc_swap\""}) {
    EXPECT_GE(count_occurrences(merged, name), 1u) << name;
  }
  // One process track per endpoint in the merged view.
  for (const char* track : {"\"node 0 (server)\"", "\"node 1 (worker)\"",
                            "\"node 2 (worker)\""}) {
    EXPECT_NE(merged.find(track), std::string::npos) << track;
  }
}

}  // namespace
}  // namespace mdgan::obs
