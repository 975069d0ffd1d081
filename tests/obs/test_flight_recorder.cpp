// Flight recorder contracts: bounded-ring wrap with oldest-first dumps
// and exact drop accounting, JSONL well-formedness on both the ostream
// and the async-signal-safe fd paths (which must emit identical bytes),
// the disabled hot path staying allocation-free, and Sink::fatal_dump
// leaving both post-mortem artifacts behind.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "obs/json.hpp"
#include "obs/sink.hpp"

namespace mdgan::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(FlightRecorder, DisabledRecordIsANoOp) {
  FlightRecorder fr(8);
  EXPECT_FALSE(fr.enabled());
  fr.record(FlightKind::kPeerDeath, 3);
  EXPECT_EQ(fr.recorded(), 0u);
  EXPECT_TRUE(fr.snapshot().empty());
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder fr(5);
  EXPECT_EQ(fr.capacity(), 8u);
  FlightRecorder fr2(16);
  EXPECT_EQ(fr2.capacity(), 16u);
}

TEST(FlightRecorder, RingWrapKeepsNewestOldestFirst) {
  FlightRecorder fr(8);
  fr.set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    // Encode the sequence number in `a` so survivors are identifiable.
    fr.record(FlightKind::kEpochBump, /*node=*/-1, /*a=*/i);
  }
  EXPECT_EQ(fr.recorded(), 20u);
  EXPECT_EQ(fr.dropped(), 12u);

  const std::vector<FlightEvent> snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].a, static_cast<std::int64_t>(12 + i))
        << "slot " << i << " is not oldest-first after the wrap";
  }
}

TEST(FlightRecorder, OverflowBumpsTheDropCounter) {
  Registry reg;
  Counter& drops = reg.counter("events_dropped_total");
  FlightRecorder fr(4);
  fr.set_enabled(true);
  fr.set_drop_counter(&drops);
  for (int i = 0; i < 10; ++i) fr.record(FlightKind::kSuspect, i);
  EXPECT_EQ(fr.dropped(), 6u);
  EXPECT_EQ(drops.value(), 6u);
}

TEST(FlightRecorder, JsonlLinesAreWellFormedAndCarryTheSchema) {
  FlightRecorder fr(16);
  fr.set_enabled(true);
  fr.record(FlightKind::kPeerDeath, 3, /*a=*/1, /*b=*/0, /*sim_s=*/1.25);
  fr.record(FlightKind::kRejoinGrant, 3, /*a=*/2);
  fr.record(FlightKind::kAdmission, 3, /*a=*/12, /*b=*/0, /*sim_s=*/2.5);

  std::ostringstream os;
  fr.write_jsonl(os);
  const std::vector<std::string> lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 3u);
  std::string err;
  for (const std::string& line : lines) {
    EXPECT_TRUE(json::parse(line, nullptr, &err)) << err << "\n" << line;
  }
  EXPECT_NE(lines[0].find("\"kind\":\"death\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"node\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"sim_s\":1.25"), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"rejoin_grant\""), std::string::npos);
  // Unknown sim time is omitted, not emitted as a sentinel.
  EXPECT_EQ(lines[1].find("sim_s"), std::string::npos);
  EXPECT_NE(lines[2].find("\"kind\":\"admission\""), std::string::npos);
}

TEST(FlightRecorder, FdDumpMatchesTheOstreamDump) {
  FlightRecorder fr(8);
  fr.set_enabled(true);
  for (int i = 0; i < 13; ++i) {  // wrap, so both paths see the same tail
    fr.record(FlightKind::kStaleDrop, i % 4, /*a=*/i, /*b=*/i % 3,
              /*sim_s=*/i * 0.5);
  }
  std::ostringstream os;
  fr.write_jsonl(os);

  const std::string path = ::testing::TempDir() + "flight_fd_dump.jsonl";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  fr.dump_to_fd(fd);
  ::close(fd);

  EXPECT_EQ(slurp(path), os.str());
  std::remove(path.c_str());
}

// The acceptance bar shared with the tracer: a disabled recorder on the
// hot path must not touch the heap (or do anything beyond one load).
TEST(FlightRecorder, DisabledRecordMakesZeroAllocations) {
  FlightRecorder fr(8);
  ASSERT_FALSE(fr.enabled());
  const AllocStats before = alloc_stats();
  for (int i = 0; i < 1000; ++i) {
    fr.record(FlightKind::kPeerDeath, i, i, i, 0.5);
  }
  const AllocStats delta = alloc_stats() - before;
  EXPECT_EQ(delta.count, 0u);
  EXPECT_EQ(delta.bytes, 0u);
}

// An enabled record() is allocation-free too: fetch_add + slot write.
TEST(FlightRecorder, EnabledRecordMakesZeroAllocations) {
  FlightRecorder fr(64);
  fr.set_enabled(true);
  fr.record(FlightKind::kEpochBump, -1);  // warm anything lazy
  const AllocStats before = alloc_stats();
  for (int i = 0; i < 1000; ++i) {
    fr.record(FlightKind::kPeerDeath, i, i, i, 0.5);
  }
  const AllocStats delta = alloc_stats() - before;
  EXPECT_EQ(delta.count, 0u);
  EXPECT_EQ(delta.bytes, 0u);
}

// Sink::fatal_dump is the abnormal-termination twin of finish(): it must
// leave BOTH artifacts — the flight JSONL and a final "fatal" metrics
// line — using only async-signal-safe calls.
TEST(Sink, FatalDumpLeavesFlightAndMetricsArtifacts) {
  const std::string flight_path = ::testing::TempDir() + "fatal_flight.jsonl";
  const std::string metrics_path = ::testing::TempDir() + "fatal_metrics.jsonl";
  std::remove(flight_path.c_str());
  std::remove(metrics_path.c_str());

  SinkConfig sc;
  sc.flight_path = flight_path;
  sc.metrics_path = metrics_path;
  Sink sink(sc);
  ASSERT_TRUE(sink.flight().enabled());
  sink.registry().counter("rounds_total").inc(7);
  sink.flight().record(FlightKind::kPeerDeath, 2, /*a=*/1, /*b=*/0,
                       /*sim_s=*/0.75);
  sink.flight().record(FlightKind::kEpochBump, -1, /*a=*/1);
  // Publish the pre-serialized fatal snapshot the handler will write.
  sink.round_completed(/*iter=*/4, /*sim_s=*/0.8);

  sink.fatal_dump(/*sig=*/6);

  const std::string flight = slurp(flight_path);
  const std::vector<std::string> flines = lines_of(flight);
  ASSERT_EQ(flines.size(), 2u);
  std::string err;
  for (const std::string& line : flines) {
    EXPECT_TRUE(json::parse(line, nullptr, &err)) << err << "\n" << line;
  }
  EXPECT_NE(flines[0].find("\"kind\":\"death\""), std::string::npos);
  EXPECT_NE(flines[1].find("\"kind\":\"epoch\""), std::string::npos);

  const std::string metrics = slurp(metrics_path);
  ASSERT_FALSE(metrics.empty());
  const std::vector<std::string> mlines = lines_of(metrics);
  const std::string& fatal_line = mlines.back();
  EXPECT_TRUE(json::parse(fatal_line, nullptr, &err))
      << err << "\n" << fatal_line;
  EXPECT_NE(fatal_line.find("\"kind\":\"fatal\""), std::string::npos);
  EXPECT_NE(fatal_line.find("rounds_total"), std::string::npos);

  std::remove(flight_path.c_str());
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace mdgan::obs
