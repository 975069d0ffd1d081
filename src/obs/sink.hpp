// The sink bundles the two telemetry pillars — a span Tracer and a
// metrics Registry — behind one handle the engine, trainers, transports
// and benches share. Wiring is a plain pointer: components that take an
// obs::Sink* treat nullptr as "telemetry off" and their instrumented
// paths collapse to a branch (zero steady-state heap allocations,
// pinned by tests/obs/).
//
// Lifecycle: construct with a SinkConfig naming the output files (empty
// paths disable that pillar's export; the tracer and the flight recorder
// record in memory only when their path asks for it, or when a caller
// switches them on with tracer().set_enabled / flight().set_enabled). The
// engine calls round_completed(iter, sim_s) after every completed
// round, which appends a JSONL metrics snapshot every
// `metrics_interval` rounds. finish() — idempotent, also run by the
// destructor — appends the final summary line and writes the Chrome
// trace file.
//
// A process-global sink (install_global_sink) serves the two
// instrumentation points with no wiring path to a config struct: GEMM
// dispatch and thread-pool fan-out. Both emit kCompute spans, which
// stay off unless SinkConfig.compute_spans opted in.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mdgan::obs {

struct SinkConfig {
  // Chrome trace-event JSON output path; empty = tracing off.
  std::string trace_path;
  // Metrics JSONL output path; empty = no metrics stream (the registry
  // still counts, callers may read it directly).
  std::string metrics_path;
  // Append a metrics snapshot line every N completed rounds; 0 = only
  // the final summary line.
  std::int64_t metrics_interval = 1;
  // Record kCompute spans (GEMM, pool dispatch). High-frequency;
  // off by default so protocol traces stay readable.
  bool compute_spans = false;
  // Flight-recorder JSONL output path; empty = recorder off. Written on
  // finish() and — async-signal-safely — by fatal_dump(), so a dying
  // node still leaves its lifecycle post-mortem.
  std::string flight_path;
};

class Sink {
 public:
  explicit Sink(SinkConfig cfg = {});
  ~Sink();

  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  Tracer& tracer() { return tracer_; }
  Registry& registry() { return registry_; }
  FlightRecorder& flight() { return flight_; }

  // Engine hook: one completed round. Appends a snapshot line to the
  // metrics stream when the interval divides `iter`, refreshes the
  // pre-serialized fatal snapshot, and folds the tracer's drop count
  // into spans_dropped_total.
  void round_completed(std::int64_t iter, double sim_s);

  // Live engine state for the !stats introspection frame: the engine
  // publishes the round and phase it is in; any thread may read them.
  // `phase` MUST be a string literal (or otherwise immortal) — only the
  // pointer is stored.
  void set_live(std::int64_t round, const char* phase) {
    live_round_.store(round, std::memory_order_relaxed);
    live_phase_.store(phase, std::memory_order_relaxed);
  }
  std::int64_t live_round() const {
    return live_round_.load(std::memory_order_relaxed);
  }
  const char* live_phase() const {
    const char* p = live_phase_.load(std::memory_order_relaxed);
    return p != nullptr ? p : "idle";
  }

  // Final metrics line + trace file + flight-recorder JSONL.
  // Idempotent; run by ~Sink too.
  void finish();

  // The abnormal-termination twin of finish(): async-signal-safe —
  // open(2)/write(2) only. Dumps the flight ring to flight_path and
  // appends the pre-serialized "fatal" metrics snapshot to
  // metrics_path, so a SIGSEGV/abort still leaves both artifacts.
  // Called by the install_fatal_handlers() handler; safe to call from
  // normal code too (tests do).
  void fatal_dump(int sig);

 private:
  // The pre-serialized fatal metrics line is double-buffered: the
  // writer (round_completed) fills the slot the reader is NOT published
  // on, then flips — the signal handler always sees a complete line.
  static constexpr std::size_t kFatalBufBytes = 16384;

  void write_metrics_line(const char* kind, std::int64_t round,
                          double sim_s);
  void refresh_fatal_snapshot(std::int64_t round, double sim_s);
  void flush_span_drops();

  SinkConfig cfg_;
  Tracer tracer_;
  Registry registry_;
  FlightRecorder flight_;
  Counter* spans_dropped_total_ = nullptr;
  std::uint64_t spans_dropped_flushed_ = 0;
  std::mutex mu_;  // serializes the metrics stream and finish()
  std::ofstream metrics_out_;
  bool metrics_open_failed_ = false;
  std::int64_t last_round_ = 0;
  double last_sim_s_ = 0.0;
  bool finished_ = false;
  std::atomic<std::int64_t> live_round_{-1};
  std::atomic<const char*> live_phase_{nullptr};
  char fatal_buf_[2][kFatalBufBytes];
  std::size_t fatal_len_[2] = {0, 0};
  std::atomic<int> fatal_pub_{-1};  // published slot; -1 = none yet
};

// Process-global sink for instrumentation with no wiring path (GEMM,
// thread pool). Not owned; the installer must outlive use or uninstall
// (install nullptr) first. Returns the previous sink.
Sink* install_global_sink(Sink* sink);
Sink* global_sink();
// The global sink's tracer, or nullptr — the one-load hot-path gate.
Tracer* global_tracer();

// Installs handlers for the fatal signals (SIGSEGV, SIGBUS, SIGFPE,
// SIGILL, SIGABRT) that call global_sink()->fatal_dump(sig), restore
// the default disposition and re-raise — the process still dies with
// the original signal, but leaves its flight-recorder and final metrics
// artifacts behind. Idempotent; a nullptr global sink makes the handler
// a plain re-raise.
void install_fatal_handlers();

}  // namespace mdgan::obs
