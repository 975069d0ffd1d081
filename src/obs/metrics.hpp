// Metrics half of the telemetry layer (obs/): a process-local registry
// of named counters, gauges and fixed-bucket histograms, cheap enough to
// charge from transport and engine hot paths.
//
// Hot-path contract: call sites resolve a Counter*/Gauge*/Histogram*
// ONCE (registry lookups take a mutex and may allocate) and then update
// through the pointer — an update is one or two relaxed atomic RMWs, no
// locks, no allocation. Registered instruments are never deleted or
// moved while the registry lives, so cached pointers stay valid.
//
// Naming follows the Prometheus convention the benches and tests parse:
// a bare name ("rounds_total") or a name with one label
// ("feedback_bytes_total{link=w2c}"). The full key is what snapshots
// emit as the JSON object key.
//
// Snapshots are JSON: write_snapshot_json emits one single-line object
// holding every instrument's current value — the obs::Sink appends one
// such line per interval to a .jsonl stream and a final line at finish.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mdgan::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Fixed upper-bound buckets with "less than or equal" semantics: an
// observation v lands in the first bucket whose bound satisfies
// v <= bound; anything above the last bound lands in the implicit
// overflow (+inf) bucket. Sum and count ride along so snapshots can
// report a mean without reconstructing it from buckets.
class Histogram {
 public:
  // `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  const std::vector<double>& upper_bounds() const { return bounds_; }
  // counts()[i] pairs with upper_bounds()[i]; the final extra entry is
  // the overflow bucket.
  std::vector<std::uint64_t> counts() const;
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds + inf
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class Registry {
 public:
  // Get-or-create by (name, optional label). Repeated calls with the
  // same key return the same instrument; a histogram's bounds are fixed
  // by the first call (later bounds are ignored). Throws
  // std::invalid_argument when a key is reused across instrument kinds.
  Counter& counter(const std::string& name, const std::string& label = "");
  Gauge& gauge(const std::string& name, const std::string& label = "");
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds,
                       const std::string& label = "");

  // Read-side helpers for tests and benches; 0 / NaN-free defaults when
  // the instrument does not exist.
  std::uint64_t counter_value(const std::string& key) const;
  double gauge_value(const std::string& key) const;
  bool has(const std::string& key) const;

  // One single-line JSON object with every instrument:
  //   {"kind":"snapshot","round":R,"wall_s":W,"sim_s":S,
  //    "counters":{...},"gauges":{...},"histograms":{...}}
  // `kind` is the caller's framing ("snapshot" or "final"). Keys come
  // out in sorted order, so two identical states serialize identically.
  void write_snapshot_json(std::ostream& os, const char* kind,
                           std::int64_t round, double wall_s,
                           double sim_s) const;

  static std::string key_of(const std::string& name,
                            const std::string& label) {
    return label.empty() ? name : name + "{" + label + "}";
  }

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // sorted => deterministic JSON
};

}  // namespace mdgan::obs
