#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace mdgan::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: need at least one bucket bound");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i])) {
      throw std::invalid_argument(
          "Histogram: bounds must be strictly increasing");
    }
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) {
  // First bound with v <= bound; everything larger overflows.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Relaxed CAS loop: atomic<double> has no fetch_add until C++20.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

Counter& Registry::counter(const std::string& name,
                           const std::string& label) {
  const std::string key = key_of(name, label);
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[key];
  if (e.gauge || e.histogram) {
    throw std::invalid_argument("Registry: '" + key +
                                "' already registered as another kind");
  }
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& label) {
  const std::string key = key_of(name, label);
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[key];
  if (e.counter || e.histogram) {
    throw std::invalid_argument("Registry: '" + key +
                                "' already registered as another kind");
  }
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> upper_bounds,
                               const std::string& label) {
  const std::string key = key_of(name, label);
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[key];
  if (e.counter || e.gauge) {
    throw std::invalid_argument("Registry: '" + key +
                                "' already registered as another kind");
  }
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return *e.histogram;
}

std::uint64_t Registry::counter_value(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  return it != entries_.end() && it->second.counter
             ? it->second.counter->value()
             : 0;
}

double Registry::gauge_value(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  return it != entries_.end() && it->second.gauge
             ? it->second.gauge->value()
             : 0.0;
}

bool Registry::has(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key) != 0;
}

namespace {

void write_json_double(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  os << buf;
}

}  // namespace

void Registry::write_snapshot_json(std::ostream& os, const char* kind,
                                   std::int64_t round, double wall_s,
                                   double sim_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"kind\":\"" << kind << "\",\"round\":" << round
     << ",\"wall_s\":";
  write_json_double(os, wall_s);
  os << ",\"sim_s\":";
  write_json_double(os, sim_s);

  bool first = true;
  os << ",\"counters\":{";
  for (const auto& [key, e] : entries_) {
    if (!e.counter) continue;
    if (!first) os << ',';
    first = false;
    os << json::quote(key) << ':' << e.counter->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [key, e] : entries_) {
    if (!e.gauge) continue;
    if (!first) os << ',';
    first = false;
    os << json::quote(key) << ':';
    write_json_double(os, e.gauge->value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [key, e] : entries_) {
    if (!e.histogram) continue;
    if (!first) os << ',';
    first = false;
    os << json::quote(key) << ":{\"le\":[";
    const auto& bounds = e.histogram->upper_bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (i) os << ',';
      write_json_double(os, bounds[i]);
    }
    os << "],\"counts\":[";
    const auto counts = e.histogram->counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i) os << ',';
      os << counts[i];
    }
    os << "],\"sum\":";
    write_json_double(os, e.histogram->sum());
    os << ",\"count\":" << e.histogram->count() << '}';
  }
  os << "}}";
}

}  // namespace mdgan::obs
