// Turns a traced run into per-layer metrics: the engine's phase and
// local_step spans (read back from each endpoint's tracer) give the core
// layer, the TimedTransport records give the dist layer, and the two are
// joined on the benchmark clock.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster.hpp"
#include "timed_transport.hpp"

namespace e2e {

// [start, end] on the benchmark clock.
using Window = std::pair<double, double>;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// One tracer span on the benchmark clock.
struct SpanRec {
  std::string name;
  int node;
  std::int64_t iter;
  double t0, t1;
};

// Every span the cluster's tracers hold, mapped onto the benchmark clock.
std::vector<SpanRec> collect_spans(Cluster& cluster);

// Median and 95th percentile (linear interpolation); NaN when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// Server phase medians over `rounds` (a round without the phase counts
// 0), in engine order: membership, broadcast, local, collect, swap.
struct PhaseMedians {
  std::vector<std::pair<std::string, double>> phases;
  double sum() const;
};

struct CoreInput {
  int workers;
  std::int64_t swap_period;
  const std::vector<SpanRec>& spans;
  const std::vector<Recorder::Recv>& recvs;
  // windows[i] is round i, as timed by the server's hook.
  const std::vector<Window>& windows;
  // Fully traced rounds to attribute (block edges already removed).
  const std::vector<std::int64_t>& rounds;
};

// core.* metrics (see README.md for each definition).
std::vector<Metric> core_metrics(const CoreInput& in, PhaseMedians* phases);

// dist.send_s.<tag> and dist.wire_s.<tag> for the three protocol tags.
std::vector<Metric> dist_timing_metrics(
    const std::vector<Recorder::Send>& sends,
    const std::vector<Recorder::Recv>& recvs);

}  // namespace e2e
