#include "dist/link_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace mdgan::dist {

namespace {

// splitmix64 finalizer (Steele et al.), the same mixer the Rng seeds
// through; gives a well-distributed 64-bit hash of an arbitrary key.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Deterministic uniform in [0, 1) from (seed, from, to, link_seq).
double unit_hash(std::uint64_t seed, int from, int to,
                 std::uint64_t link_seq) {
  std::uint64_t h = mix64(seed ^ 0x6a09e667f3bcc908ull);
  h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
                 << 32 |
                 static_cast<std::uint32_t>(to)));
  h = mix64(h ^ link_seq);
  // 53 mantissa bits -> [0, 1) with full double precision.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

LinkModel& LinkModel::slow_node(int node, double bandwidth_divisor) {
  if (!(bandwidth_divisor > 0.0)) {
    throw std::invalid_argument("LinkModel::slow_node: divisor must be > 0");
  }
  node_bw_divisor_[node] = bandwidth_divisor;
  return *this;
}

LinkParams LinkModel::params(int from, int to) const {
  LinkParams p = default_;
  double divisor = 1.0;
  auto df = node_bw_divisor_.find(from);
  if (df != node_bw_divisor_.end()) divisor = std::max(divisor, df->second);
  auto dt = node_bw_divisor_.find(to);
  if (dt != node_bw_divisor_.end()) divisor = std::max(divisor, dt->second);
  if (divisor != 1.0 && p.bytes_per_s > 0.0) p.bytes_per_s /= divisor;
  return p;
}

LinkDelay LinkModel::delay(int from, int to, std::size_t bytes,
                           std::uint64_t link_seq) const {
  const LinkParams p = params(from, to);
  LinkDelay d;
  if (p.bytes_per_s > 0.0) {
    d.transmit_s = static_cast<double>(bytes) / p.bytes_per_s;
  }
  d.propagation_s = p.latency_s;
  if (p.jitter_s > 0.0) {
    d.propagation_s += p.jitter_s * unit_hash(seed_, from, to, link_seq);
  }
  return d;
}

}  // namespace mdgan::dist
