// Simulated-time link models for dist::SimNetwork (the ROADMAP "link
// models" item). The transport so far accounted *bytes*; the paper's
// headline claims are about *time* — time-to-FID of MD-GAN versus
// FL-GAN — so every directed link (from, to) now carries parameters
//
//   latency_s     one-way propagation delay, seconds
//   bytes_per_s   bandwidth; 0 means infinite (no serialization delay)
//   jitter_s      extra per-message delay, uniform in [0, jitter_s)
//
// and a message of `bytes` bytes handed to the link at simulated time t
// arrives at
//
//   start   = max(t, link_free)            (store-and-forward queueing:
//   arrival = start + bytes/bytes_per_s     a link transmits one message
//           + latency_s + jitter            at a time, so back-to-back
//                                           sends on one link serialize)
//
// The SimNetwork owns the dynamic state (per-node clocks, per-link
// busy-until); LinkModel itself is a pure parameter table, so one model
// can be shared across experiment configurations.
//
// Jitter is NOT drawn from a shared mutable RNG: it is a pure hash of
// (seed, from, to, per-link message index), so simulated timestamps are
// bit-identical run-to-run regardless of thread scheduling — the same
// determinism contract the rest of the cluster keeps. Sends on one link
// come from a single logical sender in every protocol here, so the
// per-link message index is itself deterministic.
//
// The default-constructed model is the *zero model*: every parameter 0,
// every transfer instantaneous. SimNetwork defaults to it, which keeps all
// pre-existing byte/message accounting and training trajectories
// byte-for-byte identical to the clock-less behavior.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

namespace mdgan::dist {

struct LinkParams {
  double latency_s = 0.0;
  double bytes_per_s = 0.0;  // 0 = infinite bandwidth
  double jitter_s = 0.0;

  bool zero() const {
    return latency_s == 0.0 && bytes_per_s == 0.0 && jitter_s == 0.0;
  }
};

// Split of a transfer's cost: `transmit_s` occupies the link (queues
// successive messages), `propagation_s` is pipelined (latency + jitter).
struct LinkDelay {
  double transmit_s = 0.0;
  double propagation_s = 0.0;
  double total() const { return transmit_s + propagation_s; }
};

class LinkModel {
 public:
  LinkModel() = default;  // zero model: every link free and instant
  explicit LinkModel(const LinkParams& all_links, std::uint64_t seed = 0)
      : default_(all_links), seed_(seed) {}

  // Straggler knob: divides the bandwidth of every link touching `node`
  // by `divisor` (> 0). When both endpoints of a link are slowed, the
  // larger divisor (slower endpoint) governs, like a point-to-point
  // link capped by its slower NIC. Latency and jitter are unaffected.
  LinkModel& slow_node(int node, double bandwidth_divisor);

  // Effective parameters of (from, to): the default, with node
  // bandwidth divisors applied.
  LinkParams params(int from, int to) const;

  // True when every link is zero-cost; SimNetwork skips all clock
  // arithmetic for a zero model. Node divisors only scale bandwidth, so
  // they cannot make a zero model nonzero.
  bool zero() const { return default_.zero(); }

  // Pure function of (params, bytes, link_seq): the cost of the
  // link_seq-th message ever sent on (from, to).
  LinkDelay delay(int from, int to, std::size_t bytes,
                  std::uint64_t link_seq) const;

  std::uint64_t seed() const { return seed_; }

 private:
  LinkParams default_;
  std::map<int, double> node_bw_divisor_;
  std::uint64_t seed_ = 0;
};

// Human-readable helpers for benches: megabits/s on the wire <-> the
// bytes/s the model wants, and milliseconds <-> seconds.
inline double mbps_to_bytes_per_s(double mbps) { return mbps * 1e6 / 8.0; }
inline double ms_to_s(double ms) { return ms * 1e-3; }

}  // namespace mdgan::dist
