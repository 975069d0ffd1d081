// Partition-tolerant failure detection: the suspect → grace-window →
// dead state machine that separates "silent" from "gone".
//
// The crash control plane (PR 7) maps a dropped connection to fail-stop
// immediately — correct for a died process, but a network partition
// looks exactly the same, so a stalled link permanently evicts a
// healthy worker. The tracker adds the middle state MD-GAN's fleet
// premise needs: a worker that has been silent longer than
// `suspect_after_s` is *suspected* (the engine degrades as it already
// does on slow feedback, nothing is evicted), and only when the silence
// outlives the additional `grace_s` window does suspicion harden into
// death and the normal eviction path run. Any frame from the peer —
// heartbeat pong or data — clears suspicion and re-seats it under the
// same id, with no membership epoch change and no death/rejoin cycle.
//
// The tracker itself is pure and time-fed: the caller supplies `now`
// (TcpNetwork feeds its wall clock from its event-loop timer, tests feed
// synthetic time), and the caller owns all locking. That keeps the
// state machine unit-testable without sockets and lets SimNetwork
// replay identical transitions deterministically from its virtual
// clock (SimNetwork::partition).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mdgan::dist {

struct LivenessConfig {
  // Server → worker `!ping` cadence; 0 disables heartbeats (and with
  // them suspicion — silence is then only judged by connection drops,
  // the pre-liveness behavior).
  double heartbeat_interval_s = 0.0;
  // Silence before a tracked peer becomes suspect.
  double suspect_after_s = 2.0;
  // Additional silence (past suspect_after_s) before a suspect is
  // declared dead and evicted.
  double grace_s = 8.0;

  bool enabled() const { return heartbeat_interval_s > 0.0; }
  // Total silence that turns into an eviction.
  double dead_after_s() const { return suspect_after_s + grace_s; }
};

enum class PeerState { kUntracked, kAlive, kSuspect, kDead };

class LivenessTracker {
 public:
  LivenessTracker(std::size_t n_workers, LivenessConfig cfg);

  // A frame arrived from `worker` at time `now_s`. Clears suspicion.
  // Returns true when the peer was suspect (i.e. this frame re-seated
  // it inside the grace window) so the caller can log the recovery.
  bool heard_from(int worker, double now_s);

  struct Transition {
    int worker = 0;
    PeerState to = PeerState::kAlive;
  };
  // Advances the state machine to `now_s` and returns the transitions
  // that fired (alive → suspect, suspect → dead), ascending by worker.
  // The caller acts on kDead transitions (eviction) — the tracker only
  // decides, it never evicts.
  std::vector<Transition> advance(double now_s);

  // Starts (or restarts, on a rejoin grant) tracking a peer as alive.
  void track(int worker, double now_s);
  // Externally evicted (connection dropped, explicit crash): stop
  // judging it. A later track() revives it.
  void mark_dead(int worker);

  PeerState state(int worker) const;
  // Episodes of suspicion so far (each alive → suspect transition
  // counts once; a peer suspected, re-seated and suspected again
  // counts twice). Feeds the suspects_total metric.
  std::uint64_t suspect_episodes() const { return suspect_episodes_; }

  const LivenessConfig& config() const { return cfg_; }

 private:
  struct Peer {
    PeerState state = PeerState::kUntracked;
    double last_heard_s = 0.0;
  };
  bool valid(int worker) const {
    return worker >= 1 && static_cast<std::size_t>(worker) <= peers_.size();
  }

  LivenessConfig cfg_;
  std::vector<Peer> peers_;  // index = worker id - 1
  std::uint64_t suspect_episodes_ = 0;
};

}  // namespace mdgan::dist
