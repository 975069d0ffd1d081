// Worker availability over the course of a run. An AvailabilitySchedule
// maps global iteration numbers to membership transitions: a worker can
// leave at one iteration boundary and rejoin at a later one (the
// temporary/elastic discriminators of Qu et al., 2020), or leave and
// never return — which is exactly a fail-stop crash (paper §V,
// Figure 5); evenly_spaced_crashes builds that figure's schedule.
//
// The schedule is *deterministic shared knowledge*: every node of a
// role-split run constructs the identical schedule from its flags and
// replays it SPMD-style, exactly like the swap schedule. That is what
// lets the swap-schedule replay skip absent workers consistently across
// processes — scheduled absences are visible to every replayer, unlike
// an unscheduled connection drop, which only the server endpoint
// observes.
//
// Semantics of a transition at iteration i: it takes effect at the
// *start* of i (the engine queries the schedule right after
// Transport::begin_iteration). A worker absent during [a, b) misses
// iterations a..b-1 and participates again from b. A leave with no
// later rejoin is permanent: the worker's shard is lost and any
// discriminator it hosts dies with it; a temporary leave keeps both —
// the discriminator lies dormant on the absent worker and resumes on
// rejoin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

namespace mdgan::dist {

class AvailabilitySchedule {
 public:
  // The Figure 5 schedule: one fail-stop crash every
  // total_iters / n_workers iterations (period clamped to >= 1),
  // workers dying in id order at iterations period, 2*period, ... When
  // n_workers divides total_iters the last crash lands exactly on the
  // final iteration; otherwise the tail crashes are scheduled past
  // iteration total_iters and a run of exactly that length leaves those
  // workers alive.
  static AvailabilitySchedule evenly_spaced_crashes(std::int64_t total_iters,
                                                    std::size_t n_workers);

  // Worker `worker` (1-based) is absent from the start of iteration
  // `iter` on (until a later rejoin, if any).
  void add_leave(std::int64_t iter, int worker);
  // Worker `worker` participates again from the start of `iter`.
  void add_rejoin(std::int64_t iter, int worker);
  // Convenience: absent during [from, until). until <= 0 means the
  // worker never returns (fail-stop).
  void add_absence(int worker, std::int64_t from, std::int64_t until = 0);
  // The worker CRASHES at the start of `from` — its shard and any
  // discriminator it hosts are lost, unlike a dormant add_absence — and
  // returns at the start of `until` as a state-transfer late joiner:
  // the server re-admits it with the current generator θ and a fresh
  // discriminator seeded deterministically from (worker, until). This
  // is the scheduled twin of an unscheduled kill-and-rejoin, which is
  // what lets a sim run pin a real TCP restart bit-for-bit. `until`
  // must be > `from`.
  void add_crash_rejoin(int worker, std::int64_t from, std::int64_t until);

  // Is the worker scheduled present at iteration `iter`? (Workers start
  // present; iter < 1 is the initial state.)
  bool present(int worker, std::int64_t iter) const;
  // Is the worker scheduled present at any iteration > `iter`? False
  // for a permanently-departed worker — the fail-stop test.
  bool returns_after(int worker, std::int64_t iter) const;

  // Does worker's scheduled leave at `iter` lose its state (a
  // crash-rejoin departure)? Only true exactly at the leave iteration.
  bool loses_state_at(int worker, std::int64_t iter) const;
  // Does worker's scheduled return at `iter` carry a state transfer
  // (the `until` boundary of an add_crash_rejoin)? The engine then
  // re-admits (fresh discriminator, `!state` shipping) instead of
  // waking a dormant one.
  bool state_rejoin_at(int worker, std::int64_t iter) const;
  // Is `iter` inside one of worker's scheduled crash-rejoin absences
  // [from, until]? `until` itself counts — that is the admission
  // boundary. The engine uses this to classify a transport-level rejoin
  // grant as already owned by the schedule (the scheduled readmit
  // absorbs it) versus an unscheduled restart it must admit itself.
  bool within_crash_rejoin(int worker, std::int64_t iter) const;

 private:
  // Per worker: iteration -> present from that iteration on. Absent
  // keys inherit the previous state; before the first key a worker is
  // present.
  std::map<int, std::map<std::int64_t, bool>> transitions_;
  // Per worker: crash-rejoin intervals, from -> until. Presence-wise
  // these are ordinary absences (mirrored in transitions_); this map
  // marks which boundaries lose / re-transfer state.
  std::map<int, std::map<std::int64_t, std::int64_t>> crash_rejoins_;
};

}  // namespace mdgan::dist
