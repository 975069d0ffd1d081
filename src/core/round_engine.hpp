// Event-driven round engine: the availability-aware state machine that
// used to live inline in the MdGan::train monolith. The engine owns the
// *mechanics* of a distributed round — membership, sequencing, the
// server-side receive loop, swap scheduling, round timing — while the
// GAN protocol itself (what a broadcast, a feedback fold, an async step
// or a swap actually computes) stays behind the RoundDelegate interface
// the trainer implements.
//
// One round moves through a fixed phase sequence:
//
//   kMembership  Transport::begin_iteration, then membership events:
//                scheduled leave/rejoin transitions from the
//                AvailabilitySchedule (a leave with no later rejoin is
//                fail-stop and, in-process, calls Transport::crash, so
//                the transport drops the worker exactly as a real crash
//                would) and transport-level goodbyes (a dropped TCP
//                connection). Each transition is handed to the delegate
//                (on_join / on_leave).
//   kBroadcast   server roles hand the round's participants to the
//                delegate, which generates and sends the batches.
//   kLocal       worker-side work: every participating discriminator
//                whose holder this process hosts (NodeRole::hosts)
//                trains and ships its feedback.
//   kCollect     the server-side receive loop. It consumes the round's
//                (sender, seq)-ordered feedback messages and dispatches
//                by ServerMode policy:
//                  kSync   collect every expected feedback, then hand
//                          the whole batch to fold_sync — the delegate
//                          folds by sender at the barrier, reproducing
//                          the synchronous trainer bit-identically;
//                  kAsync  hand each message to apply_async on arrival
//                          (one optimizer step per feedback, no
//                          barrier), guarded by bounded staleness: a
//                          feedback whose batch is older than
//                          max_staleness applied steps is dropped, not
//                          applied.
//   kSwap        when the swap period divides the round index, the
//                delegate replays the swap schedule over the *present*
//                workers only — absent workers are skipped
//                deterministically, because the availability schedule
//                is SPMD shared knowledge (every role replays the same
//                one).
//   kEndRound    timing is recorded and the delegate observes the
//                completed round (eval hooks, counters).
//
// The engine stops early when nobody is present and nobody is
// scheduled to return, or — on a worker role — when this worker itself
// departs permanently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "dist/fault.hpp"
#include "dist/transport.hpp"
#include "obs/sink.hpp"

namespace mdgan::core {

// Which node(s) of the protocol an engine (and its trainer) embodies.
struct NodeRole {
  enum class Kind {
    kInProcess,  // every node, in one process (simulation; the default)
    kServer,     // node 0 only: generate, send, fold feedbacks, update G
    kWorker,     // one worker: receive batches, train D, ship feedback
  };
  Kind kind = Kind::kInProcess;
  int worker_id = 0;  // 1-based; meaningful for kWorker only

  static NodeRole in_process() { return {}; }
  static NodeRole server() { return {Kind::kServer, 0}; }
  static NodeRole worker(int id) { return {Kind::kWorker, id}; }

  bool runs_server() const { return kind != Kind::kWorker; }
  // Does this process embody worker `w` (1-based)? Every worker
  // in-process, its own id on kWorker, none on kServer.
  bool hosts(int w) const {
    return kind == Kind::kInProcess ||
           (kind == Kind::kWorker && w == worker_id);
  }
};

// Server policy for the collect phase (§VII-1 of the paper).
enum class ServerMode {
  kSync,   // barrier: fold every feedback of the round into one step
  kAsync,  // one optimizer step per feedback, on arrival
};

// "sync" / "async" (CLI surface); throws std::invalid_argument else.
ServerMode server_mode_from_name(const std::string& name);
const char* server_mode_name(ServerMode mode);

// The protocol the engine drives. All methods are called from the
// engine's run loop, in phase order; `iter` is the 1-based global
// iteration (round) number.
class RoundDelegate {
 public:
  virtual ~RoundDelegate() = default;

  // Membership transitions, fired before the round's participants are
  // computed. `permanent` means the worker never returns (fail-stop or
  // a scheduled leave with no rejoin): its hosted state is lost.
  virtual void on_leave(int worker, bool permanent, std::int64_t iter) = 0;
  virtual void on_join(int worker, std::int64_t iter) = 0;

  // State-transfer re-admission: a worker whose hosted state died (a
  // real fail-stop that came back through the rejoin handshake, or a
  // scheduled crash-rejoin) is re-admitted at `iter`. The delegate
  // rebirths the worker's discriminator deterministically from
  // (worker, iter) — shared knowledge, so every role derives the same
  // parameters.
  virtual void on_readmit(int worker, std::int64_t iter) = 0;
  // Server roles only: the opaque `!state` payload shipped to a
  // re-admitted worker (see core/rejoin.hpp). Called after on_readmit,
  // so the serialized holder map already reflects the re-admission.
  virtual ByteBuffer make_rejoin_state(int worker, std::int64_t iter) = 0;

  // The round's participants: indices of the discriminators hosted by
  // the given present workers, in a deterministic order.
  virtual std::vector<std::size_t> participants(
      const std::vector<int>& present_workers) = 0;

  // kBroadcast (server roles only): generate and send this round's
  // batches to the participants.
  virtual void broadcast(const std::vector<std::size_t>& discs,
                         std::size_t k_eff) = 0;
  // kLocal: run the worker-side iteration for every participant this
  // process embodies.
  virtual void local_work(const std::vector<std::size_t>& discs) = 0;

  // kCollect: the worker expected to send each participant's feedback,
  // aligned with `discs` (entry j is the holder of discs[j]). The
  // engine re-checks these senders' liveness whenever a blocking
  // receive wakes up empty, so an unscheduled mid-round death shrinks
  // the round instead of wedging it.
  virtual std::vector<int> feedback_senders(
      const std::vector<std::size_t>& discs) = 0;

  // kCollect, ServerMode::kSync: every feedback of the round, in the
  // (sender, seq) order the receive loop popped them. A mid-round death
  // can shrink the batch below the participant count.
  virtual void fold_sync(std::vector<dist::Message>&& feedbacks,
                         std::size_t k_eff) = 0;
  // kCollect, ServerMode::kAsync: one message on arrival. `staleness`
  // is the number of optimizer steps applied since the message's batch
  // was generated (0 for the first feedback of a round).
  virtual void apply_async(dist::Message&& feedback, std::size_t staleness,
                           std::size_t k_eff) = 0;

  // kSwap: replay the swap schedule over the present workers.
  virtual void swap(std::int64_t iter,
                    const std::vector<int>& present_workers) = 0;

  // kEndRound: the round completed; `round_seconds` is its simulated
  // (or measured) critical-path duration.
  virtual void end_round(std::int64_t iter, double round_seconds) = 0;
};

struct RoundEngineConfig {
  NodeRole role{};
  ServerMode mode = ServerMode::kSync;
  // Effective k is min(k, participants) each round.
  std::size_t k = 1;
  bool swap_enabled = true;
  std::int64_t swap_period = 1;
  // Async bounded-staleness guard: drop (do not apply) a feedback whose
  // staleness exceeds this many applied steps. SIZE_MAX disables the
  // guard — every feedback is applied, the pre-engine §VII-1 behavior.
  std::size_t max_staleness = static_cast<std::size_t>(-1);
  // Optional telemetry sink (not owned, may outlive-the-run null = off):
  // the engine emits one kRound span per round plus one kPhase span per
  // phase, observes round_duration_seconds, the wall seconds of each
  // phase as phase_duration_seconds{phase=...} and feedback_staleness,
  // counts rounds_total / feedback_stale_dropped_total, and calls
  // Sink::round_completed after every completed round. It also installs
  // the transport's sim_time as the tracer's virtual-clock source (the
  // transport must outlive span recording). Null: every instrumented
  // path is a branch, no allocation.
  obs::Sink* sink = nullptr;
};

class RoundEngine {
 public:
  // `availability` may be null (everyone present until the transport
  // says otherwise). The schedule must outlive the engine.
  RoundEngine(dist::Transport& net, RoundEngineConfig cfg,
              RoundDelegate& delegate,
              const dist::AvailabilitySchedule* availability = nullptr);

  // Drives rounds first_iter .. first_iter + rounds - 1. Returns the
  // index of the last *completed* round (first_iter - 1 if it stopped
  // immediately).
  std::int64_t run(std::int64_t first_iter, std::int64_t rounds);

  // Membership view after the last processed round.
  bool is_present(int worker) const;
  std::vector<int> present_workers() const;
  std::size_t present_count() const;

  // Async feedbacks dropped by the bounded-staleness guard.
  std::int64_t stale_dropped() const { return stale_dropped_; }

 private:
  // Applies the iteration's scheduled and transport-observed membership
  // transitions. Returns false when this engine's own worker departed
  // permanently (worker roles stop there) or lost its state to a
  // scheduled crash-rejoin (its incarnation is over; the re-admission
  // happens through a fresh process + state transfer).
  bool process_membership(std::int64_t iter);
  // Drains the transport's rejoin grants (server roles, admitting at
  // iter + 1 and announcing that round) / admission broadcasts (worker
  // roles, at the server's announced round) into pending_readmit_.
  void harvest_readmissions(std::int64_t iter);
  // Server roles: stages every drained rejoin grant for admission at
  // iter + 1 and announces that round. Skips `owned` (a worker whose
  // grant this boundary's scheduled readmit absorbs) and grants that a
  // scheduled crash-rejoin covers.
  void drain_rejoin_grants(std::int64_t iter, int owned = 0);
  // Stages `w` for re-admission at round `admit_at`. If w was never
  // marked lost — its death and restart both fell inside one round
  // window, so no boundary observed it dead — the grant itself is the
  // proof of the lost incarnation: the permanent leave is replayed
  // here (on_leave + lost_) before the entry is staged.
  void stage_readmission(int w, std::int64_t admit_at, std::int64_t iter);
  // Re-admits `w` seeded from admission round `iter`: flips membership,
  // fires on_readmit, and — on server roles — ships the state-transfer
  // payload.
  void readmit(int w, std::int64_t iter);
  // Anyone scheduled present at some iteration > iter (and not already
  // transport-dead)?
  bool anyone_returns_after(std::int64_t iter) const;

  // Pops the next feedback while `waiting` (one entry per expected
  // message, the sender's id) is non-empty, degrading the round under
  // it: a waiting sender the transport lost is first drained — its
  // feedback may have been enqueued before its connection died — and
  // otherwise pruned (present_ drops it, on_leave(permanent) fires).
  // nullopt when pruning emptied `waiting`; throws std::logic_error
  // only when nothing arrived, membership stayed quiet, and every
  // waiting sender is still alive (the legacy lost-message failure).
  std::optional<dist::Message> collect_one(std::vector<int>& waiting,
                                           std::int64_t iter);
  void collect_sync(std::vector<int> waiting, std::size_t k_eff,
                    std::int64_t iter);
  void collect_async(std::vector<int> waiting, std::size_t k_eff,
                     std::int64_t iter);

  // The sink's tracer when span recording is on, else nullptr.
  obs::Tracer* trace() const {
    if (cfg_.sink == nullptr) return nullptr;
    obs::Tracer& t = cfg_.sink->tracer();
    return t.enabled() ? &t : nullptr;
  }
  // The node id this engine's phase spans belong to.
  int span_node() const {
    return cfg_.role.kind == NodeRole::Kind::kWorker ? cfg_.role.worker_id
                                                     : dist::kServerId;
  }

  dist::Transport& net_;
  RoundEngineConfig cfg_;
  RoundDelegate& delegate_;
  const dist::AvailabilitySchedule* availability_;
  std::vector<bool> present_;  // index 0 = server (always true)
  // Workers that left PERMANENTLY (fail-stop or a scheduled leave with
  // no rejoin): their shard and hosted discriminator are gone, so a
  // transport-level revival (a rejoin-granted connection from the same
  // id) must not re-admit them to the protocol.
  std::vector<bool> lost_;
  // State-transfer re-admissions waiting for their round: worker ->
  // agreed admission round. Server roles enqueue here when the
  // transport surfaces a rejoin grant (admission at the next boundary,
  // announced via `!admit` before the current round's data frames);
  // worker roles when the `!admit` broadcast arrives. The stored round
  // also seeds the discriminator rebirth, so it must be the SAME value
  // on every role even when a role applies the admission late.
  std::map<int, std::int64_t> pending_readmit_;
  std::int64_t stale_dropped_ = 0;

  // Cached instruments (see metrics.hpp hot-path contract); null when
  // cfg_.sink is null.
  obs::Counter* rounds_total_ = nullptr;
  obs::Counter* stale_dropped_total_ = nullptr;
  obs::Histogram* round_duration_s_ = nullptr;
  obs::Histogram* feedback_staleness_ = nullptr;
  // phase_duration_seconds{phase=...}: the wall seconds of each phase,
  // observed next to its phase:* span.
  obs::Histogram* membership_s_ = nullptr;
  obs::Histogram* broadcast_s_ = nullptr;
  obs::Histogram* local_s_ = nullptr;
  obs::Histogram* collect_s_ = nullptr;
  obs::Histogram* swap_s_ = nullptr;
  // Flight recorder (null when disabled): lifecycle events the engine
  // owns — admissions applied and stale-feedback drops.
  obs::FlightRecorder* flight_ = nullptr;
};

}  // namespace mdgan::core
