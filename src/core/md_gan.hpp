// MD-GAN (Algorithm 1 of the paper): a single generator on the central
// server trained against distributed discriminators.
//
// One global iteration:
//  1. server generates k batches X(1..k) from G and sends every
//     participating worker two distinct batches (SPLIT rule, §IV-B1);
//  2. each worker runs L discriminator learning steps on (X_d, X_r);
//  3. each worker computes the error feedback F_n = dJ_gen/dx on X_g
//     and ships it to the server (b*d floats — independent of |θ|);
//  4. the server folds all feedbacks into ∆w by backpropagating through
//     G and applies Adam (§IV-B2). In sync mode each batch is
//     backpropagated through the activations step 1 parked for it, so G
//     runs forward once per generated batch.
// Every E local epochs the discriminators move peer-to-peer along a
// random derangement (§IV-C1); disabling that exchange is the no-swap
// ablation of Figure 4.
//
// The round mechanics — membership, sequencing, the server-side receive
// loop, swap scheduling, timing — live in core::RoundEngine
// (round_engine.hpp); MdGan implements the engine's RoundDelegate with
// the GAN math and drives it from train(). The engine's ServerMode
// policy selects between the paper's evaluated configuration and the
// §VII-1 variant:
//  * ServerMode::kSync (cfg.async = false): the server collects every
//    feedback of the round at the barrier and folds them in ascending
//    sender order into one Adam step — bit-identical to the historical
//    monolithic trainer on either transport.
//  * ServerMode::kAsync (cfg.async = true): one Adam step per feedback,
//    on arrival, no barrier; feedbacks late in the round are stale with
//    respect to the already-updated generator — the inconsistency
//    regime the paper describes. A bounded-staleness guard
//    (cfg.async_max_staleness) drops feedbacks that arrive too many
//    applied steps after their batch was generated, and
//    cfg.async_staleness_damping scales the Adam learning rate by
//    1/(1 + damping * staleness) through the optimizer's
//    staleness-aware step entry point (opt::Adam::step_scaled).
//
// Two further §VII "perspectives" remain config switches:
//  * feedback_compression (§VII-2, the Adacomp direction): int8
//    quantization or top-k sparsification of F_n at the serialization
//    boundary (traffic numbers stay measured, now smaller).
//  * n_discriminators < N (§VII-4): fewer discriminators than workers;
//    the swap relocates them to a fresh random subset of workers each
//    period, so the whole distributed dataset is leveraged over time.
//
// Worker availability: a dist::AvailabilitySchedule injects membership
// changes at iteration boundaries. A leave with no later rejoin is a
// fail-stop crash (Figure 5): the worker's shard is lost and any
// discriminator it hosted dies with it. A temporary leave (elastic
// workers, Qu et al. 2020) parks the hosted discriminator dormant on
// the absent worker — it skips rounds, is skipped by swaps, and
// resumes where it left off on rejoin.
//
// Transport and roles: MdGan speaks to the cluster only through
// dist::Transport. The default NodeRole (kInProcess) drives every node
// of the protocol in one process — the configuration all simulations
// use, against a SimNetwork. The kServer / kWorker roles run a single
// node of the SAME protocol against a per-process endpoint (a
// dist::TcpNetwork), so a real deployment is N+1 processes each holding
// an MdGan in its role. Cross-role coordination that the wire does not
// carry (who hosts which discriminator after a swap, who is present
// this round) is derived SPMD style: every role replays the identical
// seeded swap_rng stream AND the identical availability schedule, so no
// control traffic is needed and the wire carries exactly the bytes the
// in-process run accounts. A consequence the loopback equivalence test
// pins: a TCP run (server + workers as real endpoints) produces
// bit-identical generator weights and identical per-link traffic totals
// to the in-process SimNetwork run with the same seeds and schedule —
// scheduled absences included, because the swap replay skips absent
// workers deterministically on every node. An *unscheduled* crash (a
// dropped connection) remains visible only to the server endpoint, so
// role-split runs should prefer scheduled availability.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/rejoin.hpp"
#include "core/round_engine.hpp"
#include "data/dataset.hpp"
#include "dist/compression.hpp"
#include "dist/fault.hpp"
#include "dist/transport.hpp"
#include "gan/trainer.hpp"

namespace mdgan::core {

// How much disturbance a churn-resilient blocking receive tolerates
// before giving up. Exhausting either budget throws std::runtime_error
// (a clean, attributable error — not a wedge and not a silent nullopt):
//  * churn_retries: membership-epoch bumps (an unrelated peer died or
//    rejoined) the receive survives while its own sender stays alive;
//  * total_timeout_s: wall-clock budget across all retries (0 = none).
struct RecvRetryPolicy {
  std::size_t churn_retries = 64;
  double total_timeout_s = 0.0;
};

// receive_tagged that survives membership churn: a control-plane epoch
// bump wakes a blocking receive with nullopt, which must not be
// confused with a lost message. Retries while `sender` is alive and the
// epoch keeps moving, within `policy`. Returns nullopt when the sender
// is dead or the receive timed out under quiet membership; throws
// std::runtime_error when the retry budget is exhausted.
std::optional<dist::Message> receive_resilient(dist::Transport& net, int node,
                                               const std::string& tag,
                                               int sender,
                                               const RecvRetryPolicy& policy);

struct MdGanConfig {
  gan::GanHyperParams hp;
  std::size_t k = 1;                // generated batches per iteration
  std::size_t epochs_per_swap = 1;  // E
  bool swap_enabled = true;         // false reproduces Fig. 4's dotted
  // 0 = one discriminator per worker (the paper's evaluated setup);
  // any value in [1, N] enables the §VII-4 sparse-discriminator mode.
  std::size_t n_discriminators = 0;
  // §VII-1 asynchronous server (ServerMode::kAsync): one Adam update
  // per feedback, on arrival.
  bool async = false;
  // Async bounded-staleness guard: drop a feedback whose batch is older
  // than this many applied steps. SIZE_MAX (default) applies them all.
  std::size_t async_max_staleness = static_cast<std::size_t>(-1);
  // Async staleness damping: scale the Adam learning rate of a stale
  // step by 1/(1 + damping * staleness). 0 (default) disables damping,
  // which keeps the async trajectory identical to the pre-engine one.
  float async_staleness_damping = 0.f;
  // §VII-2 feedback compression on the W->C link.
  dist::CompressionConfig feedback_compression;
  // Churn-resilience budget of every blocking receive in the protocol
  // (gen_batches, swaps). Exhaustion surfaces as std::runtime_error.
  RecvRetryPolicy recv_retry;
  // Simulated compute costs (seconds), layered on the SimNetwork's link
  // model via its virtual clock: per-worker cost of one local iteration
  // (L discriminator steps + feedback), and the server's cost of one
  // generator update. Zero by default, which — together with the
  // default zero link model — keeps every simulated clock at 0.
  double sim_worker_step_seconds = 0.0;
  double sim_server_update_seconds = 0.0;
  // REAL (wall-clock) sleep per worker local step, between receiving
  // the generated batches and shipping the feedback. Zero by default;
  // meaningful on worker roles over a real transport, where it widens
  // the mid-round window (e.g. so a crash test can reliably land a
  // kill between receive and send).
  double step_delay_s = 0.0;
  // Samples per worker shard. 0 derives it from the shards handed to
  // the constructor; the kServer role holds no shard, so it must be set
  // explicitly there (it fixes the swap period E * m / b).
  std::size_t shard_size = 0;
  // Optional telemetry sink (not owned; null = off). train() hands it to
  // the round engine (phase spans + round metrics), attaches it to the
  // transport (per-link byte counters, wire events) unless the transport
  // already carries one, and the trainer itself emits per-worker
  // local_step spans plus gen_updates_total / swap_skipped_total.
  obs::Sink* sink = nullptr;
};

// Helper for the paper's k = floor(log N) configuration (natural log,
// clamped to [1, N]).
std::size_t k_log_n(std::size_t n_workers);

class MdGan : private RoundDelegate {
 public:
  // kInProcess: shards[n] is worker n+1's local dataset and must match
  // net.n_workers(). kServer: shards must be empty (the server holds no
  // data; set cfg.shard_size). kWorker: shards holds exactly the one
  // local shard. `availability` (optional) injects membership changes
  // at iteration boundaries — a leave with no later rejoin is the
  // fail-stop special case. The schedule is SPMD shared knowledge:
  // role-split runs must hand every process the identical schedule.
  MdGan(gan::GanArch arch, MdGanConfig cfg,
        std::vector<data::InMemoryDataset> shards, std::uint64_t seed,
        dist::Transport& net,
        const dist::AvailabilitySchedule* availability = nullptr,
        NodeRole role = NodeRole::in_process());

  // Runs `iters` global iterations (= generator updates in sync mode;
  // in async mode one iteration still processes every participant but
  // applies one generator update per feedback). Stops early if every
  // worker is gone for good. Hook receives the server generator.
  void train(std::int64_t iters, std::int64_t eval_every = 0,
             const gan::EvalHook& hook = nullptr);
  // Like train(), but the first processed round is `first_iter` instead
  // of 1 — the re-entry point of a rejoined worker, which resumes the
  // GLOBAL round numbering at its admission round so swap replay and
  // eval cadence stay aligned with the surviving cluster. `iters` keeps
  // its train() meaning (the final global round index).
  void train_from(std::int64_t first_iter, std::int64_t iters,
                  std::int64_t eval_every = 0,
                  const gan::EvalHook& hook = nullptr);

  // Rejoiner side of the state transfer: install the server-shipped
  // snapshot (generator θ, holder map, swap stream) and rebirth the
  // discriminators this worker re-hosts, deterministically from
  // (worker, admission round). Call before train_from(admission_round).
  void adopt_rejoin_state(RejoinState&& st);

  nn::Sequential& generator() { return g_; }
  // Discriminator hosted by this worker (throws if the worker currently
  // hosts none — possible in sparse-discriminator mode).
  nn::Sequential& discriminator_of(std::size_t worker_1based);
  // Worker currently hosting discriminator `disc_index` (0-based). -1
  // once the discriminator died with a permanently-departed host; a
  // temporarily absent host keeps it (dormant).
  int holder_of(std::size_t disc_index) const;
  std::size_t discriminator_count() const { return discs_.size(); }

  const gan::GanArch& arch() const { return arch_; }
  const gan::ClassCodes& codes() const { return codes_; }
  const dist::Transport& network() const { return net_; }
  const NodeRole& role() const { return role_; }
  ServerMode server_mode() const {
    return cfg_.async ? ServerMode::kAsync : ServerMode::kSync;
  }
  // Global iterations between two swaps: E * m / b.
  std::int64_t swap_period() const;
  std::int64_t iterations_run() const { return iters_run_; }
  // Total generator updates applied (== iterations in sync mode,
  // ~participants-per-iteration times more in async mode).
  std::int64_t generator_updates() const { return gen_updates_; }
  // Async feedbacks dropped by the bounded-staleness guard, over all
  // train() calls.
  std::int64_t stale_feedbacks_dropped() const { return stale_dropped_; }

  // --- simulated time --------------------------------------------------
  // Simulated elapsed seconds of each completed round: the critical
  // path through that round — C->W batch delivery, the slowest worker's
  // local work and W->C feedback, the server's apply, and any
  // discriminator swap — under the SimNetwork's link model plus the
  // sim_*_seconds compute costs. All zeros when both are zero (the
  // default), so existing runs are unchanged.
  const std::vector<double>& round_sim_seconds() const {
    return round_sim_s_;
  }
  // Total simulated time so far: the critical path over the whole run
  // (max clock over alive nodes).
  double sim_seconds() const { return net_.max_sim_time(); }

 private:
  struct Disc {
    nn::Sequential net;
    std::unique_ptr<opt::Adam> opt;
    int holder = -1;  // worker id hosting this discriminator
  };
  struct Worker {
    data::InMemoryDataset shard;
    Rng rng;
  };
  // One decoded worker feedback F_n and the generated batch it answers.
  struct Feedback {
    int from;
    std::uint32_t batch;
    Tensor grad;
  };

  // The sink's tracer when span recording is on, else nullptr.
  obs::Tracer* trace() const {
    if (cfg_.sink == nullptr) return nullptr;
    obs::Tracer& t = cfg_.sink->tracer();
    return t.enabled() ? &t : nullptr;
  }

  // --- RoundDelegate ---------------------------------------------------
  // A permanent leave kills the discriminators the worker hosts (a
  // re-admission rebirths them); a temporary one leaves them dormant.
  void on_leave(int worker, bool permanent, std::int64_t iter) override;
  // Nothing to restore: a rejoining worker kept its shard, RNG stream
  // and any dormant discriminator; participants() picks them back up.
  void on_join(int /*worker*/, std::int64_t /*iter*/) override {}
  // Re-admission: rebirth the discriminator(s) that died with `worker`
  // and restart its sampling stream, both from (worker, round) —
  // shared knowledge, so every role derives the identical state.
  void on_readmit(int worker, std::int64_t round) override;
  // Server side of the state transfer: the `!state` payload for a
  // worker admitted at `round` (core/rejoin.hpp).
  ByteBuffer make_rejoin_state(int worker, std::int64_t round) override;
  // Discriminators participating this round: hosted by a present
  // worker. A discriminator whose host the transport lost is pruned
  // (fail-stop: it dies with its host); one whose host is merely
  // scheduled absent stays dormant and is skipped.
  std::vector<std::size_t> participants(
      const std::vector<int>& present_workers) override;
  // The discriminators whose holder is in `present_workers` (ascending),
  // by the engine's membership view alone — the filter participants()
  // applies after its liveness prune, and the swap applies without one.
  std::vector<std::size_t> held_by(
      const std::vector<int>& present_workers) const;
  std::vector<int> feedback_senders(
      const std::vector<std::size_t>& discs) override;
  void broadcast(const std::vector<std::size_t>& discs,
                 std::size_t k_eff) override;
  // Worker-side phase of one round: one worker_iteration per
  // participant whose holder this process hosts (NodeRole::hosts),
  // fanned out over the compute pool (a worker role's one runs inline).
  void local_work(const std::vector<std::size_t>& discs) override;
  // Sync server reduce: averages all feedbacks per batch, one Adam
  // step. Feedbacks are folded in sender order regardless of arrival
  // order, so the float accumulation is identical whether the transport
  // delivered them deterministically (SimNetwork) or raced over real
  // sockets (TcpNetwork).
  void fold_sync(std::vector<dist::Message>&& feedbacks,
                 std::size_t k_eff) override;
  // Async server: one Adam step for this feedback, scaled by the
  // staleness damping.
  void apply_async(dist::Message&& feedback, std::size_t staleness,
                   std::size_t k_eff) override;
  // Gossip swap (§IV-C1) over the present workers: every process draws
  // the same new holders, ships the discriminators it hosts and adopts
  // the ones that land on a worker it hosts.
  void swap(std::int64_t iter,
            const std::vector<int>& present_workers) override;
  // Records the round and fires the eval hook train_from() installed.
  void end_round(std::int64_t iter, double round_seconds) override;

  void worker_iteration(std::size_t disc_index);
  // Reads a feedback's batch-id header (checked against k_eff), counts
  // it when its sender was re-admitted by state transfer, and decodes
  // F_n.
  Feedback decode_feedback(dist::Message& msg, std::size_t k_eff);
  // Replaces discriminator j with a FRESH model on `worker` (the old
  // parameters died with the old incarnation), drawn from (seed,
  // worker, admission round, j) with fresh Adam moments.
  void rebirth(std::size_t j, int worker, std::int64_t round);
  // Worker `worker`'s sampling stream: (seed, worker) from the start,
  // restarted from (seed, worker, round) by a re-admission at `round`.
  Rng sample_stream(int worker, std::int64_t round = 0) const;

  gan::GanArch arch_;
  MdGanConfig cfg_;
  gan::ClassCodes codes_;
  dist::Transport& net_;
  const dist::AvailabilitySchedule* availability_;
  std::uint64_t seed_;
  NodeRole role_;
  std::size_t shard_size_ = 0;  // m, fixes the swap period

  // Server state.
  nn::Sequential g_;
  std::unique_ptr<opt::Adam> g_opt_;
  Rng server_rng_;
  Rng swap_rng_;
  // Latent batches of the current iteration, for the async server's
  // re-forward (index = batch id).
  std::vector<Tensor> latent_batches_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Disc> discs_;
  // Per discriminator: the worker that held it when it died (holder
  // flipped to -1); -1 while it is alive or never died. Rebirth on
  // re-admission targets exactly the discriminators whose last holder
  // is the rejoiner.
  std::vector<int> last_holder_;
  // Workers re-admitted via state transfer (1-based index), for
  // attributing their post-rejoin feedbacks.
  std::vector<bool> readmitted_;
  std::int64_t iters_run_ = 0;
  std::int64_t gen_updates_ = 0;
  std::int64_t stale_dropped_ = 0;
  std::vector<double> round_sim_s_;  // per completed round, seconds
  // local_work's participants hosted here; reused across rounds.
  std::vector<int> hosted_;
  // The running train_from() call's eval context; the hook is that
  // call's argument, so end_round() reads it only inside the call.
  std::int64_t total_iters_ = 0;
  std::int64_t eval_every_ = 0;
  const gan::EvalHook* eval_hook_ = nullptr;

  // Cached instruments (null when cfg_.sink is null).
  obs::Counter* gen_updates_total_ = nullptr;
  obs::Counter* swap_skipped_total_ = nullptr;
  obs::Counter* local_steps_total_ = nullptr;
  obs::Counter* readmitted_feedback_total_ = nullptr;
};

}  // namespace mdgan::core
