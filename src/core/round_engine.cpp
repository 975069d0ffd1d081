#include "core/round_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/log.hpp"

namespace mdgan::core {

ServerMode server_mode_from_name(const std::string& name) {
  if (name == "sync") return ServerMode::kSync;
  if (name == "async") return ServerMode::kAsync;
  throw std::invalid_argument("server mode must be sync or async, got '" +
                              name + "'");
}

const char* server_mode_name(ServerMode mode) {
  return mode == ServerMode::kSync ? "sync" : "async";
}

RoundEngine::RoundEngine(dist::Transport& net, RoundEngineConfig cfg,
                         RoundDelegate& delegate,
                         const dist::AvailabilitySchedule* availability)
    : net_(net),
      cfg_(std::move(cfg)),
      delegate_(delegate),
      availability_(availability) {
  if (cfg_.k == 0) {
    throw std::invalid_argument("RoundEngine: k must be >= 1");
  }
  if (cfg_.swap_period < 1) {
    throw std::invalid_argument("RoundEngine: swap period must be >= 1");
  }
  // Initial membership: whatever the transport reports (workers dead
  // before the run started stay out); the schedule's first transitions
  // land at iteration >= 1 and are processed by the first round.
  present_.assign(net_.n_workers() + 1, true);
  lost_.assign(net_.n_workers() + 1, false);
  for (std::size_t w = 1; w <= net_.n_workers(); ++w) {
    present_[w] = net_.is_alive(static_cast<int>(w));
  }

  if (cfg_.sink != nullptr) {
    if (cfg_.sink->flight().enabled()) flight_ = &cfg_.sink->flight();
    obs::Registry& r = cfg_.sink->registry();
    rounds_total_ = &r.counter("rounds_total");
    stale_dropped_total_ = &r.counter("feedback_stale_dropped_total");
    round_duration_s_ = &r.histogram(
        "round_duration_seconds",
        {1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0});
    feedback_staleness_ = &r.histogram(
        "feedback_staleness", {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
    // Stamp spans with the transport's virtual (or measured) clock. The
    // transport must outlive span recording; first engine wins so a
    // reused sink keeps one consistent clock.
    obs::Tracer& t = cfg_.sink->tracer();
    if (t.enabled() && !t.has_sim_clock()) {
      t.set_sim_clock(
          [&net = net_, n = static_cast<int>(net_.n_workers())](int node) {
            return node >= 0 && node <= n ? net.sim_time(node) : -1.0;
          });
    }
  }
}

bool RoundEngine::is_present(int worker) const {
  if (worker < 0 || worker >= static_cast<int>(present_.size())) {
    throw std::out_of_range("RoundEngine: worker id out of range");
  }
  return present_[static_cast<std::size_t>(worker)];
}

std::vector<int> RoundEngine::present_workers() const {
  std::vector<int> out;
  out.reserve(net_.n_workers());
  for (std::size_t w = 1; w < present_.size(); ++w) {
    if (present_[w]) out.push_back(static_cast<int>(w));
  }
  return out;
}

std::size_t RoundEngine::present_count() const {
  return static_cast<std::size_t>(
      std::count(present_.begin() + 1, present_.end(), true));
}

void RoundEngine::stage_readmission(int w, std::int64_t admit_at,
                                    std::int64_t iter) {
  const auto wi = static_cast<std::size_t>(w);
  if (!lost_[wi]) {
    // The grant (or the server's !admit) is authoritative evidence
    // that w's previous incarnation died and a fresh one dialed back
    // in — even when the death and restart both landed inside a single
    // round window, so no boundary ever observed alive == false.
    // Replay the permanent leave now: the current round must exclude
    // the silent fresh incarnation (its discriminator state died with
    // the old process), and the re-admission below rebirths it.
    if (present_[wi]) {
      present_[wi] = false;
      MDGAN_LOG_WARN << "iteration " << iter << ": worker " << w
                     << " restarted within one round window; replaying "
                        "its fail-stop before re-admission, "
                     << present_count() << " present";
      delegate_.on_leave(w, true, iter);
    }
    lost_[wi] = true;
  }
  pending_readmit_[w] = admit_at;
}

void RoundEngine::harvest_readmissions(std::int64_t iter) {
  if (cfg_.role.runs_server()) {
    // A rejoin grant is a transport-level event (a dead worker's id
    // dialed back with --role=rejoin); the server turns it into a
    // protocol admission at the NEXT round boundary, iter + 1, and
    // announces that round before this round's data frames go out —
    // per-connection FIFO then has every survivor holding the !admit
    // by its own iter + 1 boundary, so all roles admit on the same
    // round. Grants covered by a scheduled crash-rejoin are left for
    // the schedule's own readmit (SPMD shared knowledge already pins
    // that admission round everywhere).
    drain_rejoin_grants(iter);
    return;
  }
  // Worker roles learn admissions from the server's `!admit` broadcast,
  // which pins the admission round the server chose. A rejoiner's own
  // engine starts from the transferred state and is already admitted;
  // it must not replay its own fail-stop.
  for (const auto& a : net_.take_admissions()) {
    if (a.worker < 1 || a.worker > static_cast<int>(net_.n_workers())) {
      continue;
    }
    if (cfg_.role.kind == NodeRole::Kind::kWorker &&
        a.worker == cfg_.role.worker_id) {
      continue;
    }
    stage_readmission(a.worker, a.round, iter);
  }
}

void RoundEngine::drain_rejoin_grants(std::int64_t iter, int owned) {
  for (int w : net_.take_rejoin_grants()) {
    if (w == owned || w < 1 || w > static_cast<int>(net_.n_workers())) {
      continue;
    }
    if (availability_ != nullptr &&
        availability_->within_crash_rejoin(w, iter)) {
      continue;
    }
    stage_readmission(w, iter + 1, iter);
    net_.announce_admission(w, iter + 1);
  }
}

void RoundEngine::readmit(int w, std::int64_t iter) {
  const auto wi = static_cast<std::size_t>(w);
  lost_[wi] = false;
  present_[wi] = true;
  if (flight_ != nullptr) {
    flight_->record(obs::FlightKind::kAdmission, w, iter, 0,
                    net_.max_sim_time());
  }
  MDGAN_LOG_INFO << "iteration " << iter << ": worker " << w
                 << " re-admitted with transferred state, "
                 << present_count() << " present";
  // on_readmit first: the delegate rebirths the worker's discriminator
  // and restores the holder map BEFORE the state payload is serialized,
  // so the rejoiner receives the post-admission view.
  delegate_.on_readmit(w, iter);
  if (cfg_.role.runs_server()) {
    net_.ship_rejoin_state(w, delegate_.make_rejoin_state(w, iter));
  }
}

bool RoundEngine::process_membership(std::int64_t iter) {
  harvest_readmissions(iter);
  bool self_state_lost = false;
  for (int w = 1; w <= static_cast<int>(net_.n_workers()); ++w) {
    const auto wi = static_cast<std::size_t>(w);
    const bool state_rejoin =
        availability_ != nullptr && availability_->state_rejoin_at(w, iter);
    bool alive = net_.is_alive(w);
    if (state_rejoin && !alive && !lost_[wi]) {
      // Scheduled crash-rejoin, real transport: the worker's old
      // incarnation is gone and the restarted one may still be dialing.
      // Wait for it so the admission round is the scheduled one on
      // every role. (In simulation await_alive returns immediately.)
      alive = net_.await_alive(w, cfg_.readmit_wait_s);
    }
    const bool scheduled =
        availability_ == nullptr || availability_->present(w, iter);
    const bool now = alive && scheduled;
    if (now == present_[wi]) {
      // A pending_readmit_ entry for a present worker is NOT stale:
      // the grant behind it proves the present incarnation is a silent
      // restart (death and re-dial inside one round window). The drain
      // below replays its fail-stop and re-admits it.
      continue;
    }
    if (now && (lost_[wi] || state_rejoin)) {
      if (state_rejoin) {
        // Scheduled state-transfer rejoin: the schedule is SPMD shared
        // knowledge, so every role re-admits here without waiting for
        // a grant to surface.
        pending_readmit_.erase(w);
        readmit(w, iter);
        if (cfg_.role.runs_server()) {
          // The re-dial that made this worker alive again surfaced a
          // transport grant; absorb it — the schedule owns this
          // admission. Grants for OTHER workers that happened to land
          // in the same drain are unscheduled and staged normally.
          drain_rejoin_grants(iter, /*owned=*/w);
        }
        continue;
      }
      // Transport-level revival of a worker that already failed-stop:
      // its shard and hosted discriminator died with it, so plain
      // membership does not re-admit it. Re-admission happens only
      // through the granted state-transfer path (pending_readmit_,
      // handled below).
      continue;
    }
    present_[wi] = now;
    if (now) {
      MDGAN_LOG_INFO << "iteration " << iter << ": worker " << w
                     << " rejoined, " << present_count() << " present";
      delegate_.on_join(w, iter);
      continue;
    }
    // A leave is permanent when the transport lost the worker (a real
    // fail-stop) or the schedule never brings it back. A scheduled
    // crash-rejoin (loses_state_at) destroys the hosted state like a
    // fail-stop but does NOT mark the worker lost: the schedule
    // re-admits it with transferred state at the rejoin round.
    const bool state_lost =
        alive && availability_ != nullptr &&
        availability_->loses_state_at(w, iter);
    bool permanent = !alive;
    if (!permanent && !state_lost) {
      permanent = !availability_->returns_after(w, iter);
    }
    if (permanent && alive && cfg_.role.kind == NodeRole::Kind::kInProcess) {
      // Scheduled fail-stop, in-process: the transport itself crashes
      // the worker, exactly as a real crash would drop it.
      net_.crash(w);
      MDGAN_LOG_INFO << "iteration " << iter << ": worker " << w
                     << " crashed (fail-stop), "
                     << net_.alive_worker_count() << " left";
    } else if (state_lost) {
      MDGAN_LOG_INFO << "iteration " << iter << ": worker " << w
                     << " crashed (scheduled, state lost; rejoins with "
                        "transferred state), "
                     << present_count() << " present";
    } else {
      MDGAN_LOG_INFO << "iteration " << iter << ": worker " << w
                     << (permanent ? " left permanently, "
                                   : " left temporarily, ")
                     << present_count() << " present";
    }
    if (permanent) lost_[wi] = true;
    // The delegate treats a state-losing crash like a permanent leave:
    // the hosted discriminator dies either way.
    delegate_.on_leave(w, permanent || state_lost, iter);
    if (state_lost && cfg_.role.kind == NodeRole::Kind::kWorker &&
        w == cfg_.role.worker_id) {
      self_state_lost = true;
    }
  }
  // Unscheduled (granted) re-admissions whose round arrived: a worker
  // the protocol lost to a real fail-stop, whose restarted process was
  // granted rejoin. Requires the transport to actually see it alive.
  // The re-admission is seeded from the AGREED admission round
  // (it->second, the round the server announced) even when this role
  // observes it late — the rebirth tuple must be identical on every
  // role or the reborn discriminators diverge.
  for (auto it = pending_readmit_.begin(); it != pending_readmit_.end();) {
    const int w = it->first;
    const auto wi = static_cast<std::size_t>(w);
    if (it->second > iter) {
      ++it;
      continue;
    }
    if (!lost_[wi]) {
      // Only reachable when the scheduled path re-admitted w after the
      // entry was staged; the admission already happened, drop it.
      it = pending_readmit_.erase(it);
      continue;
    }
    const bool scheduled =
        availability_ == nullptr || availability_->present(w, iter);
    if (!scheduled || !net_.is_alive(w)) {
      ++it;  // keep waiting: the grant outlives a slow reconnect
      continue;
    }
    readmit(w, it->second);
    it = pending_readmit_.erase(it);
  }
  if (self_state_lost) {
    // This worker's incarnation is over: its discriminator state died
    // with the scheduled crash. Re-entry happens as a fresh process
    // (or endpoint) through the rejoin handshake + state transfer.
    return false;
  }
  if (cfg_.role.kind == NodeRole::Kind::kWorker) {
    const auto me = static_cast<std::size_t>(cfg_.role.worker_id);
    if (!present_[me] &&
        (availability_ == nullptr ||
         !availability_->returns_after(cfg_.role.worker_id, iter))) {
      return false;  // this worker's run is over
    }
  }
  return true;
}

bool RoundEngine::anyone_returns_after(std::int64_t iter) const {
  if (availability_ == nullptr) return false;
  for (int w = 1; w <= static_cast<int>(net_.n_workers()); ++w) {
    if (present_[static_cast<std::size_t>(w)]) continue;
    if (!net_.is_alive(w)) continue;  // transport-dead: gone for good
    if (availability_->returns_after(w, iter)) return true;
  }
  return false;
}

std::optional<dist::Message> RoundEngine::collect_one(
    std::vector<int>& waiting, std::int64_t iter) {
  auto deliver = [&](dist::Message&& msg) {
    // One expected message per waiting entry: retire the sender's
    // earliest outstanding slot.
    auto it = std::find(waiting.begin(), waiting.end(), msg.from);
    if (it != waiting.end()) waiting.erase(it);
    return std::optional<dist::Message>(std::move(msg));
  };
  for (;;) {
    if (waiting.empty()) return std::nullopt;
    // Pop anything already queued before looking at liveness: a sender
    // that died AFTER shipping its feedback must still be folded — the
    // transport's per-connection FIFO enqueued the message before the
    // EOF that killed it.
    if (auto msg = net_.try_receive_tagged(dist::kServerId,
                                           cfg_.feedback_tag)) {
      return deliver(std::move(*msg));
    }
    // Nothing queued: a dead waiting sender can never deliver anymore.
    // Prune it from the round — membership-wise this is an unscheduled
    // permanent leave, observed mid-round.
    bool pruned = false;
    for (std::size_t j = 0; j < waiting.size();) {
      const int w = waiting[j];
      if (net_.is_alive(w)) {
        ++j;
        continue;
      }
      waiting.erase(std::remove(waiting.begin(), waiting.end(), w),
                    waiting.end());
      pruned = true;
      const auto wi = static_cast<std::size_t>(w);
      if (present_[wi]) {
        present_[wi] = false;
        lost_[wi] = true;
        MDGAN_LOG_WARN << "iteration " << iter << ": worker " << w
                       << " died mid-round (unscheduled fail-stop); "
                          "folding what arrived, "
                       << present_count() << " present";
        delegate_.on_leave(w, true, iter);
      }
      j = 0;  // indices shifted; rescan
    }
    if (pruned) continue;
    // Block for the next arrival. The epoch snapshot distinguishes a
    // real timeout from a membership wake-up: on a bump the transport
    // returns nullopt early so this loop re-checks liveness above.
    const std::uint64_t epoch0 = net_.membership_epoch();
    if (auto msg = net_.receive_tagged(dist::kServerId, cfg_.feedback_tag)) {
      return deliver(std::move(*msg));
    }
    if (net_.membership_epoch() == epoch0) {
      // Live senders, quiet membership, and the full receive timeout
      // elapsed empty: a lost message, which fail-stop cannot explain.
      throw std::logic_error("RoundEngine: missing feedback");
    }
  }
}

void RoundEngine::collect_sync(std::vector<int> waiting, std::size_t k_eff,
                               std::int64_t iter) {
  std::vector<dist::Message> batch;
  batch.reserve(waiting.size());
  while (!waiting.empty()) {
    auto msg = collect_one(waiting, iter);
    if (!msg) break;  // pruning emptied the round: fold what arrived
    batch.push_back(std::move(*msg));
  }
  if (batch.empty()) {
    // No feedback at all: skip the fold entirely. An optimizer step on
    // zero gradients is NOT a no-op (Adam's moments keep moving the
    // parameters), so an empty round must not touch the generator.
    MDGAN_LOG_WARN << "iteration " << iter
                   << ": every feedback sender died mid-round; skipping "
                      "the fold";
    return;
  }
  delegate_.fold_sync(std::move(batch), k_eff);
}

void RoundEngine::collect_async(std::vector<int> waiting, std::size_t k_eff,
                                std::int64_t iter) {
  // One optimizer step per arrival, no barrier. `applied` doubles as
  // the staleness of the next message: every applied step moved the
  // generator away from the parameters that produced this round's
  // batches.
  std::size_t applied = 0;
  while (!waiting.empty()) {
    auto msg = collect_one(waiting, iter);
    if (!msg) break;  // pruning emptied the round
    if (feedback_staleness_ != nullptr) {
      feedback_staleness_->observe(static_cast<double>(applied));
    }
    if (applied > cfg_.max_staleness) {
      ++stale_dropped_;  // bounded staleness: too old to apply safely
      if (stale_dropped_total_ != nullptr) stale_dropped_total_->inc();
      if (flight_ != nullptr) {
        flight_->record(obs::FlightKind::kStaleDrop, msg->from, iter,
                        static_cast<std::int64_t>(applied),
                        net_.max_sim_time());
      }
      continue;
    }
    delegate_.apply_async(std::move(*msg), applied, k_eff);
    ++applied;
  }
}

std::int64_t RoundEngine::run(std::int64_t first_iter, std::int64_t rounds) {
  std::int64_t last_completed = first_iter - 1;
  obs::Tracer* tr = trace();
  const int self = span_node();
  // Publish where the engine is for the !stats introspection frame;
  // phase strings are literals (the sink stores only the pointer).
  const auto live = [this](std::int64_t round, const char* phase) {
    if (cfg_.sink != nullptr) cfg_.sink->set_live(round, phase);
  };
  for (std::int64_t i = first_iter; i < first_iter + rounds; ++i) {
    // Simulated round time = critical-path delta across the round (max
    // over workers' paths into the server, + server apply + swap).
    const double round_start_s = net_.max_sim_time();
    obs::Span round_span(tr, "round", obs::Cat::kRound, self, i);
    bool stop = false;
    {
      obs::Span s(tr, "phase:membership", obs::Cat::kPhase, self, i);
      live(i, "membership");
      net_.begin_iteration(i);
      stop = !process_membership(i);
    }
    if (stop) break;
    const auto discs = delegate_.participants(present_workers());
    if (discs.empty()) {
      if (!anyone_returns_after(i)) {
        MDGAN_LOG_WARN << "iteration " << i
                       << ": no live discriminators; stopping training";
        break;
      }
      // Idle round: nobody is here, but somebody is scheduled back.
      const double idle_s = std::max(0.0, net_.max_sim_time() - round_start_s);
      delegate_.end_round(i, idle_s);
      if (round_duration_s_ != nullptr) round_duration_s_->observe(idle_s);
      if (rounds_total_ != nullptr) rounds_total_->inc();
      if (cfg_.sink != nullptr) {
        cfg_.sink->round_completed(i, net_.max_sim_time());
      }
      last_completed = i;
      continue;
    }
    const std::size_t k_eff = std::min(cfg_.k, discs.size());

    if (cfg_.role.runs_server()) {
      obs::Span s(tr, "phase:broadcast", obs::Cat::kPhase, self, i);
      live(i, "broadcast");
      delegate_.broadcast(discs, k_eff);
    }
    {
      obs::Span s(tr, "phase:local", obs::Cat::kPhase, self, i);
      live(i, "local");
      delegate_.local_work(discs);
    }
    if (cfg_.role.runs_server()) {
      obs::Span s(tr, "phase:collect", obs::Cat::kPhase, self, i);
      live(i, "collect");
      auto senders = delegate_.feedback_senders(discs);
      if (cfg_.mode == ServerMode::kSync) {
        collect_sync(std::move(senders), k_eff, i);
      } else {
        collect_async(std::move(senders), k_eff, i);
      }
    }

    if (cfg_.swap_enabled && i % cfg_.swap_period == 0) {
      obs::Span s(tr, "phase:swap", obs::Cat::kPhase, self, i);
      live(i, "swap");
      delegate_.swap(i, present_workers());
    }
    // Clamped at 0: a crash can remove the node that held the max clock
    // from the alive set, which must not read as negative elapsed time.
    const double round_s = std::max(0.0, net_.max_sim_time() - round_start_s);
    delegate_.end_round(i, round_s);
    if (round_duration_s_ != nullptr) round_duration_s_->observe(round_s);
    if (rounds_total_ != nullptr) rounds_total_->inc();
    if (cfg_.sink != nullptr) {
      cfg_.sink->round_completed(i, net_.max_sim_time());
    }
    last_completed = i;
  }
  live(last_completed, "idle");
  return last_completed;
}

}  // namespace mdgan::core
