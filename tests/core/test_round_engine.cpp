// The event-driven round engine: phase sequencing and membership at the
// engine level (scripted delegate over a SimNetwork), the async
// bounded-staleness guard, and the refactor's acceptance property — the
// engine-driven sync trainer is bit-identical to a straight-line
// reference implementation of the pre-engine monolithic loop (same RNG
// streams, same fold order, same swap replay), written here without any
// Transport so the two cannot share the code under test.
#include "core/round_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"
#include "gan/arch.hpp"
#include "gan/trainer.hpp"

namespace mdgan::core {
namespace {

std::vector<data::InMemoryDataset> shards_for(std::size_t n_workers,
                                              std::size_t per_shard,
                                              std::uint64_t seed) {
  auto full = data::make_synthetic_digits(n_workers * per_shard, seed);
  Rng rng(seed);
  return data::split_iid(full, n_workers, rng);
}

// --- engine-level tests (scripted delegate, no GAN) ---------------------

// One "discriminator" per worker (disc j lives on worker j+1); every
// local_work ships one feedback per participant so the collect phase
// has something to pop. Records the phase trace.
struct ScriptedDelegate : RoundDelegate {
  dist::Transport& net;
  std::vector<std::string> trace;
  std::vector<std::pair<int, bool>> leaves;  // (worker, permanent)
  std::vector<int> joins;
  int async_applied = 0;

  explicit ScriptedDelegate(dist::Transport& n) : net(n) {}

  void on_leave(int worker, bool permanent, std::int64_t) override {
    leaves.emplace_back(worker, permanent);
  }
  void on_join(int worker, std::int64_t) override {
    joins.push_back(worker);
  }
  std::vector<std::size_t> participants(
      const std::vector<int>& present) override {
    std::vector<std::size_t> out;
    for (int w : present) out.push_back(static_cast<std::size_t>(w - 1));
    return out;
  }
  std::vector<int> feedback_senders(
      const std::vector<std::size_t>& discs) override {
    std::vector<int> out;
    for (std::size_t j : discs) out.push_back(static_cast<int>(j + 1));
    return out;
  }
  void broadcast(const std::vector<std::size_t>& discs,
                 std::size_t k_eff) override {
    trace.push_back("broadcast:" + std::to_string(discs.size()) + ",k" +
                    std::to_string(k_eff));
  }
  void local_work(const std::vector<std::size_t>& discs) override {
    trace.push_back("local:" + std::to_string(discs.size()));
    for (std::size_t j : discs) {
      ByteBuffer buf;
      buf.write_pod<std::uint32_t>(static_cast<std::uint32_t>(j));
      net.send(static_cast<int>(j + 1), dist::kServerId, "feedback",
               std::move(buf));
    }
  }
  void fold_sync(std::vector<dist::Message>&& feedbacks,
                 std::size_t) override {
    trace.push_back("fold:" + std::to_string(feedbacks.size()));
  }
  void apply_async(dist::Message&&, std::size_t staleness,
                   std::size_t) override {
    trace.push_back("apply:s" + std::to_string(staleness));
    ++async_applied;
  }
  void swap(std::int64_t, const std::vector<int>& present) override {
    trace.push_back("swap:" + std::to_string(present.size()));
  }
  void end_round(std::int64_t iter, double) override {
    trace.push_back("end:" + std::to_string(iter));
  }
};

TEST(RoundEngine, SyncPhaseOrderAndSwapPeriod) {
  dist::SimNetwork net(2);
  ScriptedDelegate d(net);
  RoundEngineConfig cfg;
  cfg.swap_period = 2;  // swap after rounds 2 and 4
  EXPECT_EQ(RoundEngine(net, cfg, d).run(1, 2), 2);
  EXPECT_EQ(d.trace, (std::vector<std::string>{
                         "broadcast:2,k1", "local:2", "fold:2", "end:1",
                         "broadcast:2,k1", "local:2", "fold:2", "swap:2",
                         "end:2"}));
}

TEST(RoundEngine, ValidatesConfig) {
  dist::SimNetwork net(1);
  ScriptedDelegate d(net);
  RoundEngineConfig bad_k;
  bad_k.k = 0;
  EXPECT_THROW(RoundEngine(net, bad_k, d), std::invalid_argument);
  RoundEngineConfig bad_period;
  bad_period.swap_period = 0;
  EXPECT_THROW(RoundEngine(net, bad_period, d), std::invalid_argument);
}

TEST(RoundEngine, ServerModeNames) {
  EXPECT_EQ(server_mode_from_name("sync"), ServerMode::kSync);
  EXPECT_EQ(server_mode_from_name("async"), ServerMode::kAsync);
  EXPECT_THROW(server_mode_from_name("turbo"), std::invalid_argument);
  EXPECT_STREQ(server_mode_name(ServerMode::kAsync), "async");
}

TEST(RoundEngine, TemporaryLeaveFiresMembershipAndShrinksRounds) {
  dist::SimNetwork net(2);
  dist::AvailabilitySchedule sched;
  sched.add_absence(/*worker=*/2, /*from=*/2, /*until=*/3);
  ScriptedDelegate d(net);
  RoundEngineConfig cfg;
  cfg.swap_enabled = false;
  RoundEngine engine(net, cfg, d, &sched);
  EXPECT_EQ(engine.run(1, 3), 3);
  EXPECT_EQ(d.leaves,
            (std::vector<std::pair<int, bool>>{{2, false}}));  // temporary
  EXPECT_EQ(d.joins, (std::vector<int>{2}));
  EXPECT_TRUE(net.is_alive(2));  // a temporary leave is not a crash
  EXPECT_EQ(d.trace, (std::vector<std::string>{
                         "broadcast:2,k1", "local:2", "fold:2", "end:1",
                         "broadcast:1,k1", "local:1", "fold:1", "end:2",
                         "broadcast:2,k1", "local:2", "fold:2", "end:3"}));
}

TEST(RoundEngine, PermanentLeaveCrashesInProcess) {
  dist::SimNetwork net(2);
  dist::AvailabilitySchedule sched;
  sched.add_leave(2, 1);  // no rejoin: fail-stop
  ScriptedDelegate d(net);
  RoundEngineConfig cfg;
  cfg.swap_enabled = false;
  RoundEngine engine(net, cfg, d, &sched);
  EXPECT_EQ(engine.run(1, 3), 3);
  EXPECT_EQ(d.leaves, (std::vector<std::pair<int, bool>>{{1, true}}));
  EXPECT_FALSE(net.is_alive(1));  // the transport crashed it
  EXPECT_EQ(engine.present_workers(), (std::vector<int>{2}));
}

TEST(RoundEngine, IdleRoundsWhileEveryoneIsAway) {
  dist::SimNetwork net(1);
  dist::AvailabilitySchedule sched;
  sched.add_absence(1, 1, 3);  // absent for rounds 1 and 2
  ScriptedDelegate d(net);
  RoundEngineConfig cfg;
  cfg.swap_enabled = false;
  RoundEngine engine(net, cfg, d, &sched);
  EXPECT_EQ(engine.run(1, 3), 3);
  // Rounds 1 and 2 are idle (no broadcast/local/fold), round 3 runs.
  EXPECT_EQ(d.trace, (std::vector<std::string>{
                         "end:1", "end:2", "broadcast:1,k1", "local:1",
                         "fold:1", "end:3"}));
}

TEST(RoundEngine, StopsWhenNobodyReturns) {
  dist::SimNetwork net(1);
  dist::AvailabilitySchedule sched;
  sched.add_leave(2, 1);
  ScriptedDelegate d(net);
  RoundEngineConfig cfg;
  cfg.swap_enabled = false;
  RoundEngine engine(net, cfg, d, &sched);
  EXPECT_EQ(engine.run(1, 10), 1);  // round 2 finds nobody, ever again
}

TEST(RoundEngine, AsyncAppliesPerFeedbackWithStaleness) {
  dist::SimNetwork net(3);
  ScriptedDelegate d(net);
  RoundEngineConfig cfg;
  cfg.mode = ServerMode::kAsync;
  cfg.swap_enabled = false;
  RoundEngine engine(net, cfg, d);
  EXPECT_EQ(engine.run(1, 1), 1);
  EXPECT_EQ(d.trace, (std::vector<std::string>{
                         "broadcast:3,k1", "local:3", "apply:s0",
                         "apply:s1", "apply:s2", "end:1"}));
  EXPECT_EQ(engine.stale_dropped(), 0);
}

TEST(RoundEngine, BoundedStalenessDropsLateFeedback) {
  dist::SimNetwork net(3);
  ScriptedDelegate d(net);
  RoundEngineConfig cfg;
  cfg.mode = ServerMode::kAsync;
  cfg.swap_enabled = false;
  cfg.max_staleness = 1;  // at most 2 applied steps per round
  RoundEngine engine(net, cfg, d, nullptr);
  EXPECT_EQ(engine.run(1, 2), 2);
  EXPECT_EQ(d.async_applied, 4);        // 2 per round
  EXPECT_EQ(engine.stale_dropped(), 2);  // 1 dropped per round
}

// --- unscheduled mid-round failures -------------------------------------

// A delegate whose local_work simulates a worker dying mid-round: from
// `crash_at_round` on, `victim` crashes during the local phase and
// (depending on `sends_first`) its feedback is withheld or was already
// shipped before the crash.
struct CrashingDelegate : ScriptedDelegate {
  int victim;
  std::int64_t crash_at_round;
  bool sends_first;
  std::int64_t round = 0;

  CrashingDelegate(dist::Transport& n, int v, std::int64_t at,
                   bool sends)
      : ScriptedDelegate(n), victim(v), crash_at_round(at),
        sends_first(sends) {}

  void local_work(const std::vector<std::size_t>& discs) override {
    ++round;
    trace.push_back("local:" + std::to_string(discs.size()));
    for (std::size_t j : discs) {
      const int w = static_cast<int>(j + 1);
      const bool crashes = w == victim && round >= crash_at_round;
      if (crashes && !sends_first) {
        net.crash(w);
        continue;  // died before shipping its feedback
      }
      ByteBuffer buf;
      buf.write_pod<std::uint32_t>(static_cast<std::uint32_t>(j));
      net.send(w, dist::kServerId, "feedback", std::move(buf));
      if (crashes) net.crash(w);  // died right after shipping
    }
  }
};

TEST(RoundEngine, MidRoundDeathShrinksCollectInsteadOfThrowing) {
  dist::SimNetwork net(3);
  CrashingDelegate d(net, /*victim=*/3, /*crash_at_round=*/2,
                     /*sends_first=*/false);
  RoundEngineConfig cfg;
  cfg.swap_enabled = false;
  RoundEngine engine(net, cfg, d);
  // Round 2 loses worker 3 mid-round: the collect folds the two
  // feedbacks that arrived instead of throwing, and the run completes.
  EXPECT_EQ(engine.run(1, 3), 3);
  EXPECT_EQ(d.trace, (std::vector<std::string>{
                         "broadcast:3,k1", "local:3", "fold:3", "end:1",
                         "broadcast:3,k1", "local:3", "fold:2", "end:2",
                         "broadcast:2,k1", "local:2", "fold:2", "end:3"}));
  // Exactly one permanent leave, observed mid-round (not re-fired by
  // the next round's membership pass).
  EXPECT_EQ(d.leaves, (std::vector<std::pair<int, bool>>{{3, true}}));
  EXPECT_FALSE(engine.is_present(3));
}

TEST(RoundEngine, FeedbackSentBeforeDeathIsStillFolded) {
  dist::SimNetwork net(3);
  CrashingDelegate d(net, /*victim=*/3, /*crash_at_round=*/2,
                     /*sends_first=*/true);
  RoundEngineConfig cfg;
  cfg.swap_enabled = false;
  RoundEngine engine(net, cfg, d);
  EXPECT_EQ(engine.run(1, 3), 3);
  // Round 2's fold still counts all 3: the victim's feedback was
  // enqueued before its death and must be drained, not dropped.
  EXPECT_EQ(d.trace, (std::vector<std::string>{
                         "broadcast:3,k1", "local:3", "fold:3", "end:1",
                         "broadcast:3,k1", "local:3", "fold:3", "end:2",
                         "broadcast:2,k1", "local:2", "fold:2", "end:3"}));
  EXPECT_EQ(d.leaves, (std::vector<std::pair<int, bool>>{{3, true}}));
}

TEST(RoundEngine, MidRoundDeathDegradesAsyncCollectToo) {
  dist::SimNetwork net(3);
  CrashingDelegate d(net, /*victim=*/2, /*crash_at_round=*/1,
                     /*sends_first=*/false);
  RoundEngineConfig cfg;
  cfg.mode = ServerMode::kAsync;
  cfg.swap_enabled = false;
  RoundEngine engine(net, cfg, d);
  EXPECT_EQ(engine.run(1, 1), 1);
  EXPECT_EQ(d.async_applied, 2);  // workers 1 and 3 only
  EXPECT_EQ(d.leaves, (std::vector<std::pair<int, bool>>{{2, true}}));
}

TEST(RoundEngine, AllSendersDyingSkipsTheFold) {
  dist::SimNetwork net(2);
  // Both workers die in round 1 before shipping anything.
  struct AllDie : ScriptedDelegate {
    using ScriptedDelegate::ScriptedDelegate;
    void local_work(const std::vector<std::size_t>& discs) override {
      trace.push_back("local:" + std::to_string(discs.size()));
      for (std::size_t j : discs) net.crash(static_cast<int>(j + 1));
    }
  } d(net);
  RoundEngineConfig cfg;
  cfg.swap_enabled = false;
  RoundEngine engine(net, cfg, d);
  // Round 1 completes with no fold at all (an Adam step on zero
  // gradients would still move the generator); round 2 finds nobody.
  EXPECT_EQ(engine.run(1, 3), 1);
  EXPECT_EQ(d.trace, (std::vector<std::string>{"broadcast:2,k1", "local:2",
                                               "end:1"}));
}

TEST(RoundEngine, MissingFeedbackFromLiveWorkerStillThrows) {
  dist::SimNetwork net(2);
  // Worker 2 stays alive but never ships: fail-stop cannot explain the
  // missing message, so the legacy failure mode is preserved.
  struct Withholds : ScriptedDelegate {
    using ScriptedDelegate::ScriptedDelegate;
    void local_work(const std::vector<std::size_t>& discs) override {
      trace.push_back("local:" + std::to_string(discs.size()));
      for (std::size_t j : discs) {
        if (j + 1 == 2) continue;
        ByteBuffer buf;
        buf.write_pod<std::uint32_t>(static_cast<std::uint32_t>(j));
        net.send(static_cast<int>(j + 1), dist::kServerId, "feedback",
                 std::move(buf));
      }
    }
  } d(net);
  RoundEngineConfig cfg;
  cfg.swap_enabled = false;
  RoundEngine engine(net, cfg, d);
  EXPECT_THROW(engine.run(1, 1), std::logic_error);
}

// --- trainer-level tests ------------------------------------------------

// Straight-line reference implementation of the pre-engine synchronous
// MD-GAN loop: same seed-derived RNG streams, same SPLIT rule, same
// sender-ordered fold, same swap replay (θ only, Adam moments reset) —
// but no Transport, no engine, no MdGan. The engine-driven trainer must
// reproduce it bit for bit.
std::vector<float> reference_sync_train(
    const gan::GanArch& arch, const gan::GanHyperParams& hp, std::size_t k,
    std::vector<data::InMemoryDataset> shards, std::uint64_t seed,
    std::int64_t iters, bool swap_enabled) {
  const std::size_t n = shards.size();
  const std::size_t b = hp.batch;
  gan::ClassCodes codes(arch.image.num_classes, arch.latent_dim);
  Rng server_rng = Rng(seed).split(0x5e1);
  Rng swap_rng = Rng(seed).split(0x50a9);
  Rng init_rng = Rng(seed).split(0x1417);
  nn::Sequential g = gan::build_generator(arch, init_rng);
  nn::Sequential d0 = gan::build_discriminator(arch, init_rng);
  opt::Adam g_opt(g.params(), g.grads(), hp.g_adam);

  struct RefDisc {
    nn::Sequential net;
    std::unique_ptr<opt::Adam> opt;
    int holder;
  };
  std::vector<RefDisc> discs;
  for (std::size_t j = 0; j < n; ++j) {
    Rng scratch = Rng(seed).split(0x1417);
    RefDisc disc{gan::build_discriminator(arch, scratch), nullptr,
                 static_cast<int>(j + 1)};
    d0.clone_parameters_into(disc.net);
    disc.opt = std::make_unique<opt::Adam>(disc.net.params(),
                                           disc.net.grads(), hp.d_adam);
    discs.push_back(std::move(disc));
  }
  std::vector<Rng> worker_rngs;
  for (std::size_t w = 1; w <= n; ++w) {
    worker_rngs.push_back(Rng(seed).split(0x3d9a).split(w));
  }
  const std::int64_t period = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(shards[0].size() / b));

  for (std::int64_t i = 1; i <= iters; ++i) {
    const std::size_t k_eff = std::min(k, n);
    std::vector<Tensor> latents, generated;
    std::vector<std::vector<int>> labels(k_eff);
    for (std::size_t j = 0; j < k_eff; ++j) {
      Tensor z = gan::sample_latent(arch, codes, b, server_rng, labels[j]);
      generated.push_back(g.forward(z, /*train=*/true));
      latents.push_back(std::move(z));
    }
    struct RefFeedback {
      int from;
      std::uint32_t batch;
      Tensor grad;
    };
    std::vector<RefFeedback> feedbacks;
    for (std::size_t p = 0; p < n; ++p) {
      const std::size_t gi = p % k_eff;
      const std::size_t di = (p + 1) % k_eff;
      RefDisc& disc = discs[p];
      Rng& wrng = worker_rngs[static_cast<std::size_t>(disc.holder - 1)];
      auto& shard = shards[static_cast<std::size_t>(disc.holder - 1)];
      std::vector<int> y_real;
      Tensor x_real = shard.sample_batch(wrng, b, &y_real);
      for (std::size_t l = 0; l < hp.disc_steps; ++l) {
        gan::disc_learning_step(disc.net, *disc.opt, x_real, y_real,
                                generated[di], labels[di], arch.acgan);
      }
      feedbacks.push_back(
          {disc.holder, static_cast<std::uint32_t>(gi),
           gan::generator_feedback(disc.net, generated[gi],
                                   arch.acgan ? &labels[gi] : nullptr,
                                   hp.saturating)});
    }
    std::sort(feedbacks.begin(), feedbacks.end(),
              [](const RefFeedback& a, const RefFeedback& b2) {
                return a.from < b2.from;
              });
    std::vector<Tensor> upstream(k_eff);
    std::vector<std::size_t> counts(k_eff, 0);
    for (auto& fb : feedbacks) {
      if (upstream[fb.batch].empty()) {
        upstream[fb.batch] = std::move(fb.grad);
      } else {
        upstream[fb.batch] += fb.grad;
      }
      ++counts[fb.batch];
    }
    const float inv_n = 1.f / static_cast<float>(n);
    g_opt.zero_grad();
    for (std::size_t j = 0; j < k_eff; ++j) {
      if (counts[j] == 0) continue;
      g.forward(latents[j], /*train=*/true);
      upstream[j] *= inv_n;
      g.backward(upstream[j]);
    }
    g_opt.step();

    if (swap_enabled && i % period == 0 && n >= 2) {
      std::vector<int> targets;
      for (int attempt = 0; attempt < 64; ++attempt) {
        auto perm = swap_rng.permutation(n);
        targets.clear();
        bool ok = true;
        for (std::size_t p = 0; p < n; ++p) {
          const int target = static_cast<int>(perm[p]) + 1;
          if (target == discs[p].holder) {
            ok = false;
            break;
          }
          targets.push_back(target);
        }
        if (ok) break;
        targets.clear();
      }
      if (!targets.empty()) {
        for (std::size_t p = 0; p < n; ++p) {
          // θ travels, the moments do not: adoption resets Adam.
          const auto params = discs[p].net.flatten_parameters();
          discs[p].net.assign_parameters(params);
          discs[p].opt->reset();
          discs[p].holder = targets[p];
        }
      }
    }
  }
  return g.flatten_parameters();
}

TEST(RoundEngineMdGan, SyncEngineMatchesReferenceTrainerBitForBit) {
  const std::uint64_t seed = 61;
  const std::size_t n = 3, per_shard = 16;
  const std::int64_t iters = 5;  // period 2: swaps at 2 and 4
  const auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  gan::GanHyperParams hp;
  hp.batch = 8;
  hp.disc_steps = 1;

  const auto shards = shards_for(n, per_shard, seed);
  const auto want = reference_sync_train(arch, hp, /*k=*/2, shards, seed,
                                         iters, /*swap_enabled=*/true);

  dist::SimNetwork net(n);
  MdGanConfig cfg;
  cfg.hp = hp;
  cfg.k = 2;
  cfg.parallel_workers = false;
  MdGan md(arch, cfg, shards, seed, net);
  md.train(iters);
  EXPECT_EQ(md.generator().flatten_parameters(), want);
}

TEST(RoundEngineMdGan, NoSwapSyncAlsoMatchesReference) {
  const std::uint64_t seed = 67;
  const std::size_t n = 2, per_shard = 16;
  const auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  gan::GanHyperParams hp;
  hp.batch = 8;
  hp.disc_steps = 1;

  const auto shards = shards_for(n, per_shard, seed);
  const auto want = reference_sync_train(arch, hp, /*k=*/1, shards, seed,
                                         /*iters=*/4, /*swap_enabled=*/false);

  dist::SimNetwork net(n);
  MdGanConfig cfg;
  cfg.hp = hp;
  cfg.k = 1;
  cfg.swap_enabled = false;
  cfg.parallel_workers = false;
  MdGan md(arch, cfg, shards, seed, net);
  md.train(4);
  EXPECT_EQ(md.generator().flatten_parameters(), want);
}

TEST(RoundEngineMdGan, AsyncBoundedStalenessCapsUpdates) {
  dist::SimNetwork net(3);
  MdGanConfig cfg;
  cfg.hp.batch = 8;
  cfg.k = 1;
  cfg.parallel_workers = false;
  cfg.async = true;
  cfg.async_max_staleness = 0;  // only the freshest feedback applies
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
           shards_for(3, 16, 3), 11, net);
  md.train(4);
  EXPECT_EQ(md.generator_updates(), 4);          // one per round
  EXPECT_EQ(md.stale_feedbacks_dropped(), 8);    // two per round
}

TEST(RoundEngineMdGan, AsyncStalenessDampingChangesTrajectoryFinitely) {
  auto run = [](float damping) {
    dist::SimNetwork net(3);
    MdGanConfig cfg;
    cfg.hp.batch = 8;
    cfg.k = 1;
    cfg.parallel_workers = false;
    cfg.async = true;
    cfg.async_staleness_damping = damping;
    MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
             shards_for(3, 16, 5), 13, net);
    md.train(3);
    return md.generator().flatten_parameters();
  };
  const auto plain = run(0.f);
  const auto damped = run(0.5f);
  EXPECT_NE(plain, damped);
  for (float v : damped) ASSERT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace mdgan::core
