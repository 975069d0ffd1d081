#include "core/md_gan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"

namespace mdgan::core {
namespace {

MdGanConfig tiny_cfg(std::size_t k = 1) {
  MdGanConfig cfg;
  cfg.hp.batch = 8;
  cfg.hp.disc_steps = 1;
  cfg.k = k;
  cfg.epochs_per_swap = 1;
  cfg.parallel_workers = false;  // deterministic order for tests
  return cfg;
}

std::vector<data::InMemoryDataset> shards_for(std::size_t n_workers,
                                              std::size_t per_shard,
                                              std::uint64_t seed) {
  auto full = data::make_synthetic_digits(n_workers * per_shard, seed);
  Rng rng(seed);
  return data::split_iid(full, n_workers, rng);
}

TEST(MdGan, KLogNMatchesPaperChoices) {
  EXPECT_EQ(k_log_n(1), 1u);
  EXPECT_EQ(k_log_n(2), 1u);   // floor(ln 2) = 0 -> clamped to 1
  EXPECT_EQ(k_log_n(10), 2u);  // floor(ln 10) = 2
  EXPECT_EQ(k_log_n(25), 3u);
  EXPECT_EQ(k_log_n(50), 3u);
  EXPECT_THROW(k_log_n(0), std::invalid_argument);
}

TEST(MdGan, ValidatesConstruction) {
  dist::SimNetwork net(2);
  EXPECT_THROW(MdGan(gan::make_arch(gan::ArchKind::kMlpMnist), tiny_cfg(3),
                     shards_for(2, 16, 1), 1, net),
               std::invalid_argument);  // k > N
  dist::SimNetwork net3(3);
  EXPECT_THROW(MdGan(gan::make_arch(gan::ArchKind::kMlpMnist), tiny_cfg(1),
                     shards_for(2, 16, 1), 1, net3),
               std::invalid_argument);  // network/shard mismatch
}

TEST(MdGan, TrainsAndUpdatesGenerator) {
  dist::SimNetwork net(2);
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), tiny_cfg(),
           shards_for(2, 16, 2), 7, net);
  const auto before = md.generator().flatten_parameters();
  md.train(3);
  EXPECT_NE(md.generator().flatten_parameters(), before);
  EXPECT_EQ(md.iterations_run(), 3);
}

TEST(MdGan, DeterministicForSameSeed) {
  auto run = [] {
    dist::SimNetwork net(2);
    MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), tiny_cfg(2),
             shards_for(2, 16, 3), 11, net);
    md.train(3);
    return md.generator().flatten_parameters();
  };
  EXPECT_EQ(run(), run());
}

TEST(MdGan, TrafficMatchesAnalyticModelExactly) {
  // Wire format per worker per iteration:
  //   C->W: 2 x (4B batch id + 8B length + 4bd floats + 4b labels)
  //   W->C: 4B batch id + 1B codec tag + 8B length + 4bd floats
  const std::size_t n = 3, b = 8, d = 784;
  dist::SimNetwork net(n);
  MdGanConfig cfg = tiny_cfg(2);
  cfg.swap_enabled = false;
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
           shards_for(n, 16, 4), 13, net);
  const std::int64_t iters = 5;
  md.train(iters);

  const std::uint64_t c2w_per_worker = 2 * (4 + 8 + 4 * b * d + 4 * b);
  const std::uint64_t w2c_per_worker = 4 + 1 + 8 + 4 * b * d;
  EXPECT_EQ(net.totals(dist::LinkKind::kServerToWorker).bytes,
            iters * n * c2w_per_worker);
  EXPECT_EQ(net.totals(dist::LinkKind::kWorkerToServer).bytes,
            iters * n * w2c_per_worker);
  EXPECT_EQ(net.totals(dist::LinkKind::kWorkerToWorker).bytes, 0u);
  // One message per worker per direction per iteration.
  EXPECT_EQ(net.message_count(dist::LinkKind::kServerToWorker),
            static_cast<std::uint64_t>(iters * n));
  EXPECT_EQ(net.message_count(dist::LinkKind::kWorkerToServer),
            static_cast<std::uint64_t>(iters * n));
}

TEST(MdGan, SwapHappensEveryEpochAndMovesThetaBytes) {
  // m=16, b=8 -> swap period 2 iterations. 4 iterations -> 2 swaps.
  const std::size_t n = 3;
  dist::SimNetwork net(n);
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), tiny_cfg(),
           shards_for(n, 16, 5), 17, net);
  EXPECT_EQ(md.swap_period(), 2);
  md.train(4);
  const std::uint64_t theta = 670219;
  // 4B disc index + 8B length header + theta float32 values.
  const std::uint64_t per_swap_msg = 4 + 8 + 4 * theta;
  EXPECT_EQ(net.totals(dist::LinkKind::kWorkerToWorker).bytes,
            2 * n * per_swap_msg);
  EXPECT_EQ(net.message_count(dist::LinkKind::kWorkerToWorker), 2u * n);
}

TEST(MdGan, SwapPermutesDiscriminatorsWithoutLoss) {
  // Train one iteration in two identical universes, one with swapping
  // and one without. The swap run must end with the same multiset of
  // discriminator parameters, each moved to a different worker.
  const std::size_t n = 3;
  auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  MdGanConfig with = tiny_cfg();
  with.hp.batch = 16;  // m=16, b=16 -> swap every iteration
  MdGanConfig without = with;
  without.swap_enabled = false;

  dist::SimNetwork net_a(n), net_b(n);
  MdGan a(arch, with, shards_for(n, 16, 6), 19, net_a);
  MdGan b(arch, without, shards_for(n, 16, 6), 19, net_b);
  a.train(1);
  b.train(1);

  std::vector<std::vector<float>> swapped, unswapped;
  for (std::size_t w = 1; w <= n; ++w) {
    swapped.push_back(a.discriminator_of(w).flatten_parameters());
    unswapped.push_back(b.discriminator_of(w).flatten_parameters());
  }
  // Same multiset...
  auto sorted_a = swapped;
  auto sorted_b = unswapped;
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_b.begin(), sorted_b.end());
  EXPECT_EQ(sorted_a, sorted_b);
  // ...but nobody kept their own discriminator (derangement).
  for (std::size_t w = 0; w < n; ++w) {
    EXPECT_NE(swapped[w], unswapped[w]) << "worker " << w + 1;
  }
}

TEST(MdGan, NoSwapWithSingleWorker) {
  dist::SimNetwork net(1);
  MdGanConfig cfg = tiny_cfg();
  cfg.hp.batch = 16;
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
           shards_for(1, 16, 7), 23, net);
  md.train(2);  // swap period 1, but only one worker: swap skipped
  EXPECT_EQ(net.totals(dist::LinkKind::kWorkerToWorker).bytes, 0u);
}

TEST(MdGan, CrashRemovesWorkerAndTrainingContinues) {
  const std::size_t n = 3;
  dist::SimNetwork net(n);
  dist::AvailabilitySchedule crashes;
  crashes.add_leave(2, 1);
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), tiny_cfg(),
           shards_for(n, 16, 8), 29, net, &crashes);
  md.train(4);
  EXPECT_EQ(md.iterations_run(), 4);
  EXPECT_FALSE(net.is_alive(1));
  EXPECT_EQ(net.alive_worker_count(), 2u);
}

TEST(MdGan, StopsWhenAllWorkersCrashed) {
  const std::size_t n = 2;
  dist::SimNetwork net(n);
  dist::AvailabilitySchedule crashes;
  crashes.add_leave(2, 1);
  crashes.add_leave(3, 2);
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), tiny_cfg(),
           shards_for(n, 16, 9), 31, net, &crashes);
  md.train(10);
  EXPECT_EQ(md.iterations_run(), 2);  // iteration 3 finds nobody alive
}

TEST(MdGan, KEffectiveShrinksWithCrashes) {
  // k=2 with 2 workers; after one crashes, k_eff drops to 1 and the
  // run still proceeds (regression guard for k > alive).
  const std::size_t n = 2;
  dist::SimNetwork net(n);
  dist::AvailabilitySchedule crashes;
  crashes.add_leave(2, 2);
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), tiny_cfg(2),
           shards_for(n, 16, 10), 37, net, &crashes);
  md.train(4);
  EXPECT_EQ(md.iterations_run(), 4);
}

TEST(MdGan, DifferentKChangesTrajectory) {
  auto run = [](std::size_t k) {
    dist::SimNetwork net(3);
    MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), tiny_cfg(k),
             shards_for(3, 16, 11), 41, net);
    md.train(3);
    return md.generator().flatten_parameters();
  };
  EXPECT_NE(run(1), run(3));
}

TEST(MdGan, EvalHookFires) {
  dist::SimNetwork net(2);
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), tiny_cfg(),
           shards_for(2, 16, 12), 43, net);
  std::vector<std::int64_t> hooks;
  md.train(4, 2, [&](std::int64_t it, nn::Sequential&) {
    hooks.push_back(it);
  });
  EXPECT_EQ(hooks, (std::vector<std::int64_t>{2, 4}));
}

TEST(MdGan, ParallelAndSequentialWorkersAgree) {
  // Workers touch disjoint state; thread-pool execution must produce
  // the same result as sequential execution.
  auto run = [](bool parallel) {
    dist::SimNetwork net(3);
    MdGanConfig cfg = tiny_cfg(2);
    cfg.parallel_workers = parallel;
    MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
             shards_for(3, 16, 13), 47, net);
    md.train(3);
    return md.generator().flatten_parameters();
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace mdgan::core
