#include "dist/sim_network.hpp"
#include "gan/fl_gan.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "tensor/tensor_ops.hpp"

namespace mdgan::gan {
namespace {

FlGanConfig tiny_cfg() {
  FlGanConfig cfg;
  cfg.hp.batch = 8;
  cfg.epochs_per_round = 1;
  cfg.parallel_workers = false;  // deterministic order in tests
  return cfg;
}

std::vector<data::InMemoryDataset> shards_for(std::size_t n_workers,
                                              std::size_t per_shard,
                                              std::uint64_t seed) {
  auto full =
      data::make_synthetic_digits(n_workers * per_shard, seed);
  Rng rng(seed);
  return data::split_iid(full, n_workers, rng);
}

TEST(FlGan, ConstructsWithMatchingNetwork) {
  dist::SimNetwork net(3);
  FlGan fl(make_arch(ArchKind::kMlpMnist), tiny_cfg(), shards_for(3, 32, 1),
           11, net);
  EXPECT_EQ(fl.n_workers(), 3u);
}

TEST(FlGan, RejectsMismatchedNetwork) {
  dist::SimNetwork net(2);
  EXPECT_THROW(FlGan(make_arch(ArchKind::kMlpMnist), tiny_cfg(),
                     shards_for(3, 32, 1), 11, net),
               std::invalid_argument);
}

TEST(FlGan, RoundLengthIsEpochTimesShardOverBatch) {
  dist::SimNetwork net(2);
  FlGanConfig cfg = tiny_cfg();
  cfg.epochs_per_round = 2;
  FlGan fl(make_arch(ArchKind::kMlpMnist), cfg, shards_for(2, 32, 1), 11,
           net);
  // m=32, b=8, E=2 -> 8 iterations per round.
  EXPECT_EQ(fl.round_length(), 8);
}

TEST(FlGan, SynchronizationMovesModelSizedTraffic) {
  dist::SimNetwork net(2);
  GanArch arch = make_arch(ArchKind::kMlpMnist);
  FlGan fl(arch, tiny_cfg(), shards_for(2, 16, 2), 13, net);
  // m=16, b=8 -> round = 2 iterations; run exactly one round.
  fl.train(2);

  // Each worker uploads (|w|+|θ|) floats + two 8-byte length headers,
  // then downloads the same.
  const std::uint64_t model_floats = 716560 + 670219;
  const std::uint64_t per_msg = model_floats * 4 + 16;
  EXPECT_EQ(net.totals(dist::LinkKind::kWorkerToServer).bytes, 2 * per_msg);
  EXPECT_EQ(net.totals(dist::LinkKind::kServerToWorker).bytes, 2 * per_msg);
  EXPECT_EQ(net.totals(dist::LinkKind::kWorkerToWorker).bytes, 0u);
}

TEST(FlGan, WorkersIdenticalAfterSync) {
  dist::SimNetwork net(3);
  FlGan fl(make_arch(ArchKind::kMlpMnist), tiny_cfg(), shards_for(3, 16, 3),
           17, net);
  fl.train(2);  // exactly one round (m=16, b=8)
  // All workers' generators equal the server average.
  auto avg = fl.server_generator().flatten_parameters();
  // server_generator averages the (already averaged) workers: equal.
  FlGan& ref = fl;
  auto again = ref.server_generator().flatten_parameters();
  EXPECT_EQ(avg, again);
}

TEST(FlGan, SingleWorkerSyncIsIdentity) {
  // With N=1 the average equals the worker: FL-GAN degenerates to a
  // standalone GAN on the shard (modulo the traffic).
  dist::SimNetwork net(1);
  auto shard = shards_for(1, 32, 4);
  FlGan fl(make_arch(ArchKind::kMlpMnist), tiny_cfg(), std::move(shard), 19,
           net);
  fl.train(4);  // one round at m=32,b=8
  auto avg = fl.server_generator().flatten_parameters();
  EXPECT_FALSE(avg.empty());
}

TEST(FlGan, DeterministicAcrossRuns) {
  auto make = [] {
    dist::SimNetwork net(2);
    FlGan fl(make_arch(ArchKind::kMlpMnist), tiny_cfg(),
             shards_for(2, 16, 5), 23, net);
    fl.train(3);
    return fl.server_generator().flatten_parameters();
  };
  EXPECT_EQ(make(), make());
}

TEST(FlGan, EvalHookReceivesAveragedGenerator) {
  dist::SimNetwork net(2);
  FlGan fl(make_arch(ArchKind::kMlpMnist), tiny_cfg(), shards_for(2, 16, 6),
           29, net);
  int calls = 0;
  fl.train(4, 2, [&](std::int64_t it, nn::Sequential& g) {
    ++calls;
    EXPECT_EQ(g.num_parameters(), 716560u);
  });
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace mdgan::gan
