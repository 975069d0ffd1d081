#include "dist/sim_network.hpp"
#include "gan/fl_gan.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "data/synthetic.hpp"
#include "tensor/tensor_ops.hpp"

namespace mdgan::gan {
namespace {

FlGanConfig tiny_cfg() {
  FlGanConfig cfg;
  cfg.hp.batch = 8;
  cfg.epochs_per_round = 1;
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

// FL-GAN's workers run concurrently on the compute pool. A straight-line
// reference — the same seed-derived models and RNG streams, one
// local_gan_step per worker in id order, the same worker-order average
// at each sync — must end with the identical server generator.
TEST(FlGan, PooledWorkersMatchAStraightLineReference) {
  const std::size_t n = 3;
  const std::uint64_t seed = 31;
  const GanArch arch = make_arch(ArchKind::kMlpMnist);
  const FlGanConfig cfg = tiny_cfg();
  const auto shards = shards_for(n, 16, 7);  // m=16, b=8: a round is 2

  dist::SimNetwork net(n);
  FlGan fl(arch, cfg, shards, seed, net);
  fl.train(5);  // syncs after rounds 2 and 4

  struct RefWorker {
    nn::Sequential g, d;
    std::unique_ptr<opt::Adam> g_opt, d_opt;
    Rng rng;
  };
  std::vector<RefWorker> ref(n);
  for (std::size_t i = 0; i < n; ++i) {
    Rng init = Rng(seed).split(0x1417);  // every worker starts equal
    ref[i].g = build_generator(arch, init);
    ref[i].d = build_discriminator(arch, init);
    ref[i].g_opt = std::make_unique<opt::Adam>(
        ref[i].g.params(), ref[i].g.grads(), cfg.hp.g_adam);
    ref[i].d_opt = std::make_unique<opt::Adam>(
        ref[i].d.params(), ref[i].d.grads(), cfg.hp.d_adam);
    ref[i].rng = Rng(seed).split(0xf1a).split(i + 1);
  }
  // The parameter average over the workers, accumulated in id order.
  const float inv_n = 1.f / static_cast<float>(n);
  auto average = [&](nn::Sequential RefWorker::*model) {
    std::vector<float> avg((ref[0].*model).num_parameters(), 0.f);
    for (auto& w : ref) {
      const auto p = (w.*model).flatten_parameters();
      for (std::size_t j = 0; j < avg.size(); ++j) avg[j] += p[j] * inv_n;
    }
    return avg;
  };
  const ClassCodes codes(arch.image.num_classes, arch.latent_dim);
  for (int it = 1; it <= 5; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      local_gan_step(shards[i], ref[i].rng, ref[i].g, *ref[i].g_opt,
                     ref[i].d, *ref[i].d_opt, arch, codes, cfg.hp);
    }
    if (it % 2 == 0) {
      const auto g_avg = average(&RefWorker::g);
      const auto d_avg = average(&RefWorker::d);
      for (auto& w : ref) {
        w.g.assign_parameters(g_avg);
        w.d.assign_parameters(d_avg);
      }
    }
  }
  EXPECT_EQ(fl.server_generator().flatten_parameters(),
            average(&RefWorker::g));
}

}  // namespace
}  // namespace mdgan::gan
