// Tests for the §VII "perspectives" implemented as MD-GAN extensions:
// asynchronous server updates, feedback compression on the W->C link,
// and fewer discriminators than workers (sparse mode).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"

namespace mdgan::core {
namespace {

MdGanConfig base_cfg() {
  MdGanConfig cfg;
  cfg.hp.batch = 8;
  cfg.k = 1;
  return cfg;
}

std::vector<data::InMemoryDataset> shards_for(std::size_t n_workers,
                                              std::size_t per_shard,
                                              std::uint64_t seed) {
  auto full = data::make_synthetic_digits(n_workers * per_shard, seed);
  Rng rng(seed);
  return data::split_iid(full, n_workers, rng);
}

// --- async (§VII-1) -----------------------------------------------------

TEST(AsyncMdGan, AppliesOneUpdatePerFeedback) {
  dist::SimNetwork net(3);
  MdGanConfig cfg = base_cfg();
  cfg.async = true;
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
           shards_for(3, 16, 1), 5, net);
  md.train(4);
  // 3 participants per iteration, 4 iterations -> 12 generator updates.
  EXPECT_EQ(md.generator_updates(), 12);
  EXPECT_EQ(md.iterations_run(), 4);
}

TEST(AsyncMdGan, SyncAppliesOneUpdatePerIteration) {
  dist::SimNetwork net(3);
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), base_cfg(),
           shards_for(3, 16, 1), 5, net);
  md.train(4);
  EXPECT_EQ(md.generator_updates(), 4);
}

TEST(AsyncMdGan, DivergesFromSyncTrajectory) {
  auto run = [](bool async) {
    dist::SimNetwork net(2);
    MdGanConfig cfg = base_cfg();
    cfg.async = async;
    MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
             shards_for(2, 16, 2), 7, net);
    md.train(3);
    return md.generator().flatten_parameters();
  };
  EXPECT_NE(run(false), run(true));
}

TEST(AsyncMdGan, DeterministicForSameSeed) {
  auto run = [] {
    dist::SimNetwork net(2);
    MdGanConfig cfg = base_cfg();
    cfg.async = true;
    MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
             shards_for(2, 16, 3), 9, net);
    md.train(3);
    return md.generator().flatten_parameters();
  };
  EXPECT_EQ(run(), run());
}

TEST(AsyncMdGan, SingleWorkerAsyncMatchesSyncUpdateCount) {
  // With N=1 there is one feedback per iteration either way; async and
  // sync apply the same number of updates (trajectories still differ by
  // the 1/N scaling convention only when N > 1... with N=1 both scale
  // by 1, so they coincide).
  auto run = [](bool async) {
    dist::SimNetwork net(1);
    MdGanConfig cfg = base_cfg();
    cfg.async = async;
    MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
             shards_for(1, 16, 4), 11, net);
    md.train(3);
    return md.generator().flatten_parameters();
  };
  EXPECT_EQ(run(false), run(true));
}

// --- feedback compression (§VII-2) --------------------------------------

TEST(CompressedMdGan, Int8ShrinksWorkerToServerTraffic) {
  auto traffic = [](dist::CompressionKind kind) {
    dist::SimNetwork net(2);
    MdGanConfig cfg = base_cfg();
    cfg.swap_enabled = false;
    cfg.feedback_compression.kind = kind;
    MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
             shards_for(2, 16, 5), 13, net);
    md.train(3);
    return net.totals(dist::LinkKind::kWorkerToServer).bytes;
  };
  const auto dense = traffic(dist::CompressionKind::kNone);
  const auto quant = traffic(dist::CompressionKind::kQuantizeInt8);
  EXPECT_LT(quant * 3, dense);  // ~4x smaller
}

TEST(CompressedMdGan, TopKShrinksTrafficFurther) {
  dist::SimNetwork net(2);
  MdGanConfig cfg = base_cfg();
  cfg.swap_enabled = false;
  cfg.feedback_compression = {dist::CompressionKind::kTopK, 0.05f};
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
           shards_for(2, 16, 6), 13, net);
  md.train(3);
  // 5% of entries at 8B vs 100% at 4B: ~10x smaller than dense.
  const auto bytes = net.totals(dist::LinkKind::kWorkerToServer).bytes;
  const auto dense_would_be = 3ull * 2 * (4 + 1 + 8 + 4 * 8 * 784);
  EXPECT_LT(bytes * 5, dense_would_be);
}

TEST(CompressedMdGan, StillLearns) {
  // Compression is lossy but the generator must still move in a useful
  // direction: parameters change and no NaNs appear.
  dist::SimNetwork net(2);
  MdGanConfig cfg = base_cfg();
  cfg.feedback_compression.kind = dist::CompressionKind::kQuantizeInt8;
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
           shards_for(2, 16, 7), 15, net);
  const auto before = md.generator().flatten_parameters();
  md.train(5);
  const auto after = md.generator().flatten_parameters();
  EXPECT_NE(before, after);
  for (float v : after) ASSERT_TRUE(std::isfinite(v));
}

// --- sparse discriminators (§VII-4) --------------------------------------

TEST(SparseMdGan, FewerDiscriminatorsThanWorkers) {
  dist::SimNetwork net(4);
  MdGanConfig cfg = base_cfg();
  cfg.n_discriminators = 2;
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
           shards_for(4, 16, 8), 17, net);
  EXPECT_EQ(md.discriminator_count(), 2u);
  md.train(2);
  // Only 2 feedbacks per iteration cross the wire.
  EXPECT_EQ(net.message_count(dist::LinkKind::kWorkerToServer), 4u);
  EXPECT_EQ(md.iterations_run(), 2);
}

TEST(SparseMdGan, DiscriminatorsRelocateOnSwap) {
  dist::SimNetwork net(4);
  MdGanConfig cfg = base_cfg();
  cfg.n_discriminators = 2;
  cfg.hp.batch = 16;  // m=16: swap every iteration
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
           shards_for(4, 16, 9), 19, net);
  const int h0_before = md.holder_of(0);
  const int h1_before = md.holder_of(1);
  md.train(1);
  // Both discriminators moved to different workers.
  EXPECT_NE(md.holder_of(0), h0_before);
  EXPECT_NE(md.holder_of(1), h1_before);
  // And to *distinct* workers.
  EXPECT_NE(md.holder_of(0), md.holder_of(1));
  // The relocation crossed the wire as W->W traffic.
  EXPECT_GT(net.totals(dist::LinkKind::kWorkerToWorker).bytes, 0u);
}

TEST(SparseMdGan, VisitsMultipleWorkersOverTime) {
  // Over enough swap periods the discriminators should touch more
  // workers than they could simultaneously occupy — the §VII-4 point
  // that the whole distributed dataset gets leveraged.
  dist::SimNetwork net(5);
  MdGanConfig cfg = base_cfg();
  cfg.n_discriminators = 1;
  cfg.hp.batch = 16;  // swap every iteration
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
           shards_for(5, 16, 10), 21, net);
  std::set<int> visited{md.holder_of(0)};
  for (int i = 0; i < 10; ++i) {
    md.train(1);
    visited.insert(md.holder_of(0));
  }
  EXPECT_GE(visited.size(), 3u);
}

TEST(SparseMdGan, DiscDiesWithItsHost) {
  dist::SimNetwork net(3);
  dist::AvailabilitySchedule crashes;
  crashes.add_leave(2, 1);  // worker 1 hosts disc 0 initially
  MdGanConfig cfg = base_cfg();
  cfg.n_discriminators = 2;
  cfg.swap_enabled = false;  // holders stay put -> disc 0 dies at iter 2
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
           shards_for(3, 16, 11), 23, net, &crashes);
  md.train(3);
  EXPECT_EQ(md.holder_of(0), -1);  // lost
  EXPECT_EQ(md.holder_of(1), 2);   // still alive on worker 2
  EXPECT_EQ(md.iterations_run(), 3);
}

TEST(SparseMdGan, RejectsMoreDiscsThanWorkers) {
  dist::SimNetwork net(2);
  MdGanConfig cfg = base_cfg();
  cfg.n_discriminators = 3;
  EXPECT_THROW(MdGan(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
                     shards_for(2, 16, 12), 25, net),
               std::invalid_argument);
}

TEST(SparseMdGan, DiscriminatorOfThrowsForEmptyWorker) {
  dist::SimNetwork net(3);
  MdGanConfig cfg = base_cfg();
  cfg.n_discriminators = 1;
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
           shards_for(3, 16, 13), 27, net);
  EXPECT_NO_THROW(md.discriminator_of(1));
  EXPECT_THROW(md.discriminator_of(3), std::out_of_range);
}

}  // namespace
}  // namespace mdgan::core
