// Parameterized invariant sweep over MD-GAN configurations: for every
// (N, k, b, L, swap, async, compression) combination in the grid, the
// same system-level invariants must hold. This is the blanket property
// suite over the orchestration layer, complementing the targeted tests
// in test_md_gan.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"

namespace mdgan::core {
namespace {

struct SweepConfig {
  std::string name;
  std::size_t workers;
  std::size_t k;
  std::size_t batch;
  std::size_t disc_steps;
  bool swap;
  bool async;
  dist::CompressionKind compression;
};

class MdGanConfigSweep : public ::testing::TestWithParam<SweepConfig> {};

TEST_P(MdGanConfigSweep, InvariantsHold) {
  const auto& c = GetParam();
  const std::int64_t iters = 3;

  auto full = data::make_synthetic_digits(c.workers * 24, 777);
  Rng split_rng(7);
  auto shards = data::split_iid(full, c.workers, split_rng);
  dist::SimNetwork net(c.workers);

  MdGanConfig cfg;
  cfg.hp.batch = c.batch;
  cfg.hp.disc_steps = c.disc_steps;
  cfg.k = c.k;
  cfg.swap_enabled = c.swap;
  cfg.async = c.async;
  cfg.feedback_compression.kind = c.compression;

  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
           std::move(shards), 31, net);
  const auto before = md.generator().flatten_parameters();
  md.train(iters);

  // 1. The run completed and the generator moved.
  EXPECT_EQ(md.iterations_run(), iters);
  const auto after = md.generator().flatten_parameters();
  EXPECT_NE(before, after);

  // 2. No parameter became non-finite under any configuration.
  for (float v : after) ASSERT_TRUE(std::isfinite(v));

  // 3. Generator update count matches the mode.
  if (c.async) {
    EXPECT_EQ(md.generator_updates(),
              iters * static_cast<std::int64_t>(c.workers));
  } else {
    EXPECT_EQ(md.generator_updates(), iters);
  }

  // 4. Message counts: one C->W and one W->C message per participant
  //    per iteration, regardless of k / L / compression.
  EXPECT_EQ(net.message_count(dist::LinkKind::kServerToWorker),
            static_cast<std::uint64_t>(iters) * c.workers);
  EXPECT_EQ(net.message_count(dist::LinkKind::kWorkerToServer),
            static_cast<std::uint64_t>(iters) * c.workers);

  // 5. C->W bytes follow the 2-batches-per-worker wire format exactly
  //    (independent of compression, which only touches W->C).
  const std::uint64_t d = 784;
  const std::uint64_t c2w_msg = 2 * (4 + 8 + 4 * c.batch * d + 4 * c.batch);
  EXPECT_EQ(net.totals(dist::LinkKind::kServerToWorker).bytes,
            static_cast<std::uint64_t>(iters) * c.workers * c2w_msg);

  // 6. Compression never inflates the feedback link.
  const std::uint64_t dense_w2c =
      static_cast<std::uint64_t>(iters) * c.workers *
      (4 + 1 + 8 + 4 * c.batch * d);
  EXPECT_LE(net.totals(dist::LinkKind::kWorkerToServer).bytes, dense_w2c);

  // 7. Swap traffic appears iff swapping is on and more than one worker
  //    exists (shard size 24, batch <= 12 -> at least one swap in 3
  //    iterations when the period divides).
  if (!c.swap || c.workers < 2) {
    EXPECT_EQ(net.totals(dist::LinkKind::kWorkerToWorker).bytes, 0u);
  }

  // 8. Determinism: a second universe with the same seed produces the
  //    same generator.
  {
    auto full2 = data::make_synthetic_digits(c.workers * 24, 777);
    Rng split2(7);
    auto shards2 = data::split_iid(full2, c.workers, split2);
    dist::SimNetwork net2(c.workers);
    MdGan md2(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
              std::move(shards2), 31, net2);
    md2.train(iters);
    EXPECT_EQ(md2.generator().flatten_parameters(), after);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MdGanConfigSweep,
    ::testing::Values(
        SweepConfig{"n1_k1", 1, 1, 8, 1, true, false,
                    dist::CompressionKind::kNone},
        SweepConfig{"n2_k1", 2, 1, 8, 1, true, false,
                    dist::CompressionKind::kNone},
        SweepConfig{"n3_k2", 3, 2, 8, 1, true, false,
                    dist::CompressionKind::kNone},
        SweepConfig{"n3_k3", 3, 3, 8, 1, true, false,
                    dist::CompressionKind::kNone},
        SweepConfig{"n2_L2", 2, 1, 8, 2, true, false,
                    dist::CompressionKind::kNone},
        SweepConfig{"n2_noswap", 2, 1, 8, 1, false, false,
                    dist::CompressionKind::kNone},
        SweepConfig{"n2_async", 2, 1, 8, 1, true, true,
                    dist::CompressionKind::kNone},
        SweepConfig{"n3_async_k2", 3, 2, 8, 1, true, true,
                    dist::CompressionKind::kNone},
        SweepConfig{"n2_int8", 2, 1, 8, 1, true, false,
                    dist::CompressionKind::kQuantizeInt8},
        SweepConfig{"n2_topk", 2, 1, 8, 1, true, false,
                    dist::CompressionKind::kTopK},
        SweepConfig{"n2_batch12", 2, 1, 12, 1, true, false,
                    dist::CompressionKind::kNone},
        SweepConfig{"n4_k2_async_int8", 4, 2, 6, 1, true, true,
                    dist::CompressionKind::kQuantizeInt8}),
    [](const ::testing::TestParamInfo<SweepConfig>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace mdgan::core
