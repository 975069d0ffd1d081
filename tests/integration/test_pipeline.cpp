// End-to-end integration: the full stack (synthetic data -> shards ->
// simulated cluster -> MD-GAN / FL-GAN / standalone -> evaluator)
// exercised at miniature scale. These are the "does the whole paper
// pipeline hold together" tests; the bench binaries run the same
// pipeline at experiment scale.
#include <gtest/gtest.h>

#include <cmath>

#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"
#include "gan/fl_gan.hpp"
#include "metrics/evaluator.hpp"

namespace mdgan {
namespace {

struct Pipeline {
  data::InMemoryDataset train = data::make_synthetic_digits(256, 1001);
  data::InMemoryDataset test = data::make_synthetic_digits(128, 1002);
  gan::GanArch arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  metrics::Evaluator evaluator{train, test, {48, 2, 64, 1e-3f}, 128, 7};
};

gan::GanHyperParams fast_hp() {
  gan::GanHyperParams hp;
  hp.batch = 16;
  hp.disc_steps = 1;
  return hp;
}

TEST(Integration, MdGanImprovesScoresOverTraining) {
  Pipeline p;
  const std::size_t n = 2;
  Rng split_rng(3);
  auto shards = data::split_iid(p.train, n, split_rng);
  dist::SimNetwork net(n);
  core::MdGanConfig cfg;
  cfg.hp = fast_hp();
  cfg.k = 1;
  core::MdGan md(p.arch, cfg, std::move(shards), 55, net);

  const auto initial =
      p.evaluator.evaluate(md.generator(), p.arch, md.codes());
  md.train(120);
  const auto trained =
      p.evaluator.evaluate(md.generator(), p.arch, md.codes());

  EXPECT_TRUE(std::isfinite(trained.fid));
  EXPECT_TRUE(std::isfinite(trained.inception_score));
  // 120 iterations of an MLP GAN on easy synthetic digits must clearly
  // move the generator toward the data distribution.
  EXPECT_LT(trained.fid, initial.fid)
      << "FID " << initial.fid << " -> " << trained.fid;
  EXPECT_GT(trained.inception_score, 1.0);
}

TEST(Integration, FlGanRunsEndToEnd) {
  Pipeline p;
  const std::size_t n = 2;
  Rng split_rng(4);
  auto shards = data::split_iid(p.train, n, split_rng);
  dist::SimNetwork net(n);
  gan::FlGanConfig cfg;
  cfg.hp = fast_hp();
  gan::FlGan fl(p.arch, cfg, std::move(shards), 56, net);
  fl.train(40);
  auto g = fl.server_generator();
  const auto scores = p.evaluator.evaluate(g, p.arch, fl.codes());
  EXPECT_TRUE(std::isfinite(scores.fid));
  EXPECT_GE(scores.inception_score, 1.0);
  // FL-GAN moved model-sized traffic at least once (m=128/2=... shard
  // 128 -> round = 8 iterations at b=16).
  EXPECT_GT(net.totals(dist::LinkKind::kWorkerToServer).bytes, 1000000u);
}

TEST(Integration, MdGanVsStandaloneSeeSameSampleBudget) {
  // MD-GAN with N workers at batch b consumes N*b real images per
  // iteration; the standalone equivalent is batch N*b. This wiring
  // property keeps Fig. 3 comparisons fair. Here we only assert both
  // run and produce finite scores on the same evaluator.
  Pipeline p;
  gan::GanHyperParams hp = fast_hp();
  gan::StandaloneGan alone(p.arch, hp, 57);
  alone.train(p.train, 40);
  const auto s1 =
      p.evaluator.evaluate(alone.generator(), p.arch, alone.codes());

  Rng split_rng(5);
  auto shards = data::split_iid(p.train, 2, split_rng);
  dist::SimNetwork net(2);
  core::MdGanConfig cfg;
  cfg.hp = hp;
  core::MdGan md(p.arch, cfg, std::move(shards), 57, net);
  md.train(40);
  const auto s2 = p.evaluator.evaluate(md.generator(), p.arch, md.codes());

  EXPECT_TRUE(std::isfinite(s1.fid));
  EXPECT_TRUE(std::isfinite(s2.fid));
}

TEST(Integration, CrashRunStillProducesUsableGenerator) {
  Pipeline p;
  const std::size_t n = 3;
  Rng split_rng(6);
  auto shards = data::split_iid(p.train, n, split_rng);
  dist::SimNetwork net(n);
  auto crashes = dist::AvailabilitySchedule::evenly_spaced_crashes(60, n);
  core::MdGanConfig cfg;
  cfg.hp = fast_hp();
  core::MdGan md(p.arch, cfg, std::move(shards), 58, net, &crashes);
  md.train(60);
  // Last crash at iteration 60: the run completes with 0 workers only
  // at the final boundary.
  EXPECT_LE(net.alive_worker_count(), 1u);
  const auto scores =
      p.evaluator.evaluate(md.generator(), p.arch, md.codes());
  EXPECT_TRUE(std::isfinite(scores.fid));
}

TEST(Integration, DeterministicEndToEnd) {
  auto run = [] {
    auto train = data::make_synthetic_digits(128, 2001);
    Rng split_rng(7);
    auto shards = data::split_iid(train, 2, split_rng);
    dist::SimNetwork net(2);
    core::MdGanConfig cfg;
    cfg.hp = fast_hp();
    core::MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
                   std::move(shards), 99, net);
    md.train(10);
    return md.generator().flatten_parameters();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace mdgan
