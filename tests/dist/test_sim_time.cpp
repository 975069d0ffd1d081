// Simulated-time semantics of a 1-server/N-worker round: hand-computed
// critical paths on the raw SimNetwork, codec-vs-time tradeoffs on a
// bandwidth-bound link, and the MD-GAN training loop's per-round
// timing (straggler monotonicity, zero-model invariance, closed-form
// compute costs).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/cluster.hpp"

namespace mdgan::dist {
namespace {

ByteBuffer raw_bytes(std::size_t n) {
  ByteBuffer buf;
  for (std::size_t i = 0; i < n; ++i) buf.write_pod<std::uint8_t>(0x5a);
  return buf;
}

TEST(SimTime, HandComputedRoundCriticalPathIsSlowestWorker) {
  // 3 workers, 10 kB/s links, 10 ms latency; worker 2's links are 10x
  // slower. One synchronous round: batch down (100 B), 50 ms of local
  // compute, feedback up (40 B), 20 ms of server apply.
  SimNetwork net(3);
  LinkModel model(LinkParams{0.01, 1e4, 0.0});
  model.slow_node(2, 10.0);
  net.set_link_model(model);

  const double down_fast = 100.0 / 1e4 + 0.01;  // 0.02 s
  const double down_slow = 100.0 / 1e3 + 0.01;  // 0.11 s
  const double compute = 0.05;
  for (int w = 1; w <= 3; ++w) net.send(kServerId, w, "batch", raw_bytes(100));
  for (int w = 1; w <= 3; ++w) {
    auto m = net.receive_tagged(w, "batch");
    ASSERT_TRUE(m.has_value());
    net.advance_time(w, compute);
    net.send(w, kServerId, "fb", raw_bytes(40));
  }
  EXPECT_NEAR(net.sim_time(1), down_fast + compute, 1e-12);  // 0.07
  EXPECT_NEAR(net.sim_time(2), down_slow + compute, 1e-12);  // 0.16
  EXPECT_NEAR(net.sim_time(3), down_fast + compute, 1e-12);

  for (int w = 1; w <= 3; ++w) {
    ASSERT_TRUE(net.receive_tagged(kServerId, "fb").has_value());
  }
  // The server's clock is the slowest worker's feedback arrival: the
  // critical path runs through worker 2.
  const double path_fast = down_fast + compute + 40.0 / 1e4 + 0.01;  // 0.084
  const double path_slow = down_slow + compute + 40.0 / 1e3 + 0.01;  // 0.21
  EXPECT_GT(path_slow, path_fast);
  EXPECT_NEAR(net.sim_time(kServerId), path_slow, 1e-12);

  net.advance_time(kServerId, 0.02);  // server apply
  const auto clocks = sim_times_of(net);
  EXPECT_NEAR(clocks.server, path_slow + 0.02, 1e-12);
  EXPECT_NEAR(clocks.max_worker(), down_slow + compute, 1e-12);
  EXPECT_NEAR(clocks.critical_path(), path_slow + 0.02, 1e-12);
  EXPECT_NEAR(net.max_sim_time(), clocks.critical_path(), 1e-12);
  ASSERT_EQ(clocks.workers.size(), 3u);

  // Snapshot differences give per-round elapsed time.
  const auto later = sim_times_of(net);
  const auto delta = later - clocks;
  EXPECT_DOUBLE_EQ(delta.server, 0.0);
  EXPECT_DOUBLE_EQ(delta.critical_path(), 0.0);
}

TEST(SimTime, CodecsStrictlyReduceBandwidthBoundFeedbackTime) {
  // Feedback-shaped vector, bandwidth-only link: the simulated W->C
  // time is proportional to the wire size, so int8 must beat none and
  // top-k must beat int8.
  Rng rng(5);
  std::vector<float> feedback(6272);
  for (auto& x : feedback) x = rng.normal(0.f, 0.05f);

  auto w2c_seconds = [&](const CompressionConfig& cfg) {
    SimNetwork net(1);
    net.set_link_model(LinkModel(LinkParams{0.0, 1e6, 0.0}));
    ByteBuffer buf;
    compress(feedback, cfg, buf);
    net.send(1, kServerId, "fb", std::move(buf));
    EXPECT_TRUE(net.receive_tagged(kServerId, "fb").has_value());
    return net.sim_time(kServerId);
  };

  const double t_none = w2c_seconds({CompressionKind::kNone, 0.f});
  const double t_int8 = w2c_seconds({CompressionKind::kQuantizeInt8, 0.f});
  const double t_topk = w2c_seconds({CompressionKind::kTopK, 0.05f});
  EXPECT_GT(t_none, 0.0);
  EXPECT_LT(t_int8, t_none);
  EXPECT_LT(t_topk, t_int8);
}

// --- MD-GAN training-loop timing ---------------------------------------

core::MdGanConfig tiny_cfg() {
  core::MdGanConfig cfg;
  cfg.hp.batch = 8;
  cfg.hp.disc_steps = 1;
  cfg.k = 1;
  cfg.swap_enabled = false;
  return cfg;
}

std::vector<data::InMemoryDataset> shards_for(std::size_t n_workers,
                                              std::uint64_t seed) {
  auto full = data::make_synthetic_digits(n_workers * 16, seed);
  Rng rng(seed);
  return data::split_iid(full, n_workers, rng);
}

struct MdRun {
  std::vector<double> rounds;
  double total = 0.0;
  std::vector<float> gen_params;
  std::uint64_t c2w_bytes = 0;
  std::uint64_t w2c_bytes = 0;
};

MdRun run_md(const LinkModel& model, core::MdGanConfig cfg,
             std::int64_t iters = 3) {
  SimNetwork net(2);
  net.set_link_model(model);
  core::MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
                 shards_for(2, 9), 17, net);
  md.train(iters);
  MdRun out;
  out.rounds = md.round_sim_seconds();
  out.total = md.sim_seconds();
  out.gen_params = md.generator().flatten_parameters();
  out.c2w_bytes = net.totals(LinkKind::kServerToWorker).bytes;
  out.w2c_bytes = net.totals(LinkKind::kWorkerToServer).bytes;
  return out;
}

TEST(SimTime, ZeroModelKeepsEveryRoundAtZero) {
  const auto r = run_md(LinkModel{}, tiny_cfg());
  ASSERT_EQ(r.rounds.size(), 3u);
  for (double t : r.rounds) EXPECT_EQ(t, 0.0);
  EXPECT_EQ(r.total, 0.0);
}

TEST(SimTime, StragglerStretchesRoundsButNeverChangesTraining) {
  const LinkModel fair(LinkParams{0.001, 1e6, 0.0});
  LinkModel slow = fair;
  slow.slow_node(1, 10.0);

  const auto a = run_md(fair, tiny_cfg());
  const auto b = run_md(slow, tiny_cfg());
  ASSERT_EQ(a.rounds.size(), 3u);
  ASSERT_EQ(b.rounds.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(a.rounds[i], 0.0);
    // Every round runs through the straggler's links, so every round is
    // strictly longer than its homogeneous twin.
    EXPECT_GT(b.rounds[i], a.rounds[i]);
  }
  EXPECT_GT(b.total, a.total);
  // The virtual clock is observation-only: identical bytes on the wire,
  // bit-identical generator parameters.
  EXPECT_EQ(a.c2w_bytes, b.c2w_bytes);
  EXPECT_EQ(a.w2c_bytes, b.w2c_bytes);
  EXPECT_EQ(a.gen_params, b.gen_params);
}

TEST(SimTime, DeterministicAcrossRuns) {
  LinkModel model(LinkParams{0.002, 5e5, 0.003}, 21);  // jitter on
  const auto a = run_md(model, tiny_cfg());
  const auto b = run_md(model, tiny_cfg());
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total, b.total);
}

TEST(SimTime, FeedbackCompressionShrinksSimulatedRoundTime) {
  const LinkModel bw_bound(LinkParams{0.0, 1e6, 0.0});
  auto cfg = tiny_cfg();
  const auto none = run_md(bw_bound, cfg);
  cfg.feedback_compression = {CompressionKind::kQuantizeInt8, 0.f};
  const auto int8 = run_md(bw_bound, cfg);
  cfg.feedback_compression = {CompressionKind::kTopK, 0.05f};
  const auto topk = run_md(bw_bound, cfg);
  // W->C shrinks on the wire, so the simulated round time drops in
  // lock-step on a bandwidth-bound link.
  EXPECT_LT(int8.w2c_bytes, none.w2c_bytes);
  EXPECT_LT(topk.w2c_bytes, int8.w2c_bytes);
  EXPECT_LT(int8.total, none.total);
  EXPECT_LT(topk.total, int8.total);
}

TEST(SimTime, ModeledComputeCostsAreClosedForm) {
  // Zero link model + pure compute costs: each round is exactly
  // worker_step + server_update, because the workers run in simulated
  // parallel (all clocks advance together) and the server applies once.
  auto cfg = tiny_cfg();
  cfg.sim_worker_step_seconds = 0.5;
  cfg.sim_server_update_seconds = 0.25;
  const auto r = run_md(LinkModel{}, cfg, /*iters=*/2);
  ASSERT_EQ(r.rounds.size(), 2u);
  EXPECT_DOUBLE_EQ(r.rounds[0], 0.75);
  EXPECT_DOUBLE_EQ(r.rounds[1], 0.75);
  EXPECT_DOUBLE_EQ(r.total, 1.5);
}

}  // namespace
}  // namespace mdgan::dist
