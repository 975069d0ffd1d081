// Rejoin-to-training, simulator side: the RejoinState codec, the
// deterministic scripted crash-rejoin (state transfer as SPMD shared
// knowledge), and the bounded retry policy of receive_resilient.
#include "core/rejoin.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"

namespace mdgan::core {
namespace {

TEST(RejoinState, EncodeDecodeRoundtrips) {
  RejoinState st;
  st.admission_round = 7;
  st.membership_epoch = 3;
  st.generator_params = {1.5f, -2.25f, 0.f, 1e-7f};
  st.holders = {1, -1, 3};
  Rng rng(99);
  for (int i = 0; i < 13; ++i) rng.next_u64();
  rng.normal();  // a primed Box-Muller spare must survive the wire
  st.swap_rng = rng.state();

  ByteBuffer wire = st.encode();
  RejoinState back = RejoinState::decode(wire);
  EXPECT_EQ(back.admission_round, 7);
  EXPECT_EQ(back.membership_epoch, 3u);
  EXPECT_EQ(back.generator_params, st.generator_params);
  EXPECT_EQ(back.holders, st.holders);

  // The restored swap stream continues exactly where the original is.
  Rng restored(0);
  restored.set_state(back.swap_rng);
  EXPECT_EQ(restored.next_u64(), rng.next_u64());
  EXPECT_EQ(restored.permutation(8), rng.permutation(8));
}

TEST(RejoinState, TruncatedPayloadIsACleanError) {
  RejoinState st;
  st.admission_round = 2;
  st.generator_params.assign(64, 0.5f);
  st.holders = {1, 2};
  st.swap_rng = Rng(5).state();
  const ByteBuffer full = st.encode();

  // Every strict prefix must decode to a runtime_error, never UB or an
  // out_of_range leaking from the buffer layer.
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                          full.size() / 2, full.size() - 1}) {
    ByteBuffer truncated;
    truncated.append_raw(full.data(), cut);
    EXPECT_THROW(RejoinState::decode(truncated), std::runtime_error)
        << "prefix of " << cut << " bytes";
  }

  // A wrong version byte fails loudly too.
  std::vector<std::uint8_t> bytes(full.data(), full.data() + full.size());
  bytes[0] = 0x7f;
  ByteBuffer bad = ByteBuffer::wrap(bytes.data(), bytes.size());
  EXPECT_THROW(RejoinState::decode(bad), std::runtime_error);
}

// --- scripted crash-rejoin in the simulator -----------------------------

MdGanConfig tiny_cfg() {
  MdGanConfig cfg;
  cfg.hp.batch = 8;
  cfg.hp.disc_steps = 1;
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

std::vector<float> run_crash_rejoin(bool crash, bool swap) {
  dist::SimNetwork net(3);
  dist::AvailabilitySchedule sched;
  if (crash) {
    sched.add_crash_rejoin(2, 2, 4);  // state lost at 2, re-admitted at 4
  } else {
    sched.add_absence(2, 2, 4);  // dormant: state survives the absence
  }
  MdGanConfig cfg = tiny_cfg();
  cfg.swap_enabled = swap;
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
           shards_for(3, 16, 21), 53, net, &sched);
  md.train(6);
  EXPECT_EQ(md.iterations_run(), 6);
  EXPECT_TRUE(net.is_alive(2));  // a crash-rejoin worker comes back
  auto params = md.generator().flatten_parameters();
  for (float v : params) EXPECT_TRUE(std::isfinite(v));
  return params;
}

TEST(MdGanCrashRejoin, ScriptedLateJoinIsBitIdentical) {
  const auto a = run_crash_rejoin(/*crash=*/true, /*swap=*/false);
  const auto b = run_crash_rejoin(/*crash=*/true, /*swap=*/false);
  EXPECT_EQ(a, b);
  // Swaps replay deterministically across the admission too.
  const auto c = run_crash_rejoin(/*crash=*/true, /*swap=*/true);
  const auto d = run_crash_rejoin(/*crash=*/true, /*swap=*/true);
  EXPECT_EQ(c, d);
}

TEST(MdGanCrashRejoin, StateLossDivergesFromDormantAbsence) {
  // Same presence window, different physics: the crash-rejoin worker
  // comes back with a REBORN discriminator and a reseeded sampling
  // stream, the dormant worker resumes its old ones. The generator
  // trajectories must differ once it is back (round 4 on).
  const auto crashed = run_crash_rejoin(/*crash=*/true, /*swap=*/false);
  const auto dormant = run_crash_rejoin(/*crash=*/false, /*swap=*/false);
  EXPECT_NE(crashed, dormant);
}

TEST(MdGanCrashRejoin, RebornDiscriminatorReturnsToItsWorker) {
  dist::SimNetwork net(2);
  dist::AvailabilitySchedule sched;
  sched.add_crash_rejoin(2, 2, 3);
  MdGanConfig cfg = tiny_cfg();
  cfg.swap_enabled = false;
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
           shards_for(2, 16, 22), 57, net, &sched);
  md.train(4);
  EXPECT_EQ(md.iterations_run(), 4);
  // With swaps off D_1 lives on worker 2: it died at round 2 and a
  // fresh incarnation was re-admitted with the worker at round 3.
  EXPECT_EQ(md.holder_of(1), 2);
  EXPECT_EQ(md.holder_of(0), 1);
}

// --- receive_resilient's bounded retry policy ---------------------------

// A transport whose receive always comes back empty while membership
// churns forever: every epoch snapshot is stale by wakeup time, the
// waited-on sender stays alive. Exactly the pathological flap the
// retry budget exists for.
class ChurningTransport final : public dist::Transport {
 public:
  std::size_t n_workers() const override { return 2; }
  void begin_iteration(std::int64_t) override {}
  void send(int, int, const std::string&, ByteBuffer&&) override {}
  std::optional<dist::Message> receive_tagged(int,
                                              const std::string&) override {
    ++epoch_;  // some OTHER peer died/rejoined while we waited
    return std::nullopt;
  }
  std::size_t pending(int) const override { return 0; }
  dist::LinkTotals totals(dist::LinkKind) const override { return {}; }
  std::uint64_t message_count(dist::LinkKind) const override { return 0; }
  std::uint64_t max_ingress_per_iteration(int) const override { return 0; }
  double sim_time(int) const override { return 0.0; }
  void advance_time(int, double) override {}
  double max_sim_time() const override { return 0.0; }
  void crash(int worker) override { dead_ = worker; }
  bool is_alive(int node) const override { return node != dead_; }
  std::vector<int> alive_workers() const override { return {1, 2}; }
  std::size_t alive_worker_count() const override { return 2; }
  std::uint64_t membership_epoch() const override { return epoch_; }

 private:
  std::uint64_t epoch_ = 0;
  int dead_ = -1;
};

TEST(ReceiveResilient, ExhaustedChurnBudgetThrowsCleanly) {
  ChurningTransport net;
  RecvRetryPolicy policy;
  policy.churn_retries = 5;
  try {
    receive_resilient(net, dist::kServerId, "feedback", 1, policy);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("membership-churn"),
              std::string::npos);
  }
}

TEST(ReceiveResilient, ExhaustedTimeoutThrowsCleanly) {
  ChurningTransport net;
  RecvRetryPolicy policy;
  policy.churn_retries = static_cast<std::size_t>(-1);  // only time bounds
  policy.total_timeout_s = 1e-9;
  EXPECT_THROW(receive_resilient(net, dist::kServerId, "feedback", 1, policy),
               std::runtime_error);
}

TEST(ReceiveResilient, DeadSenderIsNulloptNotAnError) {
  ChurningTransport net;
  net.crash(1);
  RecvRetryPolicy policy;
  policy.churn_retries = 0;  // would throw if the churn path were taken
  const auto msg =
      receive_resilient(net, dist::kServerId, "feedback", 1, policy);
  EXPECT_FALSE(msg.has_value());
}

}  // namespace
}  // namespace mdgan::core
