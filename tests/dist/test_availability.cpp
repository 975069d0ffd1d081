// AvailabilitySchedule semantics (join/leave/rejoin intervals,
// fail-stop as the no-rejoin special case) and their effect on MD-GAN
// training: fail-stop equivalence, deterministic leave/rejoin runs,
// dormant discriminators, and the swap replay skipping absent workers.
#include "dist/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"

namespace mdgan::dist {
namespace {

TEST(AvailabilitySchedule, PresenceFollowsLeaveAndRejoin) {
  AvailabilitySchedule s;
  s.add_absence(/*worker=*/2, /*from=*/3, /*until=*/5);
  EXPECT_TRUE(s.present(2, 1));
  EXPECT_TRUE(s.present(2, 2));
  EXPECT_FALSE(s.present(2, 3));
  EXPECT_FALSE(s.present(2, 4));
  EXPECT_TRUE(s.present(2, 5));
  EXPECT_TRUE(s.present(2, 100));
  // Untouched workers are always present.
  EXPECT_TRUE(s.present(1, 3));
}

TEST(AvailabilitySchedule, PermanentLeaveNeverReturns) {
  AvailabilitySchedule s;
  s.add_leave(4, 1);
  EXPECT_TRUE(s.present(1, 3));
  EXPECT_FALSE(s.present(1, 4));
  EXPECT_FALSE(s.returns_after(1, 4));
  EXPECT_TRUE(s.returns_after(1, 2));  // still present at iteration 3
  // Another worker's leave is a separate fail-stop.
  s.add_leave(3, 2);
  EXPECT_FALSE(s.present(2, 3));
  EXPECT_FALSE(s.returns_after(2, 3));

  s.add_rejoin(9, 1);
  EXPECT_TRUE(s.returns_after(1, 4));
}

TEST(AvailabilitySchedule, ReturnsAfterSeesGapsBetweenAbsences) {
  AvailabilitySchedule s;
  s.add_absence(1, 2, 4);
  s.add_leave(6, 1);
  // Absent at 2-3, present at 4-5, gone from 6 on.
  EXPECT_TRUE(s.returns_after(1, 3));   // iteration 4 and 5 are present
  EXPECT_TRUE(s.returns_after(1, 4));   // iteration 5 is present
  EXPECT_FALSE(s.returns_after(1, 5));  // 6 on: absent forever
  // Back-to-back leave/rejoin at adjacent iterations leaves no gap.
  AvailabilitySchedule tight;
  tight.add_absence(1, 2, 3);
  tight.add_leave(3, 1);  // rejoin at 3 overridden by leave at 3
  EXPECT_FALSE(tight.returns_after(1, 1));
}

TEST(AvailabilitySchedule, ValidatesArguments) {
  AvailabilitySchedule s;
  EXPECT_THROW(s.add_leave(0, 1), std::invalid_argument);
  EXPECT_THROW(s.add_leave(1, 0), std::invalid_argument);
  EXPECT_THROW(s.add_absence(1, 3, 3), std::invalid_argument);
}

TEST(AvailabilitySchedule, CrashRejoinMarksStateLossAndTransfer) {
  AvailabilitySchedule s;
  s.add_crash_rejoin(/*worker=*/2, /*from=*/3, /*until=*/5);
  // Presence follows the same window as a plain absence...
  EXPECT_TRUE(s.present(2, 2));
  EXPECT_FALSE(s.present(2, 3));
  EXPECT_FALSE(s.present(2, 4));
  EXPECT_TRUE(s.present(2, 5));
  // ...but the leave destroys the worker's state and the rejoin is a
  // state-transfer re-admission, both visible only at their exact
  // iterations.
  EXPECT_TRUE(s.loses_state_at(2, 3));
  EXPECT_FALSE(s.loses_state_at(2, 4));
  EXPECT_FALSE(s.loses_state_at(2, 5));
  EXPECT_TRUE(s.state_rejoin_at(2, 5));
  EXPECT_FALSE(s.state_rejoin_at(2, 3));
  EXPECT_FALSE(s.state_rejoin_at(2, 4));
  EXPECT_FALSE(s.loses_state_at(1, 3));  // other workers unaffected
  EXPECT_FALSE(s.state_rejoin_at(1, 5));
  // A plain absence reports neither: its state stays dormant, not lost.
  AvailabilitySchedule plain;
  plain.add_absence(2, 3, 5);
  EXPECT_FALSE(plain.loses_state_at(2, 3));
  EXPECT_FALSE(plain.state_rejoin_at(2, 5));
}

TEST(AvailabilitySchedule, CrashRejoinValidatesWindow) {
  AvailabilitySchedule s;
  // A crash-rejoin MUST rejoin: an open-ended window is a plain
  // fail-stop (add_leave), not a state transfer.
  EXPECT_THROW(s.add_crash_rejoin(1, 3, 3), std::invalid_argument);
  EXPECT_THROW(s.add_crash_rejoin(1, 3, 2), std::invalid_argument);
  EXPECT_THROW(s.add_crash_rejoin(1, 3, 0), std::invalid_argument);
}

TEST(AvailabilitySchedule, EvenlySpacedCrashesKillEveryoneByTheEnd) {
  const auto s = AvailabilitySchedule::evenly_spaced_crashes(60, 3);
  // Workers fail-stop in id order at iterations 20, 40 and 60.
  for (int w = 1; w <= 3; ++w) {
    EXPECT_TRUE(s.present(w, 20 * w - 1));
    EXPECT_FALSE(s.present(w, 20 * w));
    EXPECT_FALSE(s.returns_after(w, 20 * w));
  }
  // Shorter run than workers: period clamps to one per iteration.
  const auto fast = AvailabilitySchedule::evenly_spaced_crashes(2, 4);
  EXPECT_FALSE(fast.present(1, 1));
  EXPECT_TRUE(fast.present(4, 3));
  EXPECT_FALSE(fast.present(4, 4));
  EXPECT_THROW(AvailabilitySchedule::evenly_spaced_crashes(0, 3),
               std::invalid_argument);
  EXPECT_THROW(AvailabilitySchedule::evenly_spaced_crashes(60, 0),
               std::invalid_argument);
}

// --- MD-GAN under availability schedules --------------------------------

core::MdGanConfig tiny_cfg() {
  core::MdGanConfig cfg;
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

TEST(MdGanAvailability, OpenEndedAbsenceMatchesLeaveBitForBit) {
  auto run = [](const AvailabilitySchedule& sched) {
    dist::SimNetwork net(3);
    core::MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), tiny_cfg(),
                   shards_for(3, 16, 8), 29, net, &sched);
    md.train(4);
    return std::make_tuple(md.generator().flatten_parameters(),
                           net.totals(LinkKind::kServerToWorker).bytes,
                           net.totals(LinkKind::kWorkerToServer).bytes,
                           net.totals(LinkKind::kWorkerToWorker).bytes,
                           net.alive_worker_count());
  };
  AvailabilitySchedule absence;
  absence.add_absence(/*worker=*/1, /*from=*/2);  // no `until`: fail-stop
  AvailabilitySchedule leave;
  leave.add_leave(2, 1);
  EXPECT_EQ(run(absence), run(leave));
  EXPECT_EQ(std::get<4>(run(absence)), 2u);  // the transport crashed it
}

TEST(MdGanAvailability, LeaveRejoinIsDeterministicAndFinite) {
  auto run = [] {
    dist::SimNetwork net(3);
    AvailabilitySchedule sched;
    sched.add_absence(2, 2, 4);  // away for rounds 2 and 3
    core::MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), tiny_cfg(),
                   shards_for(3, 16, 9), 31, net, &sched);
    md.train(5);
    EXPECT_EQ(md.iterations_run(), 5);
    EXPECT_TRUE(net.is_alive(2));  // it left, it did not crash
    return md.generator().flatten_parameters();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  for (float v : a) ASSERT_TRUE(std::isfinite(v));
}

TEST(MdGanAvailability, AbsentWorkerShipsNothingWhileAway) {
  dist::SimNetwork net(2);
  AvailabilitySchedule sched;
  sched.add_absence(2, 2, 3);  // away for round 2 only
  core::MdGanConfig cfg = tiny_cfg();
  cfg.swap_enabled = false;
  core::MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
                 shards_for(2, 16, 10), 37, net, &sched);
  md.train(3);
  // 2 feedbacks in rounds 1 and 3, 1 in round 2.
  EXPECT_EQ(net.message_count(LinkKind::kWorkerToServer), 5u);
  EXPECT_EQ(net.message_count(LinkKind::kServerToWorker), 5u);
  // The dormant discriminator stayed with its absent host.
  EXPECT_EQ(md.holder_of(1), 2);
}

TEST(MdGanAvailability, SwapSkipsAbsentWorkerInOneRun) {
  dist::SimNetwork net(3);
  AvailabilitySchedule sched;
  sched.add_absence(3, 2, 3);  // away exactly for round 2
  core::MdGanConfig cfg = tiny_cfg();
  cfg.hp.batch = 16;  // swap every round
  core::MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
                 shards_for(3, 16, 13), 43, net, &sched);
  md.train(2);
  EXPECT_EQ(md.iterations_run(), 2);
  // After round 1's 3-way swap somebody's discriminator sits on worker
  // 3; round 2's swap runs over present workers {1, 2} only, so that
  // discriminator must still be there, and the other two must have
  // traded places (the only derangement of two elements).
  int on_3 = 0;
  for (std::size_t j = 0; j < 3; ++j) {
    if (md.holder_of(j) == 3) ++on_3;
  }
  EXPECT_EQ(on_3, 1);
  std::set<int> holders{md.holder_of(0), md.holder_of(1), md.holder_of(2)};
  EXPECT_EQ(holders, (std::set<int>{1, 2, 3}));  // nothing lost
}

TEST(MdGanAvailability, AllAwayRoundsIdleThenResume) {
  dist::SimNetwork net(1);
  AvailabilitySchedule sched;
  sched.add_absence(1, 2, 4);  // the only worker is away for 2 rounds
  core::MdGanConfig cfg = tiny_cfg();
  cfg.swap_enabled = false;
  core::MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
                 shards_for(1, 16, 14), 47, net, &sched);
  md.train(5);
  EXPECT_EQ(md.iterations_run(), 5);         // idle rounds still count
  EXPECT_EQ(md.generator_updates(), 3);      // rounds 1, 4, 5
  EXPECT_EQ(md.round_sim_seconds().size(), 5u);
}

}  // namespace
}  // namespace mdgan::dist
