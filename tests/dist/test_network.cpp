#include "dist/sim_network.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "dist/cluster.hpp"

namespace mdgan::dist {
namespace {

ByteBuffer payload_of(std::size_t n_floats, float fill = 1.f) {
  std::vector<float> v(n_floats, fill);
  ByteBuffer buf;
  buf.write_floats(v.data(), v.size());
  return buf;
}

TEST(Network, RejectsZeroWorkersAndBadIds) {
  EXPECT_THROW(SimNetwork(0), std::invalid_argument);
  SimNetwork net(2);
  EXPECT_THROW(net.send(0, 3, "t", ByteBuffer{}), std::out_of_range);
  EXPECT_THROW(net.send(-1, 1, "t", ByteBuffer{}), std::out_of_range);
  EXPECT_THROW(net.receive_tagged(5, "t"), std::out_of_range);
  EXPECT_THROW(net.is_alive(3), std::out_of_range);
  EXPECT_THROW(net.crash(kServerId), std::invalid_argument);
}

TEST(Network, LinkKindClassification) {
  EXPECT_EQ(link_kind(kServerId, 1), LinkKind::kServerToWorker);
  EXPECT_EQ(link_kind(2, kServerId), LinkKind::kWorkerToServer);
  EXPECT_EQ(link_kind(1, 2), LinkKind::kWorkerToWorker);
  EXPECT_THROW(link_kind(kServerId, kServerId), std::invalid_argument);
}

TEST(Network, RoutesToDestinationAndTag) {
  SimNetwork net(2);
  net.send(kServerId, 1, "a", payload_of(3, 1.f));
  net.send(kServerId, 2, "a", payload_of(3, 2.f));
  net.send(kServerId, 1, "b", payload_of(3, 3.f));

  // Worker 2 sees only its own mail.
  auto m2 = net.receive_tagged(2, "a");
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(m2->from, kServerId);
  EXPECT_EQ(m2->payload.read_floats()[0], 2.f);
  EXPECT_FALSE(net.receive_tagged(2, "a").has_value());

  // Tags are independent channels.
  auto m1b = net.receive_tagged(1, "b");
  ASSERT_TRUE(m1b.has_value());
  EXPECT_EQ(m1b->payload.read_floats()[0], 3.f);
  auto m1a = net.receive_tagged(1, "a");
  ASSERT_TRUE(m1a.has_value());
  EXPECT_EQ(m1a->payload.read_floats()[0], 1.f);
  EXPECT_EQ(net.pending(1), 0u);
}

TEST(Network, PerLinkByteAndMessageAccounting) {
  SimNetwork net(3);
  const std::size_t sz = 8 + 4 * 5;  // write_floats framing + 5 floats
  net.send(kServerId, 1, "t", payload_of(5));
  net.send(kServerId, 2, "t", payload_of(5));
  net.send(1, kServerId, "t", payload_of(5));
  net.send(2, 3, "t", payload_of(5));
  net.send(3, 1, "t", payload_of(5));

  EXPECT_EQ(net.totals(LinkKind::kServerToWorker).bytes, 2 * sz);
  EXPECT_EQ(net.totals(LinkKind::kWorkerToServer).bytes, sz);
  EXPECT_EQ(net.totals(LinkKind::kWorkerToWorker).bytes, 2 * sz);
  EXPECT_EQ(net.message_count(LinkKind::kServerToWorker), 2u);
  EXPECT_EQ(net.message_count(LinkKind::kWorkerToServer), 1u);
  EXPECT_EQ(net.message_count(LinkKind::kWorkerToWorker), 2u);
  EXPECT_EQ(net.totals(LinkKind::kWorkerToWorker).messages, 2u);
}

TEST(Network, MaxIngressTracksPerIterationWindows) {
  SimNetwork net(2);
  net.begin_iteration(1);
  net.send(kServerId, 1, "t", payload_of(10));  // 48 B
  net.send(2, 1, "t", payload_of(10));          // 48 B -> window 96
  net.begin_iteration(2);
  net.send(kServerId, 1, "t", payload_of(1));  // 12 B window
  const std::uint64_t sz10 = 8 + 40, sz1 = 8 + 4;
  EXPECT_EQ(net.max_ingress_per_iteration(1), 2 * sz10);
  // The open window participates without a closing begin_iteration.
  net.send(kServerId, 1, "t", payload_of(100));
  EXPECT_EQ(net.max_ingress_per_iteration(1), sz1 + 8 + 400);
  EXPECT_EQ(net.max_ingress_per_iteration(2), 0u);
}

TEST(Network, ReceiveOrderIsSenderThenSequenceNotArrival) {
  SimNetwork net(3);
  // Arrival order 3, 1, 2: the receiver must still drain 1, 2, 3.
  net.send(3, kServerId, "fb", payload_of(1, 3.f));
  net.send(1, kServerId, "fb", payload_of(1, 1.f));
  net.send(2, kServerId, "fb", payload_of(1, 2.f));
  for (float expect : {1.f, 2.f, 3.f}) {
    auto m = net.receive_tagged(kServerId, "fb");
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->payload.read_floats()[0], expect);
  }
  // Two messages from one sender drain in send order.
  net.send(1, kServerId, "fb", payload_of(1, 10.f));
  net.send(1, kServerId, "fb", payload_of(1, 11.f));
  EXPECT_EQ(net.receive_tagged(kServerId, "fb")->payload.read_floats()[0],
            10.f);
  EXPECT_EQ(net.receive_tagged(kServerId, "fb")->payload.read_floats()[0],
            11.f);
}

TEST(Network, DeterministicDrainUnderConcurrentSends) {
  // Many threads race their sends; the drain order must still be by
  // (sender, sequence) — the property the parallel-vs-sequential
  // training equivalence rests on.
  SimNetwork net(8);
  std::vector<std::thread> threads;
  for (int w = 1; w <= 8; ++w) {
    threads.emplace_back([&net, w] {
      for (int i = 0; i < 5; ++i) {
        net.send(w, kServerId, "fb",
                 payload_of(1, static_cast<float>(w * 100 + i)));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int w = 1; w <= 8; ++w) {
    for (int i = 0; i < 5; ++i) {
      auto m = net.receive_tagged(kServerId, "fb");
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->payload.read_floats()[0],
                static_cast<float>(w * 100 + i));
    }
  }
}

TEST(Network, SameSenderFifoUnderClusterPool) {
  // Regression for the receive-ordering doc/test gap: sequence numbers
  // are assigned under the network mutex in program order, so two sends
  // issued by one thread as the same sender can never be observed in
  // the opposite order — even when many for_each_worker tasks hammer the
  // same sender id concurrently and physical enqueue order is racy.
  SimNetwork net(4);
  const int kTasks = 8, kMsgs = 50;
  std::vector<int> task_ids(kTasks);
  for (int t = 0; t < kTasks; ++t) task_ids[t] = t;
  for_each_worker(
      task_ids,
      [&](int task) {
        const int sender = task % 4 + 1;  // two tasks share each sender
        for (int i = 0; i < kMsgs; ++i) {
          ByteBuffer buf;
          buf.write_pod<std::int32_t>(task * 1000 + i);
          net.send(sender, kServerId, "fb", std::move(buf));
        }
      },
      /*parallel=*/true);

  // Drain everything; per task, payloads must appear in send order.
  std::vector<int> last_seen(kTasks, -1);
  std::size_t drained = 0;
  while (auto m = net.receive_tagged(kServerId, "fb")) {
    const int value = m->payload.read_pod<std::int32_t>();
    const int task = value / 1000, i = value % 1000;
    ASSERT_LT(last_seen[task], i)
        << "task " << task << " reordered: saw " << i << " after "
        << last_seen[task];
    last_seen[task] = i;
    ++drained;
  }
  EXPECT_EQ(drained, static_cast<std::size_t>(kTasks * kMsgs));
  for (int t = 0; t < kTasks; ++t) EXPECT_EQ(last_seen[t], kMsgs - 1);
}

TEST(Network, DefaultClocksStayAtZero) {
  // No link model, no advance_time: the virtual clock is inert and the
  // transport behaves exactly as before it existed.
  SimNetwork net(2);
  net.send(kServerId, 1, "t", payload_of(16));
  auto m = net.receive_tagged(1, "t");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->arrival_s, 0.0);
  EXPECT_EQ(net.sim_time(kServerId), 0.0);
  EXPECT_EQ(net.sim_time(1), 0.0);
  EXPECT_EQ(net.max_sim_time(), 0.0);
  EXPECT_TRUE(net.link_model().zero());
}

TEST(Network, CrashDropsMailAndSilencesLinks) {
  SimNetwork net(3);
  net.send(kServerId, 1, "t", payload_of(4));
  EXPECT_EQ(net.pending(1), 1u);
  net.crash(1);
  EXPECT_FALSE(net.is_alive(1));
  EXPECT_EQ(net.pending(1), 0u);  // queued mail died with the worker
  EXPECT_FALSE(net.receive_tagged(1, "t").has_value());

  const auto before = net.totals(LinkKind::kServerToWorker).bytes;
  net.send(kServerId, 1, "t", payload_of(4));  // to the dead: dropped
  net.send(1, kServerId, "t", payload_of(4));  // from the dead: dropped
  EXPECT_EQ(net.totals(LinkKind::kServerToWorker).bytes, before);
  EXPECT_EQ(net.totals(LinkKind::kWorkerToServer).bytes, 0u);
  EXPECT_FALSE(net.receive_tagged(kServerId, "t").has_value());

  net.crash(1);  // idempotent
  EXPECT_EQ(net.alive_worker_count(), 2u);
  EXPECT_EQ(net.alive_workers(), (std::vector<int>{2, 3}));
  EXPECT_TRUE(net.is_alive(kServerId));
}

TEST(Network, CrashBumpsMembershipEpochOncePerDeath) {
  SimNetwork net(3);
  EXPECT_EQ(net.membership_epoch(), 0u);
  net.crash(1);
  EXPECT_EQ(net.membership_epoch(), 1u);
  net.crash(1);  // idempotent: a second crash is not a membership change
  EXPECT_EQ(net.membership_epoch(), 1u);
  net.crash(3);
  EXPECT_EQ(net.membership_epoch(), 2u);
}

TEST(ForEachWorker, SequentialPreservesOrder) {
  std::vector<int> seen;
  for_each_worker({3, 1, 2}, [&](int id) { seen.push_back(id); },
                  /*parallel=*/false);
  EXPECT_EQ(seen, (std::vector<int>{3, 1, 2}));
}

TEST(ForEachWorker, ParallelRunsEveryIdExactlyOnce) {
  std::vector<int> ids;
  for (int i = 1; i <= 32; ++i) ids.push_back(i);
  std::atomic<int> sum{0};
  for_each_worker(ids, [&](int id) { sum += id; }, /*parallel=*/true);
  EXPECT_EQ(sum.load(), 32 * 33 / 2);
}

TEST(ForEachWorker, PropagatesExceptionAfterAllTasksFinish) {
  std::atomic<int> ran{0};
  auto body = [&](int id) {
    ++ran;
    if (id == 2) throw std::runtime_error("boom");
  };
  EXPECT_THROW(for_each_worker({1, 2, 3, 4}, body, true),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 4);  // no task was abandoned
  ran = 0;
  EXPECT_THROW(for_each_worker({1, 2, 3, 4}, body, false),
               std::runtime_error);
}

}  // namespace
}  // namespace mdgan::dist
