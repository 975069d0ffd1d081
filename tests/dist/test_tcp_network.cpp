// The real TCP backend, over 127.0.0.1: routing/ordering/accounting
// semantics of the Transport contract, fail-stop detection on a dropped
// connection, and the acceptance property of the whole subsystem — a
// loopback MD-GAN run (server + 2 workers as real endpoints) is
// bit-identical in generator weights and per-link traffic totals to the
// in-process SimNetwork run with the same seeds.
#include "dist/tcp_network.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/md_gan.hpp"
#include "core/rejoin.hpp"
#include "data/synthetic.hpp"
#include "dist/frame.hpp"
#include "dist/sim_network.hpp"
#include "obs/json.hpp"
#include "obs/sink.hpp"

namespace mdgan::dist {
namespace {

ByteBuffer payload_of(std::size_t n_floats, float fill = 1.f) {
  std::vector<float> v(n_floats, fill);
  ByteBuffer buf;
  buf.write_floats(v.data(), v.size());
  return buf;
}

TcpOptions fast_opts() {
  TcpOptions opts;
  opts.rendezvous_timeout_s = 20.0;
  opts.receive_timeout_s = 20.0;
  return opts;
}

// Polls `pred` until true or the deadline; returns its final value.
bool eventually(const std::function<bool()>& pred, double timeout_s = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// What the server role ends a loopback run with.
struct ServerEnd {
  std::vector<float> generator;  // final θ, flattened
  std::vector<int> holders;      // holder_of(j) for every discriminator
};

// Every discriminator's holder, as an MdGan's bookkeeping sees it.
std::vector<int> holder_map(const core::MdGan& md) {
  std::vector<int> out;
  for (std::size_t j = 0; j < md.discriminator_count(); ++j) {
    out.push_back(md.holder_of(j));
  }
  return out;
}

// Trains MD-GAN as real endpoints over 127.0.0.1: the server role on
// `server` plus one worker role per shard, each on its own thread, all
// under the same config, seed and schedule. Returns the server's final
// generator and holder map.
ServerEnd train_over_tcp(
    TcpNetwork& server, const gan::GanArch& arch,
    const core::MdGanConfig& cfg,
    const std::vector<data::InMemoryDataset>& shards, std::uint64_t seed,
    std::int64_t iters, const AvailabilitySchedule* sched = nullptr) {
  const std::size_t n_workers = shards.size();
  const auto port = server.port();
  ServerEnd got;
  std::vector<std::string> errors(n_workers + 1);
  std::thread server_thread([&] {
    try {
      core::MdGanConfig scfg = cfg;
      scfg.shard_size = shards[0].size();  // no shard to derive it from
      core::MdGan md(arch, scfg, {}, seed, server, sched,
                     core::NodeRole::server());
      md.train(iters);
      got = {md.generator().flatten_parameters(), holder_map(md)};
    } catch (const std::exception& e) {
      errors[0] = e.what();
    }
  });
  std::vector<std::thread> worker_threads;
  for (std::size_t w = 1; w <= n_workers; ++w) {
    worker_threads.emplace_back([&, w] {
      try {
        auto net = TcpNetwork::connect("127.0.0.1", port,
                                       static_cast<int>(w), n_workers,
                                       fast_opts());
        core::MdGan md(arch, cfg, {shards[w - 1]}, seed, *net, sched,
                       core::NodeRole::worker(static_cast<int>(w)));
        md.train(iters);
      } catch (const std::exception& e) {
        errors[w] = e.what();
      }
    });
  }
  server_thread.join();
  for (auto& t : worker_threads) t.join();
  for (std::size_t i = 0; i < errors.size(); ++i) {
    EXPECT_TRUE(errors[i].empty()) << "role " << i << ": " << errors[i];
  }
  return got;
}

// The server endpoint observes all three link classes (it relays
// worker->worker), so its totals must equal the simulator's global
// ones, message for message.
void expect_same_ledger(const TcpNetwork& server, const SimNetwork& sim) {
  for (auto kind : {LinkKind::kServerToWorker, LinkKind::kWorkerToServer,
                    LinkKind::kWorkerToWorker}) {
    EXPECT_EQ(server.totals(kind).bytes, sim.totals(kind).bytes);
    EXPECT_EQ(server.totals(kind).messages, sim.totals(kind).messages);
  }
}

TEST(TcpNetwork, LoopbackRoutingOrderingAndAccounting) {
  auto server = TcpNetwork::serve(0, 2, fast_opts());
  auto w1 = TcpNetwork::connect("127.0.0.1", server->port(), 1, 2,
                                fast_opts());
  auto w2 = TcpNetwork::connect("127.0.0.1", server->port(), 2, 2,
                                fast_opts());
  ASSERT_TRUE(server->wait_ready());
  EXPECT_EQ(server->alive_worker_count(), 2u);

  // Worker -> server, with a blocking receive on the other side.
  w1->send(1, kServerId, "fb", payload_of(3, 1.f));
  auto m = server->receive_tagged(kServerId, "fb");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->from, 1);
  EXPECT_EQ(m->payload.read_floats(), std::vector<float>(3, 1.f));

  // Per-sender FIFO: two sends from one worker drain in send order.
  w1->send(1, kServerId, "fb", payload_of(1, 10.f));
  w1->send(1, kServerId, "fb", payload_of(1, 11.f));
  EXPECT_EQ(server->receive_tagged(kServerId, "fb")->payload.read_floats()[0],
            10.f);
  EXPECT_EQ(server->receive_tagged(kServerId, "fb")->payload.read_floats()[0],
            11.f);

  // Deterministic pop: with both senders' mail queued, the lower sender
  // id pops first regardless of arrival order.
  w2->send(2, kServerId, "fb", payload_of(1, 2.f));
  w1->send(1, kServerId, "fb", payload_of(1, 1.f));
  ASSERT_TRUE(eventually([&] { return server->pending(kServerId) == 2; }));
  EXPECT_EQ(server->receive_tagged(kServerId, "fb")->from, 1);
  EXPECT_EQ(server->receive_tagged(kServerId, "fb")->from, 2);

  // Worker -> worker relays through the star and keeps the sender id.
  w1->send(1, 2, "swap", payload_of(1, 7.f));
  auto s = w2->receive_tagged(2, "swap");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->from, 1);
  EXPECT_EQ(s->payload.read_floats()[0], 7.f);

  // Server -> worker.
  server->send(kServerId, 1, "gen", payload_of(1, 5.f));
  auto g = w1->receive_tagged(1, "gen");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->from, kServerId);

  // The server endpoint's accountant saw every class of traffic,
  // charged by payload size (payload_of(n) is 8 + 4n wire bytes).
  const std::uint64_t sz1 = 8 + 4, sz3 = 8 + 12;
  EXPECT_EQ(server->totals(LinkKind::kWorkerToServer).bytes, sz3 + 4 * sz1);
  EXPECT_EQ(server->message_count(LinkKind::kWorkerToServer), 5u);
  EXPECT_EQ(server->totals(LinkKind::kWorkerToWorker).bytes, sz1);
  EXPECT_EQ(server->message_count(LinkKind::kWorkerToWorker), 1u);
  EXPECT_EQ(server->totals(LinkKind::kServerToWorker).bytes, sz1);
  // Each endpoint sees its own side of the same ledger.
  EXPECT_EQ(w1->totals(LinkKind::kServerToWorker).bytes, sz1);
  EXPECT_EQ(w2->totals(LinkKind::kWorkerToWorker).bytes, sz1);

  // Endpoints speak only as their own node.
  EXPECT_THROW(server->receive_tagged(1, "t"), std::logic_error);
  EXPECT_THROW(w1->send(2, kServerId, "t", payload_of(1)),
               std::logic_error);
  EXPECT_THROW(w1->pending(kServerId), std::logic_error);
  // '!' tags are transport-internal.
  EXPECT_THROW(w1->send(1, kServerId, "!hello", payload_of(1)),
               std::invalid_argument);
  // Measured time is monotone and nonzero by now.
  EXPECT_GT(server->max_sim_time(), 0.0);
  server->advance_time(kServerId, 1.0);  // no-op, but negative still throws
  EXPECT_THROW(server->advance_time(kServerId, -1.0),
               std::invalid_argument);
}

TEST(TcpNetwork, ReceiveTimesOutWithNullopt) {
  TcpOptions opts = fast_opts();
  opts.receive_timeout_s = 0.3;
  auto server = TcpNetwork::serve(0, 1, opts);
  auto w1 = TcpNetwork::connect("127.0.0.1", server->port(), 1, 1, opts);
  ASSERT_TRUE(server->wait_ready());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(server->receive_tagged(kServerId, "never").has_value());
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(waited, 0.25);
}

TEST(TcpNetwork, RendezvousTimesOutWithoutWorkers) {
  TcpOptions opts;
  opts.rendezvous_timeout_s = 0.3;
  auto server = TcpNetwork::serve(0, 2, opts);
  EXPECT_FALSE(server->wait_ready());
}

TEST(TcpNetwork, ConnectionDropIsFailStopCrash) {
  auto server = TcpNetwork::serve(0, 2, fast_opts());
  auto w1 = TcpNetwork::connect("127.0.0.1", server->port(), 1, 2,
                                fast_opts());
  auto w2 = TcpNetwork::connect("127.0.0.1", server->port(), 2, 2,
                                fast_opts());
  ASSERT_TRUE(server->wait_ready());
  ASSERT_EQ(server->alive_workers(), (std::vector<int>{1, 2}));

  // Worker 2's process dies: the server detects EOF and fail-stops it.
  w2.reset();
  ASSERT_TRUE(eventually([&] { return !server->is_alive(2); }));
  EXPECT_EQ(server->alive_workers(), (std::vector<int>{1}));
  EXPECT_EQ(server->alive_worker_count(), 1u);

  // Sends to the dead worker are dropped silently, charging nothing —
  // the same fail-stop semantics SimNetwork::crash gives.
  const auto before = server->totals(LinkKind::kServerToWorker).bytes;
  server->send(kServerId, 2, "t", payload_of(4));
  EXPECT_EQ(server->totals(LinkKind::kServerToWorker).bytes, before);

  // The survivor is unaffected.
  server->send(kServerId, 1, "t", payload_of(4));
  EXPECT_TRUE(w1->receive_tagged(1, "t").has_value());

  // An explicit crash() severs the connection; the worker endpoint
  // observes the drop as the server's death.
  server->crash(1);
  EXPECT_FALSE(server->is_alive(1));
  EXPECT_EQ(server->alive_worker_count(), 0u);
  ASSERT_TRUE(eventually([&] { return !w1->is_alive(kServerId); }));
  EXPECT_THROW(server->crash(kServerId), std::invalid_argument);

  // With every peer dead, a blocking receive must give up promptly
  // (nullopt for "dead cluster") instead of sitting out the timeout.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(server->receive_tagged(kServerId, "never").has_value());
  EXPECT_FALSE(w1->receive_tagged(1, "never").has_value());
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 5.0);  // well under the 20 s receive timeout
}

// The subsystem's acceptance criterion: one tiny MD-GAN training run,
// executed twice — in-process over the SimNetwork, and as three real
// TCP endpoints (server + 2 worker roles on their own threads) over
// 127.0.0.1 — lands on bit-identical generator weights and identical
// per-link byte/message totals. Four iterations with swap period 2, so
// the discriminator swap (relayed worker->worker) is exercised twice.
TEST(TcpMdGan, LoopbackRunMatchesSimulatorBitForBit) {
  const std::uint64_t seed = 29;
  const std::size_t n_workers = 2, per_shard = 16;
  const std::int64_t iters = 4;
  const auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  core::MdGanConfig cfg;
  cfg.hp.batch = 8;
  cfg.hp.disc_steps = 1;
  cfg.k = 2;
  cfg.epochs_per_swap = 1;

  auto full = data::make_synthetic_digits(n_workers * per_shard, seed);
  Rng split_rng(seed);
  const auto shards = data::split_iid(full, n_workers, split_rng);

  // Reference: the deterministic in-process simulation.
  SimNetwork sim(n_workers);
  core::MdGan reference(arch, cfg, shards, seed, sim);
  reference.train(iters);
  const auto want = reference.generator().flatten_parameters();

  // Real thing: three endpoints, three roles, one loopback.
  auto server = TcpNetwork::serve(0, n_workers, fast_opts());
  // Bit-identical generator weights and an identical wire ledger.
  EXPECT_EQ(train_over_tcp(*server, arch, cfg, shards, seed, iters).generator,
            want);
  expect_same_ledger(*server, sim);
  EXPECT_EQ(server->max_ingress_per_iteration(kServerId),
            sim.max_ingress_per_iteration(kServerId));
  EXPECT_GT(server->totals(LinkKind::kWorkerToWorker).bytes, 0u)
      << "the run should have exercised the relayed discriminator swap";
}

// Elastic workers over real sockets: worker 2 is scheduled away for
// rounds 2 and 3 and rejoins at round 4. The schedule is SPMD shared
// knowledge (every role gets the identical one), so the run must
// complete without deadlock — the server neither sends to nor waits on
// the absent worker, the swap replay skips it deterministically (the
// round-2 swap finds one present worker and is skipped; the round-4
// swap relays as usual) — and must stay bit-identical to the simulator
// under the same schedule.
TEST(TcpMdGan, LeaveAndRejoinCompletesAndMatchesSimulator) {
  const std::uint64_t seed = 31;
  const std::size_t n_workers = 2, per_shard = 16;
  const std::int64_t iters = 5;
  const auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  core::MdGanConfig cfg;
  cfg.hp.batch = 8;
  cfg.hp.disc_steps = 1;
  cfg.k = 2;
  cfg.epochs_per_swap = 1;

  AvailabilitySchedule sched;
  sched.add_absence(/*worker=*/2, /*from=*/2, /*until=*/4);

  auto full = data::make_synthetic_digits(n_workers * per_shard, seed);
  Rng split_rng(seed);
  const auto shards = data::split_iid(full, n_workers, split_rng);

  SimNetwork sim(n_workers);
  core::MdGan reference(arch, cfg, shards, seed, sim, &sched);
  reference.train(iters);
  const auto want = reference.generator().flatten_parameters();
  ASSERT_EQ(reference.iterations_run(), iters);
  for (float v : want) ASSERT_TRUE(std::isfinite(v));

  auto server = TcpNetwork::serve(0, n_workers, fast_opts());
  EXPECT_EQ(
      train_over_tcp(*server, arch, cfg, shards, seed, iters, &sched).generator,
      want);
  expect_same_ledger(*server, sim);
  EXPECT_GT(server->totals(LinkKind::kWorkerToWorker).bytes, 0u)
      << "the post-rejoin swap should have crossed the relay";
}

// The §VII-4 sparse mode on role-split endpoints: two discriminators
// for three workers, so worker 3 starts with none, and a swap that
// moves one onto it adopts on a process that hosted nothing. Shard 16
// at batch 8 swaps every 2 rounds, three times in 6 rounds.
TEST(TcpMdGan, SparseDiscriminatorsMatchSimulator) {
  const std::uint64_t seed = 41;
  const std::size_t n_workers = 3, per_shard = 16;
  const std::int64_t iters = 6;
  const auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  core::MdGanConfig cfg;
  cfg.hp.batch = 8;
  cfg.hp.disc_steps = 1;
  cfg.k = 2;
  cfg.epochs_per_swap = 1;
  cfg.n_discriminators = 2;

  auto full = data::make_synthetic_digits(n_workers * per_shard, seed);
  Rng split_rng(seed);
  const auto shards = data::split_iid(full, n_workers, split_rng);

  SimNetwork sim(n_workers);
  core::MdGan reference(arch, cfg, shards, seed, sim);
  bool reached_worker_3 = false;
  reference.train(iters, /*eval_every=*/1,
                  [&](std::int64_t, nn::Sequential&) {
                    for (std::size_t j = 0; j < 2; ++j) {
                      reached_worker_3 |= reference.holder_of(j) == 3;
                    }
                  });
  ASSERT_TRUE(reached_worker_3)
      << "no swap moved a discriminator onto worker 3";

  // The workers exit right after their last swap, so the server's
  // bookkeeping-only replay of that swap may already see them dead; its
  // holder map must still follow the simulator's.
  auto server = TcpNetwork::serve(0, n_workers, fast_opts());
  const ServerEnd got =
      train_over_tcp(*server, arch, cfg, shards, seed, iters);
  EXPECT_EQ(got.generator, reference.generator().flatten_parameters());
  EXPECT_EQ(got.holders, holder_map(reference));
  expect_same_ledger(*server, sim);
  EXPECT_GT(server->totals(LinkKind::kWorkerToWorker).messages, 0u);
}

// The control plane end to end: a worker vanishing bumps the server's
// membership epoch and the survivor learns of the death via a !death
// notice (no data traffic between them ever existed); the dead id
// re-dialling is granted a rejoin under a further-bumped epoch instead
// of being rejected as a duplicate hello, and traffic — including the
// worker->worker relay — flows across the re-accepted connection.
TEST(TcpNetwork, DeathNoticeAndRejoinUnderBumpedEpoch) {
  auto server = TcpNetwork::serve(0, 2, fast_opts());
  auto w1 = TcpNetwork::connect("127.0.0.1", server->port(), 1, 2,
                                fast_opts());
  auto w2 = TcpNetwork::connect("127.0.0.1", server->port(), 2, 2,
                                fast_opts());
  ASSERT_TRUE(server->wait_ready());
  ASSERT_TRUE(w1->wait_ready());
  ASSERT_TRUE(w2->wait_ready());
  EXPECT_EQ(server->membership_epoch(), 0u);

  // Worker 2 vanishes without a goodbye.
  w2.reset();
  ASSERT_TRUE(eventually([&] { return !server->is_alive(2); }));
  EXPECT_GE(server->membership_epoch(), 1u);
  // The survivor hears about it over the control plane.
  ASSERT_TRUE(eventually([&] { return !w1->is_alive(2); }));
  EXPECT_TRUE(w1->wait_membership_epoch(1, 10.0));

  // The dead id re-dials and is granted a rejoin, not rejected.
  auto w2b = TcpNetwork::connect("127.0.0.1", server->port(), 2, 2,
                                 fast_opts());
  ASSERT_TRUE(w2b->wait_ready());
  EXPECT_TRUE(w2b->rejoin_granted());
  EXPECT_GE(w2b->membership_epoch(), 2u);
  ASSERT_TRUE(eventually([&] { return server->is_alive(2); }));
  EXPECT_GE(server->membership_epoch(), 2u);
  // The revival reaches the survivor via the rebroadcast !epoch bitmap;
  // a worker that never died was never granted a rejoin.
  ASSERT_TRUE(eventually(
      [&] { return w1->is_alive(2) && w1->membership_epoch() >= 2; }));
  EXPECT_FALSE(w1->rejoin_granted());

  // The re-accepted connection carries real traffic in every direction.
  server->send(kServerId, 2, "t", payload_of(1, 3.f));
  auto m = w2b->receive_tagged(2, "t");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->from, kServerId);
  w1->send(1, 2, "swap", payload_of(1, 9.f));
  auto s = w2b->receive_tagged(2, "swap");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->from, 1);
  w2b->send(2, kServerId, "fb", payload_of(1, 4.f));
  EXPECT_TRUE(server->receive_tagged(kServerId, "fb").has_value());
}

// `Threads:` of this process, from /proc/self/status.
int process_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// One event loop per endpoint: serve() and connect() each start exactly
// one thread whatever the cluster size — W hellos, W connections and the
// control pump included — and close() ends it.
TEST(TcpNetwork, EachEndpointRunsOneThreadForAnyW) {
  for (std::size_t n_workers : {std::size_t{2}, std::size_t{8}}) {
    const int base = process_threads();
    ASSERT_GT(base, 0);
    auto server = TcpNetwork::serve(0, n_workers, fast_opts());
    EXPECT_EQ(process_threads(), base + 1) << "W=" << n_workers;
    std::vector<std::unique_ptr<TcpNetwork>> workers;
    for (std::size_t w = 1; w <= n_workers; ++w) {
      const int before = process_threads();
      workers.push_back(TcpNetwork::connect("127.0.0.1", server->port(),
                                            static_cast<int>(w), n_workers,
                                            fast_opts()));
      ASSERT_TRUE(workers.back()->wait_ready());
      EXPECT_EQ(process_threads(), before + 1) << "worker " << w;
    }
    ASSERT_TRUE(server->wait_ready());
    EXPECT_EQ(process_threads(),
              base + 1 + static_cast<int>(n_workers))
        << "W=" << n_workers;
    // A joined thread can linger in the count for a moment after its
    // join returns; poll until the kernel has reaped it.
    for (auto& w : workers) {
      const int before = process_threads();
      w->close();
      EXPECT_TRUE(eventually([&] { return process_threads() == before - 1; }));
    }
    server->close();
    EXPECT_TRUE(eventually([&] { return process_threads() == base; }))
        << "W=" << n_workers;
  }
}

// close() during the rendezvous must abort wait_ready with false —
// not report a cluster that never formed as ready, and not sit out the
// full rendezvous deadline.
TEST(TcpNetwork, WaitReadyFailsWhenClosedMidRendezvous) {
  TcpOptions opts;
  opts.rendezvous_timeout_s = 30.0;  // close(), not the deadline, ends it
  auto server = TcpNetwork::serve(0, 2, opts);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server->close();
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(server->wait_ready());
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 10.0);
  closer.join();
}

// Drop diagnostics come from the dead peer's OWN connection: each
// conn tracks its last received frame, so a quiet link does not
// inherit a chatty neighbour's stats (the endpoint-global bug this
// replaced would have reported worker 1's frames for worker 2).
TEST(TcpNetwork, DropDiagnosticsUsePerConnectionStats) {
  auto server = TcpNetwork::serve(0, 2, fast_opts());
  auto w1 = TcpNetwork::connect("127.0.0.1", server->port(), 1, 2,
                                fast_opts());
  auto w2 = TcpNetwork::connect("127.0.0.1", server->port(), 2, 2,
                                fast_opts());
  ASSERT_TRUE(server->wait_ready());
  ASSERT_TRUE(w1->wait_ready());

  w1->send(1, kServerId, "fb", payload_of(1, 1.f));
  w1->send(1, kServerId, "fb", payload_of(1, 2.f));
  w2->send(2, kServerId, "other", payload_of(1, 3.f));
  ASSERT_TRUE(server->receive_tagged(kServerId, "fb").has_value());
  ASSERT_TRUE(server->receive_tagged(kServerId, "fb").has_value());
  ASSERT_TRUE(server->receive_tagged(kServerId, "other").has_value());

  const auto rx1 = server->last_rx_of(1);
  EXPECT_TRUE(rx1.any);
  EXPECT_EQ(rx1.src, 1);
  EXPECT_EQ(rx1.tag, "fb");
  EXPECT_EQ(rx1.frames, 2u);
  const auto rx2 = server->last_rx_of(2);
  EXPECT_TRUE(rx2.any);
  EXPECT_EQ(rx2.src, 2);
  EXPECT_EQ(rx2.tag, "other");
  EXPECT_EQ(rx2.frames, 1u);
  // The worker side counts at least the control ack of its rendezvous.
  const auto rxw = w1->last_rx_of(kServerId);
  EXPECT_TRUE(rxw.any);
  EXPECT_GE(rxw.frames, 1u);
}

// An UNSCHEDULED mid-run death over real sockets: worker 2 trains one
// round and then vanishes (kill -9 semantics — its endpoint is simply
// destroyed, no schedule announced it). The server must detect the
// EOF, fail-stop the worker, shrink the affected collect to what is
// still alive, and finish every remaining round with finite weights
// instead of dying on "missing feedback".
TEST(TcpMdGan, ServerSurvivesWorkerVanishingMidRun) {
  const std::uint64_t seed = 37;
  const std::size_t n_workers = 2, per_shard = 16;
  const std::int64_t iters = 3;
  const auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  core::MdGanConfig cfg;
  cfg.hp.batch = 8;
  cfg.hp.disc_steps = 1;
  cfg.k = 2;
  cfg.swap_enabled = false;  // survivor count can drop below 2

  auto full = data::make_synthetic_digits(n_workers * per_shard, seed);
  Rng split_rng(seed);
  const auto shards = data::split_iid(full, n_workers, split_rng);

  auto server = TcpNetwork::serve(0, n_workers, fast_opts());
  const auto port = server->port();
  std::vector<float> got;
  std::int64_t server_iters = 0;
  std::vector<std::string> errors(3);
  std::thread server_thread([&] {
    try {
      core::MdGanConfig scfg = cfg;
      scfg.shard_size = per_shard;
      core::MdGan md(arch, scfg, {}, seed, *server, nullptr,
                     core::NodeRole::server());
      md.train(iters);
      server_iters = md.iterations_run();
      got = md.generator().flatten_parameters();
    } catch (const std::exception& e) {
      errors[0] = e.what();
    }
  });
  std::thread w1_thread([&] {
    try {
      auto net = TcpNetwork::connect("127.0.0.1", port, 1, n_workers,
                                     fast_opts());
      core::MdGan md(arch, cfg, {shards[0]}, seed, *net, nullptr,
                     core::NodeRole::worker(1));
      md.train(iters);
    } catch (const std::exception& e) {
      errors[1] = e.what();
    }
  });
  std::thread w2_thread([&] {
    try {
      auto net = TcpNetwork::connect("127.0.0.1", port, 2, n_workers,
                                     fast_opts());
      core::MdGan md(arch, cfg, {shards[1]}, seed, *net, nullptr,
                     core::NodeRole::worker(2));
      md.train(1);  // one round, then vanish without a goodbye
    } catch (const std::exception& e) {
      errors[2] = e.what();
    }
  });
  server_thread.join();
  w1_thread.join();
  w2_thread.join();
  for (std::size_t i = 0; i < errors.size(); ++i) {
    EXPECT_TRUE(errors[i].empty()) << "role " << i << ": " << errors[i];
  }
  EXPECT_EQ(server_iters, iters);
  ASSERT_FALSE(got.empty());
  for (float v : got) EXPECT_TRUE(std::isfinite(v));
  EXPECT_FALSE(server->is_alive(2));
  EXPECT_GE(server->membership_epoch(), 1u);
}

// --- heartbeats and the suspect machinery over real sockets -------------

// A raw socket that completes a valid hello but never answers a !ping:
// the only way to make a "silent but connected" worker, since a real
// TcpNetwork endpoint echoes pings automatically.
int raw_hello(std::uint16_t port, int worker_id, std::size_t n_workers) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ByteBuffer hello;
  hello.write_pod<std::uint32_t>(static_cast<std::uint32_t>(worker_id));
  hello.write_pod<std::uint64_t>(n_workers);
  const auto wire = encode_frame(worker_id, kServerId, kTagHello, hello);
  EXPECT_EQ(::write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  return fd;
}

TEST(TcpLiveness, SilentWorkerIsSuspectedThenReseatedByAFrame) {
  TcpOptions opts = fast_opts();
  opts.liveness.heartbeat_interval_s = 0.05;
  opts.liveness.suspect_after_s = 0.4;
  opts.liveness.grace_s = 30.0;  // far away: this test must not reach death
  auto server = TcpNetwork::serve(0, 1, opts);
  const int fd = raw_hello(server->port(), 1, 1);
  ASSERT_TRUE(server->wait_ready());
  const auto epoch0 = server->membership_epoch();

  // Silence past suspect_after_s: suspected, counted, NOT evicted.
  ASSERT_TRUE(eventually([&] { return server->is_suspect(1); }));
  EXPECT_GE(server->suspect_count(), 1u);
  EXPECT_TRUE(server->is_alive(1));

  // Any frame before the grace window closes re-seats the worker under
  // the same id — no death, no rejoin cycle, no epoch change.
  const auto wire = encode_frame(1, kServerId, "fb", payload_of(1, 1.f));
  ASSERT_EQ(::write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  ASSERT_TRUE(eventually([&] { return !server->is_suspect(1); }));
  EXPECT_TRUE(server->is_alive(1));
  EXPECT_EQ(server->membership_epoch(), epoch0);
  ::close(fd);
}

TEST(TcpLiveness, SilenceOutlivingTheGraceWindowIsDeath) {
  TcpOptions opts = fast_opts();
  opts.liveness.heartbeat_interval_s = 0.05;
  opts.liveness.suspect_after_s = 0.3;
  opts.liveness.grace_s = 0.4;
  auto server = TcpNetwork::serve(0, 1, opts);
  const int fd = raw_hello(server->port(), 1, 1);
  ASSERT_TRUE(server->wait_ready());

  // Total silence falls through suspect into the normal death path:
  // eviction, epoch bump — exactly what a dropped connection causes.
  ASSERT_TRUE(eventually([&] { return !server->is_alive(1); }));
  EXPECT_GE(server->suspect_count(), 1u);
  EXPECT_GE(server->membership_epoch(), 1u);
  ::close(fd);
}

// --- dial retry and backoff ---------------------------------------------

TEST(TcpDial, ExhaustedRetryBudgetFailsFast) {
  // Reserve an ephemeral port, then free it: nothing listens there.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr),
                          &alen),
            0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  TcpOptions opts = fast_opts();
  opts.dial_retries = 3;
  opts.dial_backoff_ms = 5.0;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    TcpNetwork::connect("127.0.0.1", dead_port, 1, 1, opts);
    FAIL() << "expected the dial to exhaust its retry budget";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("dial_retries exhausted"),
              std::string::npos)
        << e.what();
  }
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // 4 attempts with 5/10/20 ms backoffs (+jitter): nowhere near the
  // 20 s rendezvous deadline.
  EXPECT_LT(waited, 2.0);
}

TEST(TcpDial, BackoffRidesOutAServerThatStartsLate) {
  // Reserve a port for the server to come up on, late.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr),
                          &alen),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(probe);

  TcpOptions opts = fast_opts();
  opts.dial_retries = 500;
  opts.dial_backoff_ms = 10.0;
  std::unique_ptr<TcpNetwork> server;
  std::thread late_server([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    server = TcpNetwork::serve(port, 1, opts);
  });
  // The worker dials into the void, retries, and converges once the
  // listener appears.
  auto w1 = TcpNetwork::connect("127.0.0.1", port, 1, 1, opts);
  late_server.join();
  ASSERT_TRUE(server->wait_ready());
  ASSERT_TRUE(w1->wait_ready());
  EXPECT_TRUE(server->is_alive(1));
  EXPECT_GE(w1->dial_retry_count(), 1u);
}

// The rejoin-to-training acceptance property over real sockets: worker
// 2's process dies at round 2 (its endpoint is destroyed), a NEW
// process re-dials, is granted a rejoin, receives the `!state`
// transfer, adopts it, and trains rounds 4..5 — and the server's final
// generator is bit-identical to the in-process simulator replaying the
// same crash-rejoin schedule.
TEST(TcpMdGan, RealRestartWithStateTransferMatchesSimulator) {
  const std::uint64_t seed = 41;
  const std::size_t n_workers = 2, per_shard = 16;
  const std::int64_t iters = 5;
  const auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  core::MdGanConfig cfg;
  cfg.hp.batch = 8;
  cfg.hp.disc_steps = 1;
  cfg.k = 2;
  cfg.swap_enabled = false;

  AvailabilitySchedule sched;
  sched.add_crash_rejoin(/*worker=*/2, /*from=*/2, /*until=*/4);

  auto full = data::make_synthetic_digits(n_workers * per_shard, seed);
  Rng split_rng(seed);
  const auto shards = data::split_iid(full, n_workers, split_rng);

  SimNetwork sim(n_workers);
  core::MdGan reference(arch, cfg, shards, seed, sim, &sched);
  reference.train(iters);
  const auto want = reference.generator().flatten_parameters();
  ASSERT_EQ(reference.iterations_run(), iters);

  auto server = TcpNetwork::serve(0, n_workers, fast_opts());
  const auto port = server->port();
  std::vector<float> got;
  std::vector<std::string> errors(3);
  std::thread server_thread([&] {
    try {
      core::MdGanConfig scfg = cfg;
      scfg.shard_size = per_shard;
      core::MdGan md(arch, scfg, {}, seed, *server, &sched,
                     core::NodeRole::server());
      md.train(iters);
      got = md.generator().flatten_parameters();
    } catch (const std::exception& e) {
      errors[0] = e.what();
    }
  });
  std::thread w1_thread([&] {
    try {
      auto net = TcpNetwork::connect("127.0.0.1", port, 1, n_workers,
                                     fast_opts());
      core::MdGan md(arch, cfg, {shards[0]}, seed, *net, &sched,
                     core::NodeRole::worker(1));
      md.train(iters);
    } catch (const std::exception& e) {
      errors[1] = e.what();
    }
  });
  std::thread w2_thread([&] {
    try {
      // Incarnation 1: trains round 1, observes its own scheduled
      // state loss at round 2 and stops; destroying the endpoint is
      // the kill -9.
      {
        auto net = TcpNetwork::connect("127.0.0.1", port, 2, n_workers,
                                       fast_opts());
        core::MdGan md(arch, cfg, {shards[1]}, seed, *net, &sched,
                       core::NodeRole::worker(2));
        md.train(iters);
        if (md.iterations_run() >= iters) {
          throw std::runtime_error("incarnation 1 should have died early");
        }
      }
      // Incarnation 2: a fresh process image re-dials. The first hello
      // can race the server noticing the EOF (still a live duplicate);
      // retry until the rejoin is granted.
      std::unique_ptr<TcpNetwork> net;
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::seconds(15);
      while (std::chrono::steady_clock::now() < deadline) {
        net = TcpNetwork::connect("127.0.0.1", port, 2, n_workers,
                                  fast_opts());
        if (net->wait_ready() && net->rejoin_granted()) break;
        net.reset();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (net == nullptr) {
        throw std::runtime_error("rejoin was never granted");
      }
      auto payload = net->wait_rejoin_state(20.0);
      if (!payload.has_value()) {
        throw std::runtime_error("no !state transfer arrived");
      }
      core::RejoinState st = core::RejoinState::decode(*payload);
      if (st.admission_round != 4) {
        throw std::runtime_error("admitted at round " +
                                 std::to_string(st.admission_round) +
                                 ", expected 4");
      }
      core::MdGan md(arch, cfg, {shards[1]}, seed, *net, &sched,
                     core::NodeRole::worker(2));
      const auto admitted_at = st.admission_round;
      md.adopt_rejoin_state(std::move(st));
      md.train_from(admitted_at, iters);
    } catch (const std::exception& e) {
      errors[2] = e.what();
    }
  });
  server_thread.join();
  w1_thread.join();
  w2_thread.join();
  for (std::size_t i = 0; i < errors.size(); ++i) {
    EXPECT_TRUE(errors[i].empty()) << "role " << i << ": " << errors[i];
  }

  // Bit-identical generator to the simulated crash-rejoin...
  EXPECT_EQ(got, want);
  // ...and the identical data-plane ledger: the whole grant / !state /
  // !admit exchange rides the control plane, which is never charged.
  for (auto kind : {LinkKind::kServerToWorker, LinkKind::kWorkerToServer}) {
    EXPECT_EQ(server->totals(kind).bytes, sim.totals(kind).bytes);
    EXPECT_EQ(server->totals(kind).messages, sim.totals(kind).messages);
  }
}

// Live introspection: a `!stats` probe against a running server must
// return a snapshot whose per-link byte counters equal the transport
// accountant's totals EXACTLY (both charged on the same guarded path),
// plus the liveness table and the engine's published round/phase.
TEST(TcpNetwork, StatsProbeMatchesTheAccountantExactly) {
  obs::Sink sink;
  auto server = TcpNetwork::serve(0, 2, fast_opts());
  server->set_sink(&sink);
  auto w1 = TcpNetwork::connect("127.0.0.1", server->port(), 1, 2,
                                fast_opts());
  auto w2 = TcpNetwork::connect("127.0.0.1", server->port(), 2, 2,
                                fast_opts());
  ASSERT_TRUE(server->wait_ready());

  // One message of each traffic class, then a published engine state.
  server->send(kServerId, 1, "gen_batches", payload_of(8));
  ASSERT_TRUE(w1->receive_tagged(1, "gen_batches").has_value());
  w1->send(1, kServerId, "feedback", payload_of(16));
  ASSERT_TRUE(server->receive_tagged(kServerId, "feedback").has_value());
  w1->send(1, 2, "disc_swap", payload_of(4));
  ASSERT_TRUE(w2->receive_tagged(2, "disc_swap").has_value());
  w2->send(2, kServerId, "feedback", payload_of(16));
  ASSERT_TRUE(server->receive_tagged(kServerId, "feedback").has_value());
  // The peer chooses its tags: the snapshot must quote whatever bytes
  // worker 2's last frame carried.
  const std::string odd_tag = "bad\"tag\x01";
  w2->send(2, kServerId, odd_tag, payload_of(4));
  ASSERT_TRUE(server->receive_tagged(kServerId, odd_tag).has_value());
  sink.set_live(7, "collect");

  const auto reply = fetch_stats("127.0.0.1", server->port());
  ASSERT_TRUE(reply.has_value());

  obs::json::Value doc;
  std::string err;
  ASSERT_TRUE(obs::json::parse(*reply, &doc, &err)) << err << "\n"
                                                    << *reply;
  EXPECT_EQ(doc.find("kind")->str_or(""), "stats");
  EXPECT_EQ(doc.find("node")->num_or(-1.0), 0.0);
  EXPECT_EQ(doc.find("n_workers")->num_or(-1.0), 2.0);
  EXPECT_EQ(doc.find("epoch")->num_or(-1.0), 0.0);
  EXPECT_EQ(doc.find("round")->num_or(-2.0), 7.0);
  EXPECT_EQ(doc.find("phase")->str_or(""), "collect");

  const obs::json::Value* workers = doc.find("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_TRUE(workers->is_array());
  ASSERT_EQ(workers->array.size(), 2u);
  for (const auto& w : workers->array) {
    const obs::json::Value* alive = w.find("alive");
    const obs::json::Value* registered = w.find("registered");
    ASSERT_NE(alive, nullptr);
    ASSERT_NE(registered, nullptr);
    EXPECT_TRUE(alive->boolean);
    EXPECT_TRUE(registered->boolean);
    EXPECT_EQ(w.find("liveness")->str_or(""), "alive");
    // Both workers sent at least one user frame over their connection.
    const obs::json::Value* rx = w.find("rx_frames");
    ASSERT_NE(rx, nullptr);
    EXPECT_GE(rx->num_or(0.0), 1.0);
  }
  const obs::json::Value* tag = workers->array[1].find("last_rx_tag");
  ASSERT_NE(tag, nullptr);
  EXPECT_EQ(tag->str_or(""), odd_tag);

  const obs::json::Value* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const obs::json::Value* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  const auto counter = [&](const char* key) {
    const obs::json::Value* v = counters->find(key);
    return v != nullptr ? v->num_or(-1.0) : -1.0;
  };
  EXPECT_EQ(counter("bytes_total{link=c2w}"),
            static_cast<double>(
                server->totals(LinkKind::kServerToWorker).bytes));
  EXPECT_EQ(counter("bytes_total{link=w2c}"),
            static_cast<double>(
                server->totals(LinkKind::kWorkerToServer).bytes));
  EXPECT_EQ(counter("bytes_total{link=w2w}"),
            static_cast<double>(
                server->totals(LinkKind::kWorkerToWorker).bytes));
  EXPECT_EQ(counter("messages_total{link=w2c}"),
            static_cast<double>(
                server->message_count(LinkKind::kWorkerToServer)));

  // The probe rides the control plane: it must not perturb the ledger.
  const auto before = server->totals(LinkKind::kWorkerToServer).bytes;
  ASSERT_TRUE(fetch_stats("127.0.0.1", server->port()).has_value());
  EXPECT_EQ(server->totals(LinkKind::kWorkerToServer).bytes, before);

  // A probe against a closed port reports failure, not a hang.
  const auto port = server->port();
  w1.reset();
  w2.reset();
  server.reset();
  EXPECT_FALSE(fetch_stats("127.0.0.1", port, /*timeout_s=*/1.0)
                   .has_value());
}

}  // namespace
}  // namespace mdgan::dist
