// mdgan_node: one node of a real MD-GAN deployment, speaking the TCP
// transport. Launch one server and N workers — on one machine via
// 127.0.0.1 or on N+1 machines — and the same protocol the simulator
// runs executes as real processes:
//
//   ./mdgan_node --role=server --workers=2 --port=29471
//   ./mdgan_node --role=worker --id=1 --connect=host:29471 --workers=2
//   ./mdgan_node --role=worker --id=2 --connect=host:29471 --workers=2
//
// A third role replays the identical configuration on the in-process
// SimNetwork, which makes the backend swap auditable end to end:
//
//   ./mdgan_node --role=sim --workers=2
//
// prints the same generator checksum a TCP run converges to — the
// drill tests (tests/integration/test_node_drills.cpp) compare the two. Every role derives the dataset and its
// shard deterministically from (--seed, --workers, --shard), so no
// data moves at startup; all roles must be launched with identical
// training flags.
//
// Shared training flags: --iters, --batch, --k, --shard (samples per
// worker), --seed, --swap=0|1, --compress=none|int8|topk,
// --server-mode=sync|async (the §VII-1 server policy; async applies one
// Adam step per feedback as it arrives, with --max-staleness capping
// how stale an applied feedback may be and --staleness-damping scaling
// its learning rate by 1/(1 + damping * staleness)).
// --send-queue-depth bounds each TCP connection's send queue.
//
// Observability: --trace-out=PATH writes a Chrome trace-event JSON
// (load in Perfetto / chrome://tracing: one track per node, spans for
// every round phase, local step and wire frame, stamped with wall AND
// sim time); --metrics-out=PATH appends JSONL metric snapshots every
// --metrics-interval rounds plus a final summary line whose per-link
// byte counters equal the printed traffic totals exactly;
// --trace-compute additionally records the high-frequency GEMM /
// thread-pool spans. --flight-out=PATH arms the flight recorder: a
// bounded ring of lifecycle events (deaths, suspects, rejoin grants,
// admissions, stale drops) dumped as JSONL on exit AND from the
// fatal-signal path, so a crashed node still leaves its post-mortem.
// Per-node trace files merge into one Perfetto timeline with
// cross-node flow arrows via ./mdgan_trace_merge (pass the server's
// file first). A fifth role probes a live server for a one-shot JSON
// snapshot (round, phase, epoch, liveness table, metrics registry):
//
//   ./mdgan_node --role=stats --connect=host:29471
//
// --log-level=debug|info|warn|error (also the
// MDGAN_LOG_LEVEL env var) sets the stderr log threshold, and every
// line is prefixed with elapsed seconds, level and this node's id.
//
// Elastic workers: --absent=W@FROM-UNTIL[,W@FROM-UNTIL...] schedules
// worker W away for iterations [FROM, UNTIL) — it rejoins at UNTIL; an
// empty UNTIL ("2@3-") is a permanent leave, i.e. a fail-stop crash.
// The schedule is SPMD shared knowledge: pass the identical --absent to
// every role, and each process replays the same membership transitions
// (the swap replay skips absent workers deterministically), e.g.
//
//   --absent=2@2-4   worker 2 misses iterations 2 and 3, then rejoins.
//
// Unscheduled crashes (kill -9, no schedule): the transport's control
// plane handles these — the server fail-stops the dead worker, bumps
// the membership epoch, notifies survivors (!death) and the collect
// shrinks to what is still alive. Crash-drill knobs: --recv-timeout
// bounds a blocking receive (TcpOptions.receive_timeout_s),
// --rendezvous-timeout the join deadline, --step-delay-ms sleeps each
// worker local step so a kill reliably lands mid-round, and a fourth
// role re-enters training after a death:
//
//   ./mdgan_node --role=rejoin --id=2 --connect=host:29471 --workers=2
//
// prints "rejoin: worker 2 ready=.. granted=.. epoch=.." (exit 0 iff
// the server granted the rejoin under a bumped membership epoch), then
// waits for the server's `!state` transfer, adopts it and resumes
// training at the admission round — printing "rejoin: worker 2 trained
// from=A to=B" when the resumed run completes.
//
// Robustness knobs: --dial-retries / --dial-backoff-ms bound the
// connect retry loop (workers may start before the server);
// --heartbeat-ms enables server heartbeats with --suspect-ms /
// --grace-ms controlling the alive -> suspect -> dead state machine (a
// worker silent past suspect but back within grace is re-seated, no
// death fan-out); --recv-retries / --recv-timeout-ms bound the
// churn-retry budget of every blocking protocol receive.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/compression.hpp"
#include "dist/fault.hpp"
#include "dist/sim_network.hpp"
#include "dist/tcp_network.hpp"
#include "obs/sink.hpp"

namespace {

using namespace mdgan;

// FNV-1a over the parameter bytes: a compact fingerprint two runs can
// compare for bit-identity without shipping the whole vector around.
std::uint64_t fnv1a(const std::vector<float>& values) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct NodeConfig {
  std::size_t workers = 2;
  std::int64_t iters = 4;
  std::size_t shard = 16;
  std::uint64_t seed = 42;
  core::MdGanConfig cfg;
  // Scheduled leave/rejoin membership, replayed SPMD by every role.
  std::optional<dist::AvailabilitySchedule> availability;

  const dist::AvailabilitySchedule* schedule() const {
    return availability.has_value() ? &*availability : nullptr;
  }
};

// "W@FROM-UNTIL[,...]" with empty UNTIL = never returns.
dist::AvailabilitySchedule parse_absences(const std::string& spec) {
  dist::AvailabilitySchedule sched;
  std::size_t at = 0;
  while (at < spec.size()) {
    std::size_t comma = spec.find(',', at);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(at, comma - at);
    const auto at_sign = item.find('@');
    const auto dash = item.find('-', at_sign == std::string::npos
                                          ? 0
                                          : at_sign + 1);
    if (at_sign == std::string::npos || dash == std::string::npos) {
      throw std::invalid_argument("--absent wants W@FROM-UNTIL, got '" +
                                  item + "'");
    }
    const int worker = std::stoi(item.substr(0, at_sign));
    const std::int64_t from =
        std::stoll(item.substr(at_sign + 1, dash - at_sign - 1));
    const std::string until_str = item.substr(dash + 1);
    const std::int64_t until =
        until_str.empty() ? 0 : std::stoll(until_str);
    sched.add_absence(worker, from, until);
    at = comma + 1;
  }
  return sched;
}

NodeConfig parse_training_flags(const CliFlags& flags) {
  NodeConfig nc;
  nc.workers = static_cast<std::size_t>(flags.get_int("workers", 2));
  nc.iters = flags.get_int("iters", 4);
  nc.shard = static_cast<std::size_t>(flags.get_int("shard", 16));
  nc.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  nc.cfg.hp.batch = static_cast<std::size_t>(flags.get_int("batch", 8));
  nc.cfg.hp.disc_steps = 1;
  nc.cfg.k = static_cast<std::size_t>(
      flags.get_int("k", static_cast<std::int64_t>(
                             std::min<std::size_t>(2, nc.workers))));
  nc.cfg.swap_enabled = flags.get_bool("swap", true);
  nc.cfg.async = core::server_mode_from_name(flags.get(
                     "server-mode", "sync")) == core::ServerMode::kAsync;
  if (flags.has("max-staleness")) {
    nc.cfg.async_max_staleness =
        static_cast<std::size_t>(flags.get_int("max-staleness", -1));
  }
  nc.cfg.async_staleness_damping =
      static_cast<float>(flags.get_double("staleness-damping", 0.0));
  const std::string codec = flags.get("compress", "none");
  if (codec == "int8") {
    nc.cfg.feedback_compression.kind = dist::CompressionKind::kQuantizeInt8;
  } else if (codec == "topk") {
    nc.cfg.feedback_compression.kind = dist::CompressionKind::kTopK;
  } else if (codec != "none") {
    std::fprintf(stderr, "mdgan_node: unknown --compress=%s\n",
                 codec.c_str());
    std::exit(2);
  }
  const std::string absent = flags.get("absent", "");
  if (!absent.empty()) nc.availability = parse_absences(absent);
  // Wall-clock sleep per worker local step: widens the mid-round window
  // so an external kill (the kill drill) reliably lands between
  // a worker's receive and its feedback send.
  nc.cfg.step_delay_s = flags.get_double("step-delay-ms", 0.0) / 1000.0;
  // Churn-resilience budget of every blocking protocol receive: how
  // many membership-epoch wakeups it survives (--recv-retries) and an
  // optional wall-clock ceiling across the retries (--recv-timeout-ms,
  // 0 = unbounded). Exhaustion is a clean std::runtime_error, exit 1.
  core::RecvRetryPolicy& retry = nc.cfg.recv_retry;
  retry.churn_retries = static_cast<std::size_t>(flags.get_int(
      "recv-retries", static_cast<std::int64_t>(retry.churn_retries)));
  retry.total_timeout_s = flags.get_double("recv-timeout-ms", 0.0) / 1000.0;
  return nc;
}

// Transport knobs shared by the TCP roles. --recv-timeout matters for
// crash runs: it bounds how long the server's collect blocks on a
// worker that died without a goodbye before the liveness re-check.
dist::TcpOptions tcp_options_from(const CliFlags& flags) {
  dist::TcpOptions opts;
  opts.rendezvous_timeout_s =
      flags.get_double("rendezvous-timeout", opts.rendezvous_timeout_s);
  opts.receive_timeout_s =
      flags.get_double("recv-timeout", opts.receive_timeout_s);
  // Dial retry with bounded exponential backoff: lets workers start
  // before the server (or a rejoiner redial a briefly unreachable one).
  opts.dial_retries =
      static_cast<int>(flags.get_int("dial-retries", opts.dial_retries));
  opts.dial_backoff_ms =
      flags.get_double("dial-backoff-ms", opts.dial_backoff_ms);
  // Heartbeat liveness (server side): 0 (default) disables. A silent
  // worker becomes suspect after --suspect-ms and dead only after a
  // further --grace-ms, so a transient partition re-seats instead of
  // triggering the death fan-out.
  dist::LivenessConfig& live = opts.liveness;
  live.heartbeat_interval_s = flags.get_double("heartbeat-ms", 0.0) / 1000.0;
  live.suspect_after_s =
      flags.get_double("suspect-ms", live.suspect_after_s * 1000.0) / 1000.0;
  live.grace_s = flags.get_double("grace-ms", live.grace_s * 1000.0) / 1000.0;
  // Per-connection send queue bound (frames); a full queue
  // backpressures the producer until the event loop drains a slot.
  opts.send_queue_depth = static_cast<std::size_t>(flags.get_int(
      "send-queue-depth", static_cast<std::int64_t>(opts.send_queue_depth)));
  return opts;
}

// Every role regenerates the full dataset and splits it with the same
// seeded shuffle, so worker w's shard is identical across processes.
std::vector<data::InMemoryDataset> shards_of(const NodeConfig& nc) {
  auto full = data::make_synthetic_digits(nc.workers * nc.shard, nc.seed);
  Rng split_rng(nc.seed);
  return data::split_iid(full, nc.workers, split_rng);
}

void print_summary(const char* role, core::MdGan& md,
                   const dist::Transport& net) {
  const auto params = md.generator().flatten_parameters();
  bool finite = true;
  for (float v : params) finite = finite && std::isfinite(v);
  std::printf("%s: mode=%s updates=%lld finite=%s "
              "generator_fnv1a=%016llx\n",
              role, core::server_mode_name(md.server_mode()),
              static_cast<long long>(md.generator_updates()),
              finite ? "yes" : "NO",
              static_cast<unsigned long long>(fnv1a(params)));
  std::printf("%s: traffic c2w=%llu w2c=%llu w2w=%llu bytes, elapsed=%.3fs\n",
              role,
              static_cast<unsigned long long>(
                  net.totals(dist::LinkKind::kServerToWorker).bytes),
              static_cast<unsigned long long>(
                  net.totals(dist::LinkKind::kWorkerToServer).bytes),
              static_cast<unsigned long long>(
                  net.totals(dist::LinkKind::kWorkerToWorker).bytes),
              net.max_sim_time());
}

int run_sim(const NodeConfig& nc) {
  dist::SimNetwork net(nc.workers);
  core::MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), nc.cfg,
                 shards_of(nc), nc.seed, net, nc.schedule());
  md.train(nc.iters);
  print_summary("sim", md, net);
  return 0;
}

int run_server(const NodeConfig& nc, std::uint16_t port,
               const dist::TcpOptions& opts) {
  auto net = dist::TcpNetwork::serve(port, nc.workers, opts);
  std::printf("server: listening on 0.0.0.0:%u, waiting for %zu workers\n",
              net->port(), nc.workers);
  std::fflush(stdout);
  if (!net->wait_ready()) {
    std::fprintf(stderr, "server: rendezvous timed out\n");
    return 1;
  }
  std::printf("server: all %zu workers connected, training %lld "
              "iterations\n",
              nc.workers, static_cast<long long>(nc.iters));
  std::fflush(stdout);
  core::MdGanConfig cfg = nc.cfg;
  cfg.shard_size = nc.shard;  // the server holds no shard to derive it
  core::MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg, {},
                 nc.seed, *net, nc.schedule(), core::NodeRole::server());
  md.train(nc.iters);
  print_summary("server", md, *net);
  return 0;
}

// --connect's "host:port"; nullopt, after printing the usage error,
// when it has no port.
struct Peer {
  std::string host;
  std::uint16_t port;
};
std::optional<Peer> parse_connect(const std::string& connect) {
  const auto colon = connect.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "mdgan_node: --connect wants host:port\n");
    return std::nullopt;
  }
  return Peer{connect.substr(0, colon),
              static_cast<std::uint16_t>(std::stoi(connect.substr(colon + 1)))};
}

int run_worker(const NodeConfig& nc, const std::string& connect, int id,
               const dist::TcpOptions& opts) {
  const auto peer = parse_connect(connect);
  if (!peer) return 2;
  auto net =
      dist::TcpNetwork::connect(peer->host, peer->port, id, nc.workers, opts);
  std::printf("worker %d: connected to %s\n", id, connect.c_str());
  std::fflush(stdout);
  auto shards = shards_of(nc);
  core::MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), nc.cfg,
                 {shards[static_cast<std::size_t>(id) - 1]}, nc.seed, *net,
                 nc.schedule(), core::NodeRole::worker(id));
  md.train(nc.iters);
  std::printf("worker %d: done, %lld iterations\n", id,
              static_cast<long long>(md.iterations_run()));
  return 0;
}

// Rejoin-to-training: re-dial the cluster from a worker id that died
// mid-run. If the server grants the rejoin (instead of rejecting the id
// as a duplicate hello), wait for its `!state` transfer, adopt the
// snapshot (generator θ, holder map, swap stream, admission round) and
// RE-ENTER training at the admission round — the restarted process
// contributes feedback to every remaining round. Exit 0 iff granted
// under a bumped epoch; the "trained" line appears iff the state
// arrived and the resumed run finished.
int run_rejoin_probe(const NodeConfig& nc, const std::string& connect,
                     int id, const dist::TcpOptions& opts) {
  const auto peer = parse_connect(connect);
  if (!peer) return 2;
  auto net =
      dist::TcpNetwork::connect(peer->host, peer->port, id, nc.workers, opts);
  const bool ready = net->wait_ready();
  const bool granted = net->rejoin_granted();
  const auto epoch = net->membership_epoch();
  std::printf("rejoin: worker %d ready=%s granted=%s epoch=%llu\n", id,
              ready ? "yes" : "no", granted ? "yes" : "no",
              static_cast<unsigned long long>(epoch));
  std::fflush(stdout);
  if (!(ready && granted && epoch >= 1)) return 1;

  // The server ships the state at the next round boundary; bound the
  // wait by the receive timeout so a probe against an already-finished
  // run still exits cleanly (granted, but nothing left to train).
  const double wait_s =
      opts.receive_timeout_s > 0.0 ? opts.receive_timeout_s : 10.0;
  auto payload = net->wait_rejoin_state(wait_s);
  if (!payload.has_value()) {
    std::printf("rejoin: worker %d no state transfer within %.1fs "
                "(run over?)\n",
                id, wait_s);
    return 0;
  }
  auto st = core::RejoinState::decode(*payload);
  const auto admitted_at = st.admission_round;
  auto shards = shards_of(nc);
  core::MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), nc.cfg,
                 {shards[static_cast<std::size_t>(id) - 1]}, nc.seed, *net,
                 nc.schedule(), core::NodeRole::worker(id));
  md.adopt_rejoin_state(std::move(st));
  md.train_from(admitted_at, nc.iters);
  std::printf("rejoin: worker %d trained from=%lld to=%lld\n", id,
              static_cast<long long>(admitted_at),
              static_cast<long long>(md.iterations_run()));
  std::fflush(stdout);
  return 0;
}

// Live introspection: dial a running server, send a `!stats` probe and
// print the JSON snapshot it answers with — current round and phase,
// membership epoch, the per-worker liveness table and the full metrics
// registry (byte counters equal to the server's printed traffic
// totals). One shot, no join, no membership side effects.
int run_stats_probe(const std::string& connect, double timeout_s) {
  const auto peer = parse_connect(connect);
  if (!peer) return 2;
  const auto snap = dist::fetch_stats(peer->host, peer->port, timeout_s);
  if (!snap.has_value()) {
    std::fprintf(stderr, "stats: no reply from %s\n", connect.c_str());
    return 1;
  }
  std::printf("%s\n", snap->c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string role = flags.get("role", "sim");
  try {
    const std::string level = flags.get("log-level", "");
    if (!level.empty()) set_log_level(log_level_from_name(level));
    const int id = static_cast<int>(flags.get_int("id", 0));
    set_log_node(role == "worker" ? "w" + std::to_string(id) : role);

    NodeConfig nc = parse_training_flags(flags);
    obs::SinkConfig sc;
    sc.trace_path = flags.get("trace-out", "");
    sc.metrics_path = flags.get("metrics-out", "");
    sc.metrics_interval = flags.get_int("metrics-interval", 1);
    sc.compute_spans = flags.get_bool("trace-compute", false);
    sc.flight_path = flags.get("flight-out", "");
    std::unique_ptr<obs::Sink> sink;
    if (!sc.trace_path.empty() || !sc.metrics_path.empty() ||
        !sc.flight_path.empty()) {
      sink = std::make_unique<obs::Sink>(sc);
      nc.cfg.sink = sink.get();
      // Serves the unwired instrumentation points (GEMM, pool fan-out);
      // their kCompute spans stay off unless --trace-compute asked.
      obs::install_global_sink(sink.get());
      // A SIGSEGV/abort still dumps the flight ring and the last
      // pre-serialized metrics snapshot before the process dies.
      obs::install_fatal_handlers();
    }

    int rc = 2;
    const dist::TcpOptions topts = tcp_options_from(flags);
    if (role == "sim") {
      rc = run_sim(nc);
    } else if (role == "server") {
      rc = run_server(
          nc, static_cast<std::uint16_t>(flags.get_int("port", 29471)),
          topts);
    } else if (role == "worker") {
      rc = run_worker(nc, flags.get("connect", "127.0.0.1:29471"), id,
                      topts);
    } else if (role == "rejoin") {
      rc = run_rejoin_probe(nc, flags.get("connect", "127.0.0.1:29471"),
                            id, topts);
    } else if (role == "stats") {
      rc = run_stats_probe(flags.get("connect", "127.0.0.1:29471"),
                           flags.get_double("stats-timeout", 5.0));
    } else {
      std::fprintf(stderr,
                   "mdgan_node: --role must be sim, server, worker, "
                   "rejoin or stats\n");
    }
    if (sink) {
      obs::install_global_sink(nullptr);
      sink->finish();  // final metrics line + the Chrome trace file
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mdgan_node(%s): %s\n", role.c_str(), e.what());
    return 1;
  }
}
