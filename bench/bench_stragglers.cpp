// Straggler / time-to-score harness (the ROADMAP "link models" item).
// MD-GAN's claims are about wall-clock time, and the place distributed
// training hurts is heterogeneity: one slow link drags the whole
// synchronous round, because the server cannot apply the generator
// update before the slowest feedback lands. This bench sweeps exactly
// that, on the simulated virtual clock (deterministic, seeded):
//
//   part A  one worker's bandwidth cut 1x/2x/5x/10x: per-round critical
//           path, per-node simulated clocks, and the slowdown of the
//           whole run relative to the homogeneous cluster;
//   part B  feedback codecs none/int8/top-k on the bandwidth-bound
//           straggler setup: compression trades score fidelity for
//           simulated W->C time, and the round time must drop
//           monotonically with the wire size;
//   part C  sync vs async server (§VII-1) under the same slow_node
//           throttle: the synchronous barrier waits for the straggler
//           before the one update of the round, while the async
//           receive loop applies one Adam step per feedback as it
//           arrives — so async buys more generator updates per
//           simulated second, the "async hides stragglers" claim made
//           measurable (mode rows report sim seconds per update);
//   part D  (skipped with --tiny) final IS/FID next to the simulated
//           time, i.e. the time-to-score rows of the sweeps, sync and
//           async.
//
// --tiny runs a seconds-scale smoke configuration (CI runs it so the
// simulated-time and async-engine paths cannot silently rot).
//
// CSV rows:
//   straggler,<slowdown>,<sim_total_s>,<mean_round_s>,<max_round_s>
//   codec,<name>,<w2c_bytes>,<sim_total_s>,<mean_round_s>
//   mode,<sync|async>,<slowdown>,<sim_total_s>,<updates>,<s_per_update>
//   time2score,<variant>,<sim_total_s>,<IS>,<FID>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dist/cluster.hpp"

using namespace mdgan;
using namespace mdgan::bench;

namespace {

struct TimedRun {
  double sim_total = 0.0;
  double mean_round = 0.0;
  double max_round = 0.0;
  std::uint64_t w_to_c_bytes = 0;
  std::int64_t updates = 0;
  dist::SimTimes clocks;
};

struct TimedRunConfig {
  gan::GanArch arch;
  std::size_t workers = 4;
  std::size_t batch = 10;
  std::int64_t iters = 40;
  std::uint64_t seed = 42;
  dist::LinkModel link;
  dist::CompressionConfig codec;
  bool async = false;
  // Modeled compute (seconds), so the async server's per-feedback
  // updates cost simulated time like the sync barrier's one does.
  double server_update_s = 0.0;
};

// Trains MD-GAN without any evaluation (the evaluator dominates tiny
// runs) and reports only the simulated-time / traffic outcome.
TimedRun timed_run(const data::InMemoryDataset& train,
                   const TimedRunConfig& rc) {
  Rng split_rng(rc.seed);
  auto shards = data::split_iid(train, rc.workers, split_rng);
  dist::SimNetwork net(rc.workers);
  net.set_link_model(rc.link);
  core::MdGanConfig cfg;
  cfg.hp.batch = rc.batch;
  cfg.k = core::k_log_n(rc.workers);
  cfg.feedback_compression = rc.codec;
  cfg.async = rc.async;
  cfg.sim_server_update_seconds = rc.server_update_s;
  core::MdGan md(rc.arch, cfg, std::move(shards), rc.seed, net);
  md.train(rc.iters);

  TimedRun out;
  out.sim_total = md.sim_seconds();
  out.updates = md.generator_updates();
  const auto& rounds = md.round_sim_seconds();
  for (double r : rounds) out.max_round = std::max(out.max_round, r);
  if (!rounds.empty()) {
    out.mean_round = std::accumulate(rounds.begin(), rounds.end(), 0.0) /
                     static_cast<double>(rounds.size());
  }
  out.w_to_c_bytes = net.totals(dist::LinkKind::kWorkerToServer).bytes;
  out.clocks = dist::sim_times_of(net);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool tiny = flags.get_bool("tiny");
  TimedRunConfig rc;
  rc.workers = flags.get_int("workers", tiny ? 3 : 4);
  rc.iters = flags.get_int("iters", tiny ? 4 : 40);
  rc.batch = flags.get_int("batch", tiny ? 8 : 10);
  rc.seed = flags.get_int("seed", 42);
  rc.arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  const double latency_ms = flags.get_double("latency-ms", 5.0);
  const double mbps = flags.get_double("bandwidth-mbps", 100.0);
  const int straggler = static_cast<int>(flags.get_int("straggler", 1));

  auto train = data::make_synthetic_digits(
      rc.workers * (tiny ? 3 * rc.batch : 200), rc.seed);

  std::printf("=== stragglers: simulated round time under one slow worker "
              "(N=%zu, I=%lld, %.3gms, %.3gMbit/s, worker %d cut) ===\n",
              rc.workers, static_cast<long long>(rc.iters), latency_ms,
              mbps, straggler);

  // --- part A: bandwidth cut sweep --------------------------------------
  std::printf("csv: straggler,<slowdown>,<sim_total_s>,<mean_round_s>,"
              "<max_round_s>\n");
  const std::vector<double> slowdowns =
      tiny ? std::vector<double>{1.0, 10.0}
           : std::vector<double>{1.0, 2.0, 5.0, 10.0};
  double baseline = 0.0;
  bool monotone = true;
  double prev = -1.0;
  for (double slowdown : slowdowns) {
    rc.link = straggler_link_model(latency_ms, mbps, straggler, slowdown,
                                   rc.seed);
    rc.codec = {};
    const auto r = timed_run(train, rc);
    if (slowdown == 1.0) baseline = r.sim_total;
    std::printf("straggler,%.0f,%.4f,%.6f,%.6f\n", slowdown, r.sim_total,
                r.mean_round, r.max_round);
    std::printf("  node clocks (s): server %.4f", r.clocks.server);
    for (std::size_t w = 0; w < r.clocks.workers.size(); ++w) {
      std::printf("  w%zu %.4f", w + 1, r.clocks.workers[w]);
    }
    std::printf("%s\n", baseline > 0.0 && slowdown > 1.0
                            ? ("  (" + std::to_string(r.sim_total / baseline)
                                   .substr(0, 4) +
                               "x baseline)")
                                  .c_str()
                            : "");
    monotone = monotone && r.sim_total > prev;
    prev = r.sim_total;
  }
  std::printf("round time monotone in the straggler's slowdown: %s\n\n",
              monotone ? "yes" : "NO (unexpected)");

  // --- part B: codec sweep on the bandwidth-bound straggler setup -------
  std::printf("csv: codec,<name>,<w2c_bytes>,<sim_total_s>,"
              "<mean_round_s>\n");
  rc.link = straggler_link_model(latency_ms, mbps, straggler,
                                 slowdowns.back(), rc.seed);
  struct CodecCase {
    const char* name;
    dist::CompressionConfig cfg;
  };
  const CodecCase codecs[] = {
      {"none", {dist::CompressionKind::kNone, 0.f}},
      {"int8", {dist::CompressionKind::kQuantizeInt8, 0.f}},
      {"top-k=0.1", {dist::CompressionKind::kTopK, 0.1f}},
  };
  prev = 1e300;
  monotone = true;
  for (const auto& c : codecs) {
    rc.codec = c.cfg;
    const auto r = timed_run(train, rc);
    std::printf("codec,%s,%llu,%.4f,%.6f\n", c.name,
                static_cast<unsigned long long>(r.w_to_c_bytes),
                r.sim_total, r.mean_round);
    monotone = monotone && r.sim_total < prev;
    prev = r.sim_total;
  }
  std::printf("sim time strictly drops none -> int8 -> top-k: %s\n",
              monotone ? "yes" : "NO (unexpected)");

  // --- part C: sync vs async server under the slow_node throttle --------
  // The async engine applies one generator update per feedback arrival
  // instead of one per round barrier, so at equal rounds it lands N
  // times more updates in (nearly) the same simulated span: simulated
  // seconds *per update* must come out well below sync's.
  std::printf("\ncsv: mode,<sync|async>,<slowdown>,<sim_total_s>,"
              "<updates>,<s_per_update>\n");
  rc.codec = {};
  rc.server_update_s = 1e-4;  // make the server's applies cost sim time
  double sync_spu = 0.0, async_spu = 0.0;
  for (double slowdown : {1.0, slowdowns.back()}) {
    rc.link = straggler_link_model(latency_ms, mbps, straggler, slowdown,
                                   rc.seed);
    for (const bool async : {false, true}) {
      rc.async = async;
      const auto r = timed_run(train, rc);
      const double spu =
          r.updates > 0 ? r.sim_total / static_cast<double>(r.updates)
                        : 0.0;
      std::printf("mode,%s,%.0f,%.4f,%lld,%.6f\n",
                  async ? "async" : "sync", slowdown, r.sim_total,
                  static_cast<long long>(r.updates), spu);
      if (slowdown > 1.0) (async ? async_spu : sync_spu) = spu;
    }
  }
  rc.async = false;
  rc.server_update_s = 0.0;
  std::printf("async spends less sim time per generator update under the "
              "straggler: %s\n",
              async_spu < sync_spu ? "yes" : "NO (unexpected)");

  // --- part D: time-to-score (needs the evaluator; skipped in --tiny) ---
  if (!tiny) {
    std::printf("\ncsv: time2score,<variant>,<sim_total_s>,<IS>,<FID>\n");
    auto test = data::make_synthetic_digits(512, rc.seed + 1);
    metrics::Evaluator evaluator(train, test, {64, 3, 64, 1e-3f}, 256,
                                 rc.seed);
    gan::GanHyperParams hp;
    hp.batch = rc.batch;
    for (const bool async : {false, true}) {
      for (double slowdown : {1.0, slowdowns.back()}) {
        RunContext ctx{train, evaluator, rc.arch, rc.iters,
                       /*eval_every=*/rc.iters, rc.seed};
        ctx.link = straggler_link_model(latency_ms, mbps, straggler,
                                        slowdown, rc.seed);
        MdGanRunOptions opts;
        opts.k = core::k_log_n(rc.workers);
        opts.async = async;
        const std::string label = std::string(async ? "async" : "sync") +
                                  " slowdown=" + std::to_string(slowdown);
        auto s = run_md_gan(ctx, hp, rc.workers, opts, label);
        const auto& last = s.points.back();
        std::printf("time2score,%s-slowdown=%.0f,%.4f,%.4f,%.4f\n",
                    async ? "async" : "sync", slowdown, s.sim_total,
                    last.scores.inception_score, last.scores.fid);
      }
    }
  }
  return 0;
}
