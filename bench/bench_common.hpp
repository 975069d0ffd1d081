// Shared plumbing for the experiment benches: competitor runners that
// train one configuration and return its evaluation series plus the
// traffic its simulated network carried. Every bench emits CSV rows:
//   series,<label>,<iter>,<inception_score>,<fid>,<sim_seconds>
// where <sim_seconds> is the simulated elapsed time under the run's
// link model (0 under the default zero model), turning every score
// series into a time-to-score series.
//
// Every bench accepts --iters / --workers / --batch / --seed / --full;
// defaults are scaled for a single CPU core (the paper used 4 GPUs and
// I=50,000 — see EXPERIMENTS.md for the mapping). Benches that model
// time also accept --latency-ms / --bandwidth-mbps / --jitter-ms via
// link_model_from_flags.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/complexity.hpp"
#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"
#include "gan/fl_gan.hpp"
#include "metrics/evaluator.hpp"
#include "obs/sink.hpp"

namespace mdgan::bench {

struct TrafficSummary {
  std::uint64_t c_to_w = 0;
  std::uint64_t w_to_c = 0;
  std::uint64_t w_to_w = 0;
  std::uint64_t max_worker_ingress_per_iter = 0;
  std::uint64_t max_server_ingress_per_iter = 0;

  static TrafficSummary of(const dist::Transport& net) {
    TrafficSummary t;
    t.c_to_w = net.totals(dist::LinkKind::kServerToWorker).bytes;
    t.w_to_c = net.totals(dist::LinkKind::kWorkerToServer).bytes;
    t.w_to_w = net.totals(dist::LinkKind::kWorkerToWorker).bytes;
    for (std::size_t w = 1; w <= net.n_workers(); ++w) {
      t.max_worker_ingress_per_iter =
          std::max(t.max_worker_ingress_per_iter,
                   net.max_ingress_per_iteration(static_cast<int>(w)));
    }
    t.max_server_ingress_per_iter =
        net.max_ingress_per_iteration(dist::kServerId);
    return t;
  }

  // Same summary, but the per-link byte totals come out of a telemetry
  // registry (the bytes_total{link} counters the transport charges on
  // the same guarded path as its accountant) — the two agree exactly,
  // pinned by tests/obs. Ingress peaks still come from the transport,
  // which is their only source.
  static TrafficSummary of(const dist::Transport& net,
                           const obs::Registry& reg) {
    TrafficSummary t = of(net);
    t.c_to_w = reg.counter_value("bytes_total{link=c2w}");
    t.w_to_c = reg.counter_value("bytes_total{link=w2c}");
    t.w_to_w = reg.counter_value("bytes_total{link=w2w}");
    return t;
  }
};

struct Series {
  std::string label;
  std::vector<metrics::EvalRecord> points;
  TrafficSummary traffic;
  // Simulated elapsed seconds at each eval point (aligned with
  // `points`; all zeros under the zero link model / no network).
  std::vector<double> sim_at;
  // Simulated elapsed seconds at the end of the run.
  double sim_total = 0.0;
};

inline void print_series(const Series& s) {
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    const auto& r = s.points[i];
    const double t = i < s.sim_at.size() ? s.sim_at[i] : 0.0;
    std::printf("series,%s,%lld,%.4f,%.4f,%.4f\n", s.label.c_str(),
                static_cast<long long>(r.iter), r.scores.inception_score,
                r.scores.fid, t);
  }
}

inline void print_final_table(const std::vector<Series>& all) {
  std::printf("\n%-28s %10s %10s %12s %12s %12s\n", "competitor",
              "final IS", "final FID", "C<->W", "W<->W", "sim time");
  for (const auto& s : all) {
    if (s.points.empty()) continue;
    const auto& last = s.points.back();
    std::printf("%-28s %10.3f %10.2f %12s %12s %10.3fs\n", s.label.c_str(),
                last.scores.inception_score, last.scores.fid,
                core::human_bytes(s.traffic.c_to_w + s.traffic.w_to_c)
                    .c_str(),
                core::human_bytes(s.traffic.w_to_w).c_str(), s.sim_total);
  }
}

// --- link-model helpers -------------------------------------------------

// Uniform link model from the shared bench flags: --latency-ms,
// --bandwidth-mbps (megabits/s), --jitter-ms. All-zero flags (the
// default) give the zero model, i.e. the pre-clock behavior.
inline dist::LinkModel link_model_from_flags(const CliFlags& flags,
                                             std::uint64_t seed,
                                             double default_latency_ms = 0,
                                             double default_mbps = 0,
                                             double default_jitter_ms = 0) {
  dist::LinkParams p;
  p.latency_s =
      dist::ms_to_s(flags.get_double("latency-ms", default_latency_ms));
  p.bytes_per_s = dist::mbps_to_bytes_per_s(
      flags.get_double("bandwidth-mbps", default_mbps));
  p.jitter_s =
      dist::ms_to_s(flags.get_double("jitter-ms", default_jitter_ms));
  return dist::LinkModel(p, seed);
}

// A uniform model with one straggling worker whose links (both
// directions) run `slowdown` times slower.
inline dist::LinkModel straggler_link_model(double latency_ms, double mbps,
                                            int straggler_worker,
                                            double slowdown,
                                            std::uint64_t seed) {
  dist::LinkParams p;
  p.latency_s = dist::ms_to_s(latency_ms);
  p.bytes_per_s = dist::mbps_to_bytes_per_s(mbps);
  dist::LinkModel model(p, seed);
  if (slowdown != 1.0) model.slow_node(straggler_worker, slowdown);
  return model;
}

// --- competitor runners -------------------------------------------------

struct RunContext {
  const data::InMemoryDataset& train;
  metrics::Evaluator& evaluator;
  gan::GanArch arch;
  std::int64_t iters;
  std::int64_t eval_every;
  std::uint64_t seed;
  // Link model applied to the run's SimNetwork (zero model by default, so
  // benches that don't care about time are unchanged).
  dist::LinkModel link{};
};

inline Series run_standalone(const RunContext& ctx, gan::GanHyperParams hp,
                             const std::string& label) {
  Series out{label, {}, {}, {}, 0.0};
  gan::StandaloneGan alone(ctx.arch, hp, ctx.seed);
  out.points.push_back(
      {0, ctx.evaluator.evaluate(alone.generator(), ctx.arch,
                                 alone.codes())});
  out.sim_at.push_back(0.0);  // no network, no simulated time
  alone.train(ctx.train, ctx.iters, ctx.eval_every,
              [&](std::int64_t it, nn::Sequential& g) {
                out.points.push_back(
                    {it, ctx.evaluator.evaluate(g, ctx.arch,
                                                alone.codes())});
                out.sim_at.push_back(0.0);
              });
  return out;
}

inline Series run_fl_gan(const RunContext& ctx, gan::GanHyperParams hp,
                         std::size_t workers,
                         const std::string& label) {
  Series out{label, {}, {}, {}, 0.0};
  Rng split_rng(ctx.seed);
  auto shards = data::split_iid(ctx.train, workers, split_rng);
  dist::SimNetwork net(workers);
  net.set_link_model(ctx.link);
  gan::FlGanConfig cfg;
  cfg.hp = hp;
  gan::FlGan fl(ctx.arch, cfg, std::move(shards), ctx.seed, net);
  {
    auto g = fl.server_generator();
    out.points.push_back(
        {0, ctx.evaluator.evaluate(g, ctx.arch, fl.codes())});
    out.sim_at.push_back(net.max_sim_time());
  }
  fl.train(ctx.iters, ctx.eval_every,
           [&](std::int64_t it, nn::Sequential& g) {
             out.points.push_back(
                 {it, ctx.evaluator.evaluate(g, ctx.arch, fl.codes())});
             out.sim_at.push_back(net.max_sim_time());
           });
  out.traffic = TrafficSummary::of(net);
  out.sim_total = net.max_sim_time();
  return out;
}

struct MdGanRunOptions {
  std::size_t k = 1;
  bool swap_enabled = true;
  // Membership schedule: leave/rejoin intervals, or a plain
  // CrashSchedule for fail-stop-only runs (Figure 5).
  const dist::AvailabilitySchedule* availability = nullptr;
  dist::CompressionConfig feedback_compression{};
  // §VII-1 async server: one Adam step per feedback, on arrival.
  bool async = false;
};

inline Series run_md_gan(const RunContext& ctx, gan::GanHyperParams hp,
                         std::size_t workers, MdGanRunOptions opts,
                         const std::string& label) {
  Series out{label, {}, {}, {}, 0.0};
  Rng split_rng(ctx.seed);
  auto shards = data::split_iid(ctx.train, workers, split_rng);
  // Metrics-only sink (no trace/metrics paths => tracing off, registry
  // counting on): the bench's traffic columns are read back out of the
  // registry, exercising the same counters ci.sh validates. Declared
  // before the network so it outlives the transport that charges it.
  obs::Sink sink;
  dist::SimNetwork net(workers);
  net.set_link_model(ctx.link);
  core::MdGanConfig cfg;
  cfg.hp = hp;
  cfg.k = opts.k;
  cfg.swap_enabled = opts.swap_enabled;
  cfg.feedback_compression = opts.feedback_compression;
  cfg.async = opts.async;
  cfg.sink = &sink;
  core::MdGan md(ctx.arch, cfg, std::move(shards), ctx.seed, net,
                 opts.availability);
  out.points.push_back(
      {0, ctx.evaluator.evaluate(md.generator(), ctx.arch, md.codes())});
  out.sim_at.push_back(md.sim_seconds());
  md.train(ctx.iters, ctx.eval_every,
           [&](std::int64_t it, nn::Sequential& g) {
             out.points.push_back(
                 {it, ctx.evaluator.evaluate(g, ctx.arch, md.codes())});
             out.sim_at.push_back(md.sim_seconds());
           });
  out.traffic = TrafficSummary::of(net, sink.registry());
  out.sim_total = md.sim_seconds();
  return out;
}

}  // namespace mdgan::bench
