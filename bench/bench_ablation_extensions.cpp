// Ablation for the §VII "perspectives" implemented beyond the paper's
// evaluated configuration:
//  * async server updates (§VII-1): one Adam step per feedback vs the
//    synchronous barrier — compared at equal *generator update* budget,
//    since async turns each global iteration into N updates;
//  * feedback compression (§VII-2): none / int8 / top-k(10%) — score vs
//    measured W->C traffic;
//  * sparse discriminators (§VII-4): n_discs in {N, N/2, 1} — score vs
//    per-iteration worker compute.
#include <cstdio>

#include "bench_common.hpp"
#include "dist/sim_network.hpp"

using namespace mdgan;
using namespace mdgan::bench;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool full = flags.get_bool("full");
  const std::size_t workers = flags.get_int("workers", 4);
  const std::int64_t iters = flags.get_int("iters", full ? 600 : 120);
  const std::uint64_t seed = flags.get_int("seed", 42);

  std::printf("=== Ablation: §VII extensions (async, compression, sparse "
              "discriminators; MLP, N=%zu, I=%lld) ===\n",
              workers, static_cast<long long>(iters));
  std::printf("csv: ext,<variant>,<IS>,<FID>,<w2c_bytes>,<gen_updates>\n");

  auto train = data::make_synthetic_digits(workers * 400, seed);
  auto test = data::make_synthetic_digits(512, seed + 1);
  auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  metrics::Evaluator evaluator(train, test, {64, 3, 64, 1e-3f}, 256, seed);

  auto run = [&](const char* name, core::MdGanConfig cfg,
                 std::int64_t run_iters) {
    Rng split_rng(seed);
    auto shards = data::split_iid(train, workers, split_rng);
    dist::SimNetwork net(workers);
    core::MdGan md(arch, cfg, std::move(shards), seed, net);
    md.train(run_iters);
    auto s = evaluator.evaluate(md.generator(), arch, md.codes());
    std::printf("ext,%s,%.4f,%.4f,%llu,%lld\n", name, s.inception_score,
                s.fid,
                (unsigned long long)net
                    .totals(dist::LinkKind::kWorkerToServer)
                    .bytes,
                static_cast<long long>(md.generator_updates()));
    std::fflush(stdout);
  };

  core::MdGanConfig base;
  base.hp.batch = 10;
  base.k = core::k_log_n(workers);

  // Sync vs async at equal generator-update budget.
  run("sync", base, iters);
  {
    core::MdGanConfig cfg = base;
    cfg.async = true;
    run("async (same updates)",
        cfg, std::max<std::int64_t>(iters / workers, 1));
    run("async (same rounds)", cfg, iters);
  }

  // Compression sweep.
  {
    core::MdGanConfig cfg = base;
    cfg.feedback_compression.kind = dist::CompressionKind::kQuantizeInt8;
    run("feedback int8", cfg, iters);
    cfg.feedback_compression = {dist::CompressionKind::kTopK, 0.1f};
    run("feedback top-10%", cfg, iters);
  }

  // Sparse discriminators.
  {
    core::MdGanConfig cfg = base;
    cfg.n_discriminators = std::max<std::size_t>(1, workers / 2);
    cfg.k = 1;
    run("discs = N/2", cfg, iters);
    cfg.n_discriminators = 1;
    run("discs = 1", cfg, iters);
  }

  std::printf(
      "\nshapes to check: int8 ~ uncompressed quality at 1/4 traffic; "
      "top-k trades further traffic for score; async at same rounds "
      "applies Nx updates; fewer discs reduce W->C traffic "
      "proportionally.\n");
  return 0;
}
