// Ablation: the number of discriminator learning steps L per global
// iteration (Algorithm 1's inner loop, inherited from the original GAN
// paper's "few gradient descent iterations"). The paper fixes L without
// sweeping it; this bench quantifies the trade-off on our stack: larger
// L means better-trained discriminators per generator update but L times
// the worker compute.
//
// Also sweeps E (epochs between discriminator swaps) — the other
// worker-side knob DESIGN.md calls out — since both shift the
// discriminator/generator balance.
#include <cstdio>

#include "bench_common.hpp"
#include "dist/sim_network.hpp"

using namespace mdgan;
using namespace mdgan::bench;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool full = flags.get_bool("full");
  const std::size_t workers = flags.get_int("workers", 3);
  const std::int64_t iters = flags.get_int("iters", full ? 600 : 120);
  const std::uint64_t seed = flags.get_int("seed", 42);

  std::printf("=== Ablation: discriminator steps L and swap period E "
              "(MD-GAN, MLP, N=%zu, I=%lld) ===\n",
              workers, static_cast<long long>(iters));
  std::printf("csv: ablation,<param>,<value>,<IS>,<FID>\n");

  auto train = data::make_synthetic_digits(workers * 400, seed);
  auto test = data::make_synthetic_digits(512, seed + 1);
  auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  metrics::Evaluator evaluator(train, test, {64, 3, 64, 1e-3f}, 256, seed);

  for (std::size_t L : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    Rng split_rng(seed);
    auto shards = data::split_iid(train, workers, split_rng);
    dist::SimNetwork net(workers);
    core::MdGanConfig cfg;
    cfg.hp.batch = 10;
    cfg.hp.disc_steps = L;
    cfg.k = core::k_log_n(workers);
    core::MdGan md(arch, cfg, std::move(shards), seed, net);
    md.train(iters);
    auto s = evaluator.evaluate(md.generator(), arch, md.codes());
    std::printf("ablation,L,%zu,%.4f,%.4f\n", L, s.inception_score, s.fid);
    std::fflush(stdout);
  }

  for (std::size_t E : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    Rng split_rng(seed);
    auto shards = data::split_iid(train, workers, split_rng);
    dist::SimNetwork net(workers);
    core::MdGanConfig cfg;
    cfg.hp.batch = 10;
    cfg.epochs_per_swap = E;
    cfg.k = core::k_log_n(workers);
    core::MdGan md(arch, cfg, std::move(shards), seed, net);
    md.train(iters);
    auto s = evaluator.evaluate(md.generator(), arch, md.codes());
    std::printf("ablation,E,%zu,%.4f,%.4f\n", E, s.inception_score, s.fid);
    std::fflush(stdout);
  }
  return 0;
}
