// Fault tolerance demo (the paper's Figure 5 scenario): workers crash
// fail-stop one by one — their data shards disappear with them — while
// MD-GAN keeps training on the survivors.
//
//   ./fault_tolerance [--workers=4] [--iters=200] [--batch=10]
#include <cstdio>

#include "common/cli.hpp"
#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"
#include "metrics/evaluator.hpp"

int main(int argc, char** argv) {
  using namespace mdgan;
  CliFlags flags(argc, argv);
  const std::size_t workers = flags.get_int("workers", 4);
  const std::int64_t iters = flags.get_int("iters", 200);
  const std::size_t batch = flags.get_int("batch", 10);
  const std::uint64_t seed = flags.get_int("seed", 21);

  auto train = data::make_synthetic_digits(workers * 300, seed);
  auto test = data::make_synthetic_digits(400, seed + 1);
  auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  metrics::Evaluator evaluator(train, test, {64, 3, 64, 1e-3f}, 256, seed);

  // One crash every iters/N iterations: by the end, nobody is left.
  auto crashes = dist::CrashSchedule::evenly_spaced(iters, workers);
  std::printf(
      "MD-GAN with fail-stop crashes: %zu workers, one crash every %lld "
      "iterations\n\n",
      workers, static_cast<long long>(iters / workers));

  Rng split_rng(seed);
  auto shards = data::split_iid(train, workers, split_rng);
  dist::SimNetwork net(workers);
  core::MdGanConfig cfg;
  cfg.hp.batch = batch;
  cfg.k = core::k_log_n(workers);
  core::MdGan md(arch, cfg, std::move(shards), seed, net, &crashes);

  std::printf("%8s %8s %10s %10s\n", "iter", "alive", "IS", "FID");
  md.train(iters, std::max<std::int64_t>(iters / 8, 1),
           [&](std::int64_t it, nn::Sequential& g) {
             auto s = evaluator.evaluate(g, arch, md.codes());
             std::printf("%8lld %8zu %10.3f %10.2f\n",
                         static_cast<long long>(it),
                         net.alive_worker_count(), s.inception_score,
                         s.fid);
           });

  std::printf("\nrun ended after %lld iterations with %zu alive workers\n",
              static_cast<long long>(md.iterations_run()),
              net.alive_worker_count());
  std::printf(
      "the generator survives on the server; crashed shards are lost,\n"
      "matching the paper's observation that early crashes hurt most.\n");
  return 0;
}
