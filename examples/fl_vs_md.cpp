// Head-to-head: standalone GAN vs FL-GAN vs MD-GAN on the same synthetic
// dataset and the same evaluator — a miniature of the paper's Figure 3
// comparison, with the Table III traffic printed alongside.
//
//   ./fl_vs_md [--workers=4] [--iters=200] [--batch=10] [--dataset=digits]
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "core/complexity.hpp"
#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"
#include "gan/fl_gan.hpp"
#include "metrics/evaluator.hpp"

int main(int argc, char** argv) {
  using namespace mdgan;
  CliFlags flags(argc, argv);
  const std::size_t workers = flags.get_int("workers", 4);
  const std::int64_t iters = flags.get_int("iters", 200);
  const std::size_t batch = flags.get_int("batch", 10);
  const std::string dataset = flags.get("dataset", "digits");
  const std::uint64_t seed = flags.get_int("seed", 7);

  auto train = data::make_dataset_by_name(dataset, workers * 300, seed);
  auto test = data::make_dataset_by_name(dataset, 400, seed + 1);
  auto arch = gan::make_arch(dataset == "cifar" ? gan::ArchKind::kCnnCifar
                                                : gan::ArchKind::kMlpMnist);
  metrics::Evaluator evaluator(train, test, {64, 3, 64, 1e-3f}, 256, seed);

  gan::GanHyperParams hp;
  hp.batch = batch;

  std::printf("%-18s %10s %10s %14s %14s\n", "competitor", "IS", "FID",
              "C<->W bytes", "W<->W bytes");

  // Standalone GAN sees the whole dataset, no network.
  {
    gan::StandaloneGan alone(arch, hp, seed);
    alone.train(train, iters);
    auto s = evaluator.evaluate(alone.generator(), arch, alone.codes());
    std::printf("%-18s %10.3f %10.2f %14s %14s\n", "standalone",
                s.inception_score, s.fid, "0", "0");
  }

  // FL-GAN: full GAN per worker, model averaging every epoch.
  {
    Rng split_rng(seed);
    auto shards = data::split_iid(train, workers, split_rng);
    dist::SimNetwork net(workers);
    gan::FlGanConfig cfg;
    cfg.hp = hp;
    gan::FlGan fl(arch, cfg, std::move(shards), seed, net);
    fl.train(iters);
    auto g = fl.server_generator();
    auto s = evaluator.evaluate(g, arch, fl.codes());
    const auto cw = net.totals(dist::LinkKind::kServerToWorker).bytes +
                    net.totals(dist::LinkKind::kWorkerToServer).bytes;
    std::printf("%-18s %10.3f %10.2f %14s %14s\n", "fl-gan",
                s.inception_score, s.fid, core::human_bytes(cw).c_str(),
                "0");
  }

  // MD-GAN: single generator, swapped discriminators.
  for (std::size_t k : {std::size_t{1}, core::k_log_n(workers)}) {
    Rng split_rng(seed);
    auto shards = data::split_iid(train, workers, split_rng);
    dist::SimNetwork net(workers);
    core::MdGanConfig cfg;
    cfg.hp = hp;
    cfg.k = k;
    core::MdGan md(arch, cfg, std::move(shards), seed, net);
    md.train(iters);
    auto s = evaluator.evaluate(md.generator(), arch, md.codes());
    const auto cw = net.totals(dist::LinkKind::kServerToWorker).bytes +
                    net.totals(dist::LinkKind::kWorkerToServer).bytes;
    const auto ww = net.totals(dist::LinkKind::kWorkerToWorker).bytes;
    char label[32];
    std::snprintf(label, sizeof label, "md-gan (k=%zu)", k);
    std::printf("%-18s %10.3f %10.2f %14s %14s\n", label,
                s.inception_score, s.fid, core::human_bytes(cw).c_str(),
                core::human_bytes(ww).c_str());
    if (k == core::k_log_n(workers) && core::k_log_n(workers) == 1) break;
  }
  return 0;
}
