// Quickstart: train MD-GAN on the synthetic-digits dataset with a handful
// of simulated workers, evaluating MNIST-score (IS) and FID as training
// progresses.
//
//   ./quickstart [--workers=4] [--iters=300] [--batch=10] [--k=2]
//                [--seed=42]
//
// This is the smallest end-to-end tour of the public API: dataset ->
// i.i.d. shards -> simulated network -> MdGan -> Evaluator.
#include <cstdio>

#include "common/cli.hpp"
#include "core/complexity.hpp"
#include "core/md_gan.hpp"
#include "data/image_io.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"
#include "metrics/evaluator.hpp"

int main(int argc, char** argv) {
  using namespace mdgan;
  CliFlags flags(argc, argv);
  const std::size_t workers = flags.get_int("workers", 4);
  const std::int64_t iters = flags.get_int("iters", 300);
  const std::size_t batch = flags.get_int("batch", 10);
  const std::size_t k = flags.get_int("k", core::k_log_n(workers));
  const std::uint64_t seed = flags.get_int("seed", 42);

  std::printf("MD-GAN quickstart: N=%zu workers, b=%zu, k=%zu, %lld iters\n",
              workers, batch, k, static_cast<long long>(iters));

  // 1. Data: a synthetic MNIST stand-in, split i.i.d. over the workers.
  auto train = data::make_synthetic_digits(workers * 400, seed);
  auto test = data::make_synthetic_digits(512, seed + 1);
  Rng split_rng(seed);
  auto shards = data::split_iid(train, workers, split_rng);
  std::printf("dataset: %zu train images (%zu per worker), %zu test\n",
              train.size(), shards[0].size(), test.size());

  // 2. Metrics: a scoring classifier trained on the same data.
  metrics::Evaluator evaluator(train, test, {64, 3, 64, 1e-3f},
                               /*eval_samples=*/256, seed);

  // 3. The MD-GAN cluster: one generator on the server, one
  //    discriminator per worker, gossip swaps every epoch.
  auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  core::MdGanConfig cfg;
  cfg.hp.batch = batch;
  cfg.k = k;
  dist::SimNetwork net(workers);
  core::MdGan md(arch, cfg, std::move(shards), seed, net);

  std::printf("\n%8s %10s %10s\n", "iter", "IS", "FID");
  auto initial = evaluator.evaluate(md.generator(), arch, md.codes());
  std::printf("%8d %10.3f %10.2f  (untrained)\n", 0,
              initial.inception_score, initial.fid);

  md.train(iters, std::max<std::int64_t>(iters / 5, 1),
           [&](std::int64_t it, nn::Sequential& g) {
             auto s = evaluator.evaluate(g, arch, md.codes());
             std::printf("%8lld %10.3f %10.2f\n",
                         static_cast<long long>(it), s.inception_score,
                         s.fid);
           });

  // 4. Dump a sample grid next to the real data for visual comparison.
  {
    Rng sample_rng(seed + 2);
    std::vector<int> labels;
    Tensor z = gan::sample_latent(arch, md.codes(), 32, sample_rng, labels);
    Tensor fake = md.generator().forward(z, false);
    data::write_image_grid("quickstart_generated.pgm", fake,
                           train.meta(), 32);
    std::vector<int> rl;
    Tensor real = train.sample_batch(sample_rng, 32, &rl);
    data::write_image_grid("quickstart_real.pgm", real, train.meta(), 32);
    std::printf("\nwrote quickstart_generated.pgm / quickstart_real.pgm\n");
  }

  // 5. What moved over the wire (the paper's Table III in action).
  std::printf("\ntraffic after %lld iterations:\n",
              static_cast<long long>(md.iterations_run()));
  std::printf("  C->W %s   W->C %s   W->W %s\n",
              core::human_bytes(
                  net.totals(dist::LinkKind::kServerToWorker).bytes)
                  .c_str(),
              core::human_bytes(
                  net.totals(dist::LinkKind::kWorkerToServer).bytes)
                  .c_str(),
              core::human_bytes(
                  net.totals(dist::LinkKind::kWorkerToWorker).bytes)
                  .c_str());
  return 0;
}
