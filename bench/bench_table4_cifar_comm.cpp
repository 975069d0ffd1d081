// Table IV reproduction: communication costs on the CIFAR10 experiment
// (N=10 workers, b in {10,100}), three ways:
//   1. the paper's reported numbers,
//   2. our analytic model (float32, single parameter copy),
//   3. bytes measured off the simulated wire by actually running one
//      MD-GAN global iteration and one FL-GAN synchronization round with
//      the CNN-CIFAR architecture.
//
// The paper's FL-GAN rows are consistent with counting 3 tensors x
// 8 bytes per parameter (value + two Adam moments in float64); its
// MD-GAN rows are float32 single-copy. We report our uniform float32
// accounting and show the paper numbers alongside (see EXPERIMENTS.md).
#include <cstdio>

#include "common/cli.hpp"
#include "core/complexity.hpp"
#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"
#include "gan/fl_gan.hpp"

using namespace mdgan;

namespace {

struct MeasuredRow {
  std::uint64_t c2w_server, c2w_worker, w2c_worker, w2c_server, w2w_worker;
};

// Runs `iters` MD-GAN global iterations on the real CNN-CIFAR stack and
// returns per-event byte counts (per iteration for C<->W, per swap for
// W->W).
MeasuredRow measure_md_gan(std::size_t n, std::size_t b,
                           std::int64_t iters) {
  auto train = data::make_synthetic_cifar(n * std::max<std::size_t>(b, 16),
                                          1234);
  Rng split_rng(5);
  auto shards = data::split_iid(train, n, split_rng);
  dist::SimNetwork net(n);
  core::MdGanConfig cfg;
  cfg.hp.batch = b;
  cfg.k = 1;
  cfg.epochs_per_swap = 1;
  core::MdGan md(gan::make_arch(gan::ArchKind::kCnnCifar), cfg,
                 std::move(shards), 7, net);
  md.train(iters);
  const auto swaps = net.message_count(dist::LinkKind::kWorkerToWorker);
  MeasuredRow r{};
  r.c2w_server =
      net.totals(dist::LinkKind::kServerToWorker).bytes / iters;
  r.c2w_worker = r.c2w_server / n;
  r.w2c_server =
      net.totals(dist::LinkKind::kWorkerToServer).bytes / iters;
  r.w2c_worker = r.w2c_server / n;
  r.w2w_worker =
      swaps ? net.totals(dist::LinkKind::kWorkerToWorker).bytes / swaps : 0;
  return r;
}

MeasuredRow measure_fl_gan(std::size_t n, std::size_t b) {
  // One full round: m = b so the round length is exactly 1 iteration.
  auto train = data::make_synthetic_cifar(n * std::max<std::size_t>(b, 16),
                                          1234);
  Rng split_rng(5);
  auto shards = data::split_iid(train, n, split_rng);
  dist::SimNetwork net(n);
  gan::FlGanConfig cfg;
  cfg.hp.batch = b;
  cfg.epochs_per_round = 1;
  gan::FlGan fl(gan::make_arch(gan::ArchKind::kCnnCifar), cfg,
                std::move(shards), 7, net);
  const auto rounds = static_cast<std::int64_t>(fl.round_length());
  fl.train(rounds);  // exactly one synchronization
  MeasuredRow r{};
  r.c2w_server = net.totals(dist::LinkKind::kServerToWorker).bytes;
  r.c2w_worker = r.c2w_server / n;
  r.w2c_server = net.totals(dist::LinkKind::kWorkerToServer).bytes;
  r.w2c_worker = r.w2c_server / n;
  r.w2w_worker = 0;
  return r;
}

void print_block(const char* algo, std::size_t b, const MeasuredRow& m,
                 const core::CommTable& analytic, const char* paper_c2w_c,
                 const char* paper_c2w_w) {
  std::printf("\n-- %s, b=%zu --\n", algo, b);
  std::printf("%-14s %14s %14s %12s\n", "link", "measured", "analytic",
              "paper");
  std::printf("%-14s %14s %14s %12s\n", "C->W (C)",
              core::human_bytes(m.c2w_server).c_str(),
              core::human_bytes(analytic.c_to_w_at_server).c_str(),
              paper_c2w_c);
  std::printf("%-14s %14s %14s %12s\n", "C->W (W)",
              core::human_bytes(m.c2w_worker).c_str(),
              core::human_bytes(analytic.c_to_w_at_worker).c_str(),
              paper_c2w_w);
  std::printf("%-14s %14s %14s %12s\n", "W->C (W)",
              core::human_bytes(m.w2c_worker).c_str(),
              core::human_bytes(analytic.w_to_c_at_worker).c_str(),
              paper_c2w_w);
  std::printf("%-14s %14s %14s %12s\n", "W->C (C)",
              core::human_bytes(m.w2c_server).c_str(),
              core::human_bytes(analytic.w_to_c_at_server).c_str(),
              paper_c2w_c);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::size_t n = flags.get_int("workers", 10);
  // Measuring is exact after a single event; more iterations only
  // re-confirm the same per-event sizes.
  const std::int64_t iters = flags.get_int("iters", 1);

  std::printf("=== Table IV: communication costs, CIFAR10 experiment "
              "(N=%zu) ===\n", n);
  std::printf("measured = bytes on the simulated wire (our CPU-scaled "
              "CNN, float32 params);\nanalytic = paper formulas with the "
              "paper's parameter counts; paper = reported values.\n");
  std::printf("FL-GAN paper rows count parameters as 3 tensors x 8 B "
              "(Adam state in float64) — our wire ships one float32 "
              "copy, hence the ~6x gap on FL-GAN rows; MD-GAN rows "
              "match directly.\n");

  for (std::size_t b : {std::size_t{10}, std::size_t{100}}) {
    auto dims = core::paper_cifar_cnn_dims();
    dims.batch = b;
    dims.n_workers = n;

    auto fl_measured = measure_fl_gan(n, b);
    print_block("FL-GAN", b, fl_measured, core::fl_gan_comm(dims),
                "175 MB", "17.5 MB");

    auto md_measured = measure_md_gan(n, b, iters);
    print_block("MD-GAN", b, md_measured, core::md_gan_comm(dims),
                b == 10 ? "2.30 MB" : "23.0 MB",
                b == 10 ? "0.23 MB" : "2.30 MB");
    std::printf("%-14s %14s %14s %12s\n", "W->W (W)",
                core::human_bytes(md_measured.w2w_worker).c_str(),
                core::human_bytes(
                    core::md_gan_comm(dims).w_to_w_at_worker)
                    .c_str(),
                "6.34 MB");
  }

  std::printf("\nevent counts over the paper's full run (I=50000, "
              "m=5000, E=1):\n");
  auto d10 = core::paper_cifar_cnn_dims();
  d10.batch = 10;
  auto d100 = d10;
  d100.batch = 100;
  std::printf("  FL-GAN # C<->W: b=10 -> %llu (paper 100), b=100 -> %llu "
              "(paper 1000)\n",
              (unsigned long long)core::fl_gan_comm(d10).num_cw_events,
              (unsigned long long)core::fl_gan_comm(d100).num_cw_events);
  std::printf("  MD-GAN # C<->W: %llu (paper 50000); # W<->W: b=10 -> "
              "%llu (paper 100), b=100 -> %llu (paper 1000)\n",
              (unsigned long long)core::md_gan_comm(d10).num_cw_events,
              (unsigned long long)core::md_gan_comm(d10).num_ww_events,
              (unsigned long long)core::md_gan_comm(d100).num_ww_events);
  return 0;
}
