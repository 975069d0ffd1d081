// Figure 2 reproduction: maximal ingress traffic per iteration as a
// function of batch size, for MNIST-GAN and CIFAR10-GAN dimensions.
// Plain lines (workers) and dotted lines (server) of the paper become
// the worker/server columns; FL-GAN is constant in b, MD-GAN linear,
// and their crossing is the "MD-GAN is competitive for smaller batch
// sizes" observation (paper: b under ~550 for MNIST, ~400 for CIFAR10).
//
// Also cross-checks the analytic worker line against bytes measured off
// the simulated wire for a few batch sizes.
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "core/complexity.hpp"
#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"

using namespace mdgan;

namespace {

// Measured per-iteration worker ingress for the MLP-MNIST stack at a
// given batch size (wire bytes include the 12B framing + 4B/label
// ACGAN overhead on top of the analytic 2bd floats).
std::uint64_t measured_worker_ingress(std::size_t b) {
  const std::size_t n = 2;
  auto train = data::make_synthetic_digits(
      n * std::max<std::size_t>(b, 16), 99);
  Rng split_rng(3);
  auto shards = data::split_iid(train, n, split_rng);
  dist::SimNetwork net(n);
  core::MdGanConfig cfg;
  cfg.hp.batch = b;
  cfg.k = 1;
  cfg.swap_enabled = false;
  core::MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
                 std::move(shards), 11, net);
  md.train(1);
  return net.max_ingress_per_iteration(1);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::size_t n = flags.get_int("workers", 10);

  std::printf("=== Figure 2: maximal ingress traffic per iteration vs "
              "batch size ===\n");
  std::printf("csv header: fig2,<dataset>,<b>,<fl_worker>,<fl_server>,"
              "<md_worker>,<md_server>  (bytes)\n");

  struct Entry {
    const char* name;
    core::GanDims dims;
  };
  std::vector<Entry> entries{
      {"mnist", core::paper_mnist_cnn_dims()},
      {"cifar10", core::paper_cifar_cnn_dims()},
  };

  const std::vector<std::size_t> batches{1,  2,   5,   10,  20,  50,
                                         100, 200, 400, 550, 700, 1000};
  for (auto& e : entries) {
    e.dims.n_workers = n;
    for (auto b : batches) {
      core::GanDims d = e.dims;
      d.batch = b;
      std::printf("fig2,%s,%zu,%llu,%llu,%llu,%llu\n", e.name, b,
                  (unsigned long long)core::fl_worker_ingress_bytes(d),
                  (unsigned long long)core::fl_server_ingress_bytes(d),
                  (unsigned long long)core::md_worker_ingress_bytes(d),
                  (unsigned long long)core::md_server_ingress_bytes(d));
    }
    std::printf("crossover,%s,b=%.0f  (paper: ~%s)\n", e.name,
                core::md_fl_worker_crossover_batch(e.dims),
                e.dims.data_dim == 784 ? "550" : "400");
  }

  std::printf("\nanalytic vs measured worker ingress (MLP-MNIST wire):\n");
  std::printf("%-8s %14s %14s\n", "b", "analytic", "measured");
  for (std::size_t b : {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
    core::GanDims d = core::paper_mnist_mlp_dims();
    d.batch = b;
    std::printf("%-8zu %14llu %14llu\n", b,
                (unsigned long long)core::md_worker_ingress_bytes(d),
                (unsigned long long)measured_worker_ingress(b));
  }
  std::printf("(measured = analytic 2bd floats + 24 B framing + 8 B/label "
              "ACGAN class ids)\n");
  return 0;
}
