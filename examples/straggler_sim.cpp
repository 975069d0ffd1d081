// Straggler simulation: the smallest tour of the simulated-time API.
// Attach a dist::LinkModel to the SimNetwork, train MD-GAN twice — once on
// a homogeneous cluster, once with one worker's bandwidth cut — and
// watch the per-round critical path (seconds on the deterministic
// virtual clock) degrade while the training math stays bit-identical.
//
//   ./straggler_sim [--workers=4] [--iters=20] [--batch=8]
//                   [--latency-ms=5] [--bandwidth-mbps=100]
//                   [--slowdown=10] [--seed=42]
#include <cstdio>

#include "common/cli.hpp"
#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/cluster.hpp"

int main(int argc, char** argv) {
  using namespace mdgan;
  CliFlags flags(argc, argv);
  const std::size_t workers = flags.get_int("workers", 4);
  const std::int64_t iters = flags.get_int("iters", 20);
  const std::size_t batch = flags.get_int("batch", 8);
  const double latency_ms = flags.get_double("latency-ms", 5.0);
  const double mbps = flags.get_double("bandwidth-mbps", 100.0);
  const double slowdown = flags.get_double("slowdown", 10.0);
  const std::uint64_t seed = flags.get_int("seed", 42);

  auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  auto train = data::make_synthetic_digits(workers * 10 * batch, seed);

  // One run = one SimNetwork with a link model + one MdGan.
  auto run = [&](double cut, const char* label) {
    Rng split_rng(seed);
    auto shards = data::split_iid(train, workers, split_rng);
    dist::SimNetwork net(workers);
    dist::LinkParams link;
    link.latency_s = dist::ms_to_s(latency_ms);
    link.bytes_per_s = dist::mbps_to_bytes_per_s(mbps);
    dist::LinkModel model(link, seed);
    if (cut != 1.0) model.slow_node(/*node=*/1, cut);
    net.set_link_model(model);

    core::MdGanConfig cfg;
    cfg.hp.batch = batch;
    cfg.k = core::k_log_n(workers);
    core::MdGan md(arch, cfg, std::move(shards), seed, net);
    md.train(iters);

    std::printf("\n%s (worker 1 bandwidth / %.0f):\n", label, cut);
    std::printf("  total simulated time %.4fs over %lld rounds\n",
                md.sim_seconds(),
                static_cast<long long>(md.iterations_run()));
    const auto& rounds = md.round_sim_seconds();
    if (!rounds.empty()) {
      std::printf("  first round %.6fs, last round %.6fs\n", rounds.front(),
                  rounds.back());
    }
    const auto clocks = dist::sim_times_of(net);
    std::printf("  node clocks: server %.4fs", clocks.server);
    for (std::size_t w = 0; w < clocks.workers.size(); ++w) {
      std::printf("  w%zu %.4fs", w + 1, clocks.workers[w]);
    }
    std::printf("\n");
    return md.sim_seconds();
  };

  std::printf("straggler simulation: N=%zu, %.3gms latency, %.3gMbit/s\n",
              workers, latency_ms, mbps);
  const double fair = run(1.0, "homogeneous cluster");
  const double slow = run(slowdown, "one straggler");
  std::printf("\nthe straggler stretches the run %.2fx — same training "
              "trajectory, later clock.\n",
              fair > 0.0 ? slow / fair : 0.0);
  return 0;
}
