// FL-GAN: the paper's adaptation of federated learning to GANs (§III-c,
// Figure 1b). Every worker owns a full local GAN (G_n, D_n) trained on
// its shard; every E local epochs all workers ship both parameter sets
// to the server, which averages them and broadcasts the result.
//
// Traffic is pushed through the SimNetwork so the (θ+w)-sized
// rounds of Table III/IV and Figure 2 are measured, not asserted.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.hpp"
#include "dist/transport.hpp"
#include "gan/trainer.hpp"

namespace mdgan::gan {

struct FlGanConfig {
  GanHyperParams hp;
  std::size_t epochs_per_round = 1;  // E
};

class FlGan {
 public:
  // `shards[n]` is worker n+1's local dataset B_n (use data::split_iid).
  // The SimNetwork must have been constructed with shards.size() workers.
  FlGan(GanArch arch, FlGanConfig cfg,
        std::vector<data::InMemoryDataset> shards, std::uint64_t seed,
        dist::Transport& net);

  // Runs `iters` local iterations on every worker (one generator update
  // each), synchronizing every round. Hook receives the server-averaged
  // generator.
  void train(std::int64_t iters, std::int64_t eval_every = 0,
             const EvalHook& hook = nullptr);

  // Parameter-average of the current worker generators — the "generator
  // on the central server" the paper evaluates.
  nn::Sequential server_generator();

  const GanArch& arch() const { return arch_; }
  const ClassCodes& codes() const { return codes_; }
  std::size_t n_workers() const { return workers_.size(); }
  // Local iterations between two synchronization rounds: E * m / b.
  std::int64_t round_length() const;

 private:
  struct Worker {
    data::InMemoryDataset shard;
    nn::Sequential g, d;
    std::unique_ptr<opt::Adam> g_opt, d_opt;
    Rng rng;
  };

  void synchronize();

  GanArch arch_;
  FlGanConfig cfg_;
  ClassCodes codes_;
  dist::Transport& net_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::uint64_t seed_;
};

}  // namespace mdgan::gan
