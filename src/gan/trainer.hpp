// Shared training primitives and the standalone baseline.
//
// The same two building blocks power all three competitors:
//  * disc_learning_step — Algorithm 1 line 7 (and the local updates of
//    FL-GAN and the standalone GAN),
//  * generator_feedback — Algorithm 1 line 9: F_n = dJ_gen/dx computed
//    through the discriminator *without* computing its parameter grads.
// Keeping them in one place is what makes the N=1 equivalence property
// (MD-GAN == standalone, bit-for-bit) testable. local_gan_step composes
// them into the one local iteration the standalone GAN and every FL-GAN
// worker run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "data/dataset.hpp"
#include "gan/arch.hpp"
#include "gan/gan_loss.hpp"
#include "nn/sequential.hpp"
#include "opt/adam.hpp"

namespace mdgan::gan {

struct GanHyperParams {
  std::size_t batch = 100;     // b
  std::size_t disc_steps = 1;  // L: discriminator steps per iteration
  opt::AdamConfig g_adam{2e-4f, 0.5f, 0.999f, 1e-8f};
  opt::AdamConfig d_adam{2e-4f, 0.5f, 0.999f, 1e-8f};
  bool saturating = false;  // generator objective variant (see gan_loss)
};

struct DiscStepStats {
  float loss_real = 0.f;
  float loss_fake = 0.f;
  float aux_loss = 0.f;
};

// One discriminator learning step on (X_r, y_r) vs (X_f, y_f): both
// sides forward, then a backward that produces only the parameter
// gradients, then one optimizer step. Gradients are zeroed at entry, so
// callers never leak gradient state across steps.
DiscStepStats disc_learning_step(nn::Sequential& disc,
                                 opt::Adam& d_opt, const Tensor& x_real,
                                 const std::vector<int>& y_real,
                                 const Tensor& x_fake,
                                 const std::vector<int>& y_fake, bool acgan);

// Computes F = dJ_gen/dx on a generated batch through `disc`. The pass
// produces the input gradient only — the worker ships nothing else — so
// the discriminator's parameter gradients are neither computed nor
// touched. Returns the (B, d) feedback tensor, which `disc` owns: it
// stays valid until disc's next forward. `loss_out` (optional) receives
// J_gen.
const Tensor& generator_feedback(nn::Sequential& disc, const Tensor& x_fake,
                                 const std::vector<int>* y_fake,
                                 bool saturating, float* loss_out = nullptr);

// One local GAN iteration on `data`: L discriminator steps on one real
// batch against one generated batch, then one generator step through
// the discriminator's feedback. Draws from `rng` in a fixed order: the
// real batch, the fake latents, then the generator's latents.
void local_gan_step(const data::InMemoryDataset& data, Rng& rng,
                    nn::Sequential& g, opt::Adam& g_opt,
                    nn::Sequential& d, opt::Adam& d_opt,
                    const GanArch& arch, const ClassCodes& codes,
                    const GanHyperParams& hp);

// Called every eval_every iterations with the current server-side
// generator. Hooks typically run the metrics::Evaluator.
using EvalHook =
    std::function<void(std::int64_t iter, nn::Sequential& generator)>;

// Single-node baseline: the paper's "standalone GAN" with access to the
// whole dataset B.
class StandaloneGan {
 public:
  StandaloneGan(GanArch arch, GanHyperParams hp, std::uint64_t seed);

  // Runs `iters` generator updates; fires `hook` every `eval_every`
  // iterations (and once at the end) when non-null.
  void train(const data::InMemoryDataset& dataset, std::int64_t iters,
             std::int64_t eval_every = 0, const EvalHook& hook = nullptr);

  nn::Sequential& generator() { return g_; }
  nn::Sequential& discriminator() { return d_; }
  const GanArch& arch() const { return arch_; }
  const ClassCodes& codes() const { return codes_; }

 private:
  GanArch arch_;
  GanHyperParams hp_;
  ClassCodes codes_;
  Rng rng_;
  nn::Sequential g_, d_;
  std::unique_ptr<opt::Adam> g_opt_, d_opt_;
};

}  // namespace mdgan::gan
