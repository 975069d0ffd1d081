// Adam (Kingma & Ba) — the optimizer the paper uses on both sides of the
// GAN and on the MD-GAN server (Algorithm 1 line 39). β1/β2 are exposed
// because the Fig. 6 CelebA experiment uses different settings per
// competitor (§V-B4).
//
// An Adam binds to a fixed list of (param, grad) tensor pairs — exactly
// what Sequential::params()/grads() return — and step() applies one
// update from the currently accumulated gradients. The moments are
// keyed by position. A swap carries θ only, so the adopting host resets
// them (MdGan::swap).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace mdgan::opt {

struct AdamConfig {
  float lr = 2e-4f;
  float beta1 = 0.5f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
};

class Adam {
 public:
  // Throws std::invalid_argument when the lists differ in length or a
  // param/grad pair differs in shape.
  Adam(std::vector<Tensor*> params, std::vector<Tensor*> grads,
       AdamConfig config = {});

  // Applies one update in place on all bound parameters.
  void step() { step_scaled(1.f); }
  // Staleness-aware entry point for the async MD-GAN server: one Adam
  // update whose learning rate is scaled by `lr_scale` (the moments and
  // bias correction advance exactly as in a plain step, so damped and
  // undamped steps share one trajectory of optimizer state). A scale of
  // 1 is bit-identical to step().
  void step_scaled(float lr_scale);
  // Resets the moments and the step counter without touching the
  // parameters.
  void reset();
  void zero_grad();

  std::int64_t step_count() const { return t_; }

 private:
  std::vector<Tensor*> params_;
  std::vector<Tensor*> grads_;
  AdamConfig config_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_;  // first moment
  std::vector<Tensor> v_;  // second moment
};

}  // namespace mdgan::opt
