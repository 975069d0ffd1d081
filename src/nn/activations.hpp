// Elementwise activations. Each caches its *output* for backward: for
// tanh/sigmoid the gradient is a function of the output, and for the
// ReLU family sign(y) == sign(x) (alpha >= 0), so the output mask
// suffices — no input copy needed. All four run out of a per-layer
// Workspace (zero steady-state allocations) with grain-aware parallel
// elementwise loops.
#pragma once

#include "common/workspace.hpp"
#include "nn/layer.hpp"

namespace mdgan::nn {

// What an activation keeps for backward: its workspace and the output
// slot in it.
struct ActivationCache {
  Workspace ws;
  const Tensor* output = nullptr;
};

class ReLU : public Layer {
 public:
  const Tensor& forward(const Tensor& x, bool train) override;
  void swap_cache(std::size_t slot) override {
    swap_parked(cache_, parked_, slot);
  }
  std::string name() const override { return "ReLU"; }

 private:
  const Tensor& do_backward(const Tensor& grad_out, Grads want) override;

  ActivationCache cache_;
  std::vector<ActivationCache> parked_;
};

class LeakyReLU : public Layer {
 public:
  // alpha must be >= 0: backward uses the output sign as the mask,
  // which only matches the input sign for non-negative slopes.
  explicit LeakyReLU(float alpha = 0.2f);
  const Tensor& forward(const Tensor& x, bool train) override;
  void swap_cache(std::size_t slot) override {
    swap_parked(cache_, parked_, slot);
  }
  std::string name() const override { return "LeakyReLU"; }
  float alpha() const { return alpha_; }

 private:
  const Tensor& do_backward(const Tensor& grad_out, Grads want) override;

  float alpha_;
  ActivationCache cache_;
  std::vector<ActivationCache> parked_;
};

class Tanh : public Layer {
 public:
  const Tensor& forward(const Tensor& x, bool train) override;
  void swap_cache(std::size_t slot) override {
    swap_parked(cache_, parked_, slot);
  }
  std::string name() const override { return "Tanh"; }

 private:
  const Tensor& do_backward(const Tensor& grad_out, Grads want) override;

  ActivationCache cache_;
  std::vector<ActivationCache> parked_;
};

class Sigmoid : public Layer {
 public:
  const Tensor& forward(const Tensor& x, bool train) override;
  void swap_cache(std::size_t slot) override {
    swap_parked(cache_, parked_, slot);
  }
  std::string name() const override { return "Sigmoid"; }

 private:
  const Tensor& do_backward(const Tensor& grad_out, Grads want) override;

  ActivationCache cache_;
  std::vector<ActivationCache> parked_;
};

}  // namespace mdgan::nn
