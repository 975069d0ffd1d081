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

class ReLU : public Layer {
 public:
  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::string name() const override { return "ReLU"; }

 private:
  Workspace ws_;
  const Tensor* cached_output_ = nullptr;
};

class LeakyReLU : public Layer {
 public:
  // alpha must be >= 0: backward uses the output sign as the mask,
  // which only matches the input sign for non-negative slopes.
  explicit LeakyReLU(float alpha = 0.2f);
  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::string name() const override { return "LeakyReLU"; }
  float alpha() const { return alpha_; }

 private:
  float alpha_;
  Workspace ws_;
  const Tensor* cached_output_ = nullptr;
};

class Tanh : public Layer {
 public:
  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::string name() const override { return "Tanh"; }

 private:
  Workspace ws_;
  const Tensor* cached_output_ = nullptr;
};

class Sigmoid : public Layer {
 public:
  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::string name() const override { return "Sigmoid"; }

 private:
  Workspace ws_;
  const Tensor* cached_output_ = nullptr;
};

}  // namespace mdgan::nn
