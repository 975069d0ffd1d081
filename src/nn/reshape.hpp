// Parameter-free layers that adapt tensor shapes inside a Sequential:
// Reshape keeps the batch dimension and reinterprets the rest (e.g.
// Dense output (B, 6272) -> feature maps (B, 32, 14, 14) in the CNN
// generator), Flatten is the inverse. Data still has to be copied (the
// workspace output is a distinct buffer), but the copy lands in reused
// scratch.
#pragma once

#include "common/workspace.hpp"
#include "nn/layer.hpp"

namespace mdgan::nn {

class Reshape : public Layer {
 public:
  // `inner` is the per-sample shape; batch dim is preserved.
  explicit Reshape(Shape inner) : inner_(std::move(inner)) {}

  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::string name() const override { return "Reshape"; }

 private:
  Shape inner_;
  Shape cached_input_shape_;
  Shape target_;  // {batch} + inner_, rebuilt only when batch changes
  Workspace ws_;
};

class Flatten : public Layer {
 public:
  const Tensor& forward(const Tensor& x, bool train) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::string name() const override { return "Flatten"; }

 private:
  Shape cached_input_shape_;
  Workspace ws_;
};

}  // namespace mdgan::nn
