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

// What Reshape and Flatten keep for backward: the input shape, and the
// workspace the result lands in.
struct ShapeCache {
  Workspace ws;
  Shape input_shape;
};

class Reshape : public Layer {
 public:
  // `inner` is the per-sample shape; batch dim is preserved.
  explicit Reshape(Shape inner) : inner_(std::move(inner)) {}

  const Tensor& forward(const Tensor& x, bool train) override;
  void swap_cache(std::size_t slot) override {
    swap_parked(cache_, parked_, slot);
  }
  std::string name() const override { return "Reshape"; }

 private:
  const Tensor& do_backward(const Tensor& grad_out, Grads want) override;

  Shape inner_;
  Shape target_;  // {batch} + inner_, rebuilt only when batch changes
  ShapeCache cache_;
  std::vector<ShapeCache> parked_;
};

class Flatten : public Layer {
 public:
  const Tensor& forward(const Tensor& x, bool train) override;
  void swap_cache(std::size_t slot) override {
    swap_parked(cache_, parked_, slot);
  }
  std::string name() const override { return "Flatten"; }

 private:
  const Tensor& do_backward(const Tensor& grad_out, Grads want) override;

  ShapeCache cache_;
  std::vector<ShapeCache> parked_;
};

}  // namespace mdgan::nn
