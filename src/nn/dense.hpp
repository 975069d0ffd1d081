// Fully connected layer: y = x W + b, x is (B, in), W is (in, out).
// Both passes run out of a per-layer Workspace — zero heap allocations
// once shapes have stabilized — with the bias add fused into the GEMM
// epilogue.
#pragma once

#include "common/workspace.hpp"
#include "nn/layer.hpp"

namespace mdgan::nn {

class Dense : public Layer {
 public:
  // Weights are left zero-initialized; use nn::init helpers (DCGAN, He)
  // right after construction — builders do this so initialization policy
  // lives in one place.
  Dense(std::size_t in_features, std::size_t out_features);

  const Tensor& forward(const Tensor& x, bool train) override;
  void swap_cache(std::size_t slot) override {
    swap_parked(cache_, parked_, slot);
  }
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  std::string name() const override { return "Dense"; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }

 private:
  const Tensor& do_backward(const Tensor& grad_out, Grads want) override;

  struct Cache {
    Workspace ws;
    const Tensor* input = nullptr;  // ws copy, set by forward
  };

  std::size_t in_, out_;
  Tensor w_, b_, dw_, db_;
  Cache cache_;
  std::vector<Cache> parked_;
};

}  // namespace mdgan::nn
