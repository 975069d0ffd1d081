// 2-D convolution over NCHW tensors, implemented as im2col + matmul on
// the blocked GEMM engine. Weights are stored as
// (out_channels, in_channels*kh*kw) so forward and all three backward
// products are plain rank-2 matmuls. Both passes run out of a
// per-layer Workspace (zero steady-state allocations), and forward fuses
// the bias add + (B*P, OC) -> NCHW reorder into the GEMM tile epilogue.
#pragma once

#include "common/workspace.hpp"
#include "nn/layer.hpp"

namespace mdgan::nn {

class Conv2D : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kh,
         std::size_t kw, std::size_t stride = 1, std::size_t pad = 0);

  // x must be (B, in_channels, H, W); returns (B, out_channels, oh, ow).
  const Tensor& forward(const Tensor& x, bool train) override;
  void swap_cache(std::size_t slot) override {
    swap_parked(cache_, parked_, slot);
  }
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  std::string name() const override { return "Conv2D"; }

  Tensor& weight() { return w_; }
  std::size_t out_channels() const { return oc_; }

 private:
  const Tensor& do_backward(const Tensor& grad_out, Grads want) override;

  // Forward caches for backward (workspace slots, set by forward).
  struct Cache {
    Workspace ws;
    const Tensor* cols = nullptr;  // (B*oh*ow, ic*kh*kw)
    Shape input_shape;
    std::size_t oh = 0, ow = 0;
  };

  std::size_t ic_, oc_, kh_, kw_, stride_, pad_;
  Tensor w_, b_, dw_, db_;
  Cache cache_;
  std::vector<Cache> parked_;
};

}  // namespace mdgan::nn
