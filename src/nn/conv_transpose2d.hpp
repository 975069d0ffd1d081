// Transposed 2-D convolution (a.k.a. deconvolution), the upsampling layer
// of the paper's generators. Implemented as the exact adjoint of Conv2D:
// forward scatters with col2im, backward gathers with im2col, so the
// (Conv2D, ConvTranspose2D) pair is adjoint by construction — a property
// the gradient-check tests rely on.
//
// Geometry: input (B, IC, H, W) -> output (B, OC, Ho, Wo) with
// Ho = (H-1)*stride - 2*pad + kh, Wo likewise.
#pragma once

#include "common/workspace.hpp"
#include "nn/layer.hpp"

namespace mdgan::nn {

class ConvTranspose2D : public Layer {
 public:
  ConvTranspose2D(std::size_t in_channels, std::size_t out_channels,
                  std::size_t kh, std::size_t kw, std::size_t stride = 1,
                  std::size_t pad = 0);

  const Tensor& forward(const Tensor& x, bool train) override;
  void swap_cache(std::size_t slot) override {
    swap_parked(cache_, parked_, slot);
  }
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  std::string name() const override { return "ConvTranspose2D"; }

  Tensor& weight() { return w_; }

 private:
  const Tensor& do_backward(const Tensor& grad_out, Grads want) override;

  // Forward caches for backward (workspace slots, set by forward).
  struct Cache {
    Workspace ws;
    const Tensor* x_mat = nullptr;  // (B*H*W, IC)
    Shape input_shape;
    std::size_t out_h = 0, out_w = 0;
  };

  std::size_t ic_, oc_, kh_, kw_, stride_, pad_;
  // Stored as (IC, OC*kh*kw): row c_in holds the patch this input channel
  // contributes to the output, matching the underlying-conv orientation.
  Tensor w_, b_, dw_, db_;
  Cache cache_;
  std::vector<Cache> parked_;
};

}  // namespace mdgan::nn
