// Layer interface with explicit forward/backward.
//
// backward() must produce the gradient with respect to the layer *input*
// in addition to accumulating parameter gradients. Input gradients are
// not an implementation detail here: MD-GAN's worker-to-server feedback
// F_n is exactly dJ/dx at the discriminator input (paper §IV-B2), so the
// chain through every layer's input gradient is load-bearing and is
// covered by finite-difference tests.
//
// Both passes return a reference to a layer-owned result, reused from
// step to step, so a warmed-up layer allocates nothing. The reference
// is valid until this layer's next forward(). A caller that needs a
// result past that copies it into a Tensor.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace mdgan::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  // train==true enables training-time behaviour (e.g. batch statistics);
  // inference uses running estimates.
  virtual const Tensor& forward(const Tensor& x, bool train) = 0;

  // grad_out is dL/d(output); returns dL/d(input) and *accumulates* into
  // parameter gradients (callers zero_grad() between steps). Must be
  // called after a matching forward (layers cache what they need).
  virtual const Tensor& backward(const Tensor& grad_out) = 0;

  // Trainable parameters and their gradient buffers, index-aligned.
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  virtual std::string name() const = 0;

  void zero_grad() {
    for (Tensor* g : grads()) g->zero();
  }

  std::size_t param_count() {
    std::size_t n = 0;
    for (Tensor* p : params()) n += p->numel();
    return n;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace mdgan::nn
