// Layer interface with explicit forward/backward.
//
// A backward pass produces only the gradients its caller names: the
// gradient with respect to the layer *input*, the parameter gradients,
// or both. MD-GAN's passes each read one of them (Algorithm 1): a
// worker's discriminator step reads only D's parameter gradients
// (lines 6-8), the server's fold only G's. The worker-to-server
// feedback F_n is exactly dJ/dx at the discriminator input (lines
// 9-10, paper §IV-B2), so input gradients are not an implementation
// detail here: the chain through every layer's input gradient is
// load-bearing and is covered by finite-difference tests.
//
// Both passes return a reference to a layer-owned result, reused from
// step to step, so a warmed-up layer allocates nothing. The reference
// is valid until this layer's next forward(). A caller that needs a
// result past that copies it into a Tensor.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace mdgan::nn {

// What a backward pass produces.
enum class Grads : unsigned char {
  kInput = 1,   // dL/d(input); the parameter gradients stay as they were
  kParams = 2,  // accumulates the parameter gradients; no dL/d(input)
  kBoth = 3,
};

inline bool wants_input(Grads g) {
  return (static_cast<unsigned>(g) & static_cast<unsigned>(Grads::kInput)) != 0;
}
inline bool wants_params(Grads g) {
  return (static_cast<unsigned>(g) & static_cast<unsigned>(Grads::kParams)) !=
         0;
}

class Layer {
 public:
  virtual ~Layer() = default;

  // train==true enables training-time behaviour (e.g. batch statistics);
  // inference uses running estimates.
  virtual const Tensor& forward(const Tensor& x, bool train) = 0;

  // grad_out is dL/d(output). With kInput in `want`, returns dL/d(input);
  // otherwise returns an empty tensor. With kParams, *accumulates* into
  // the parameter gradients (callers zero_grad() between steps);
  // without it, the gradient buffers are left untouched. Must be called
  // after a matching forward (layers cache what they need).
  const Tensor& backward(const Tensor& grad_out, Grads want = Grads::kBoth) {
    return do_backward(grad_out, want);
  }

  // Exchanges what the last forward cached for backward with parked
  // slot `slot`. Called after a forward it parks that forward; called
  // again with the same slot it brings it back, so a later backward
  // runs against it. Storage moves, nothing is copied, and a slot
  // allocates only on first use.
  virtual void swap_cache(std::size_t slot) = 0;

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

 protected:
  virtual const Tensor& do_backward(const Tensor& grad_out, Grads want) = 0;

  // What a backward without kInput returns.
  static const Tensor& no_input_grad() {
    static const Tensor empty;
    return empty;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

// swap_cache for a layer whose backward cache is one `Cache` value:
// swaps `live` with parked[slot], growing `parked` on first use.
template <typename Cache>
void swap_parked(Cache& live, std::vector<Cache>& parked, std::size_t slot) {
  if (slot >= parked.size()) parked.resize(slot + 1);
  std::swap(live, parked[slot]);
}

}  // namespace mdgan::nn
