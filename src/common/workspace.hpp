// Bump arena of reusable Tensors for the training hot path.
//
// Each hot layer owns one Workspace. At the start of its forward pass it
// calls reset() (rewinding the cursor without releasing storage), then
// acquire()s every intermediate it needs — im2col patch matrices, matmul
// outputs, gradient reorder buffers, the returned activation itself.
// Slot order is deterministic (same code path -> same slots), so once
// shapes have stabilized after the first step, every acquire() hands
// back the same storage and a steady-state training step performs zero
// heap allocations (asserted by tests/nn/test_workspace.cpp against the
// counters in common/alloc_tracker.hpp).
//
// Lifetime rule: a Tensor& from acquire() stays valid and untouched
// until the *next* reset() of this workspace — long enough to carry
// forward caches (im2col cols, pre-activations) into the matching
// backward pass, which by construction runs before the layer's next
// forward. Moving a Workspace keeps every slot's address, so a layer
// that parks its workspace (nn::Layer::swap_cache) keeps its cached
// Tensor pointers valid.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace mdgan {

class Workspace {
 public:
  // Returns the next scratch tensor, resized to `shape`. Contents are
  // unspecified (callers overwrite); storage is reused across resets,
  // and a steady-state acquire (same slot order, same shapes) performs
  // no heap allocation — including for the shape vector itself.
  Tensor& acquire(const Shape& shape) {
    Tensor& t = next_slot();
    if (t.shape() != shape) t.resize(shape);
    return t;
  }
  Tensor& acquire(std::initializer_list<std::size_t> dims) {
    Tensor& t = next_slot();
    t.resize(dims);  // short-circuits (allocation-free) when unchanged
    return t;
  }

  // Rewinds the cursor; storage (and slot addresses) are retained.
  void reset() { cursor_ = 0; }

 private:
  Tensor& next_slot() {
    if (cursor_ == slots_.size()) {
      slots_.push_back(std::make_unique<Tensor>());
    }
    return *slots_[cursor_++];
  }

  // unique_ptr keeps Tensor addresses stable while slots_ grows, so
  // layers may hold Tensor* across acquires within one step.
  std::vector<std::unique_ptr<Tensor>> slots_;
  std::size_t cursor_ = 0;
};

}  // namespace mdgan
