// Ordered layer container. This is the "model" type of the repo: every
// generator, discriminator and scoring classifier is a Sequential. Also
// provides the flattened parameter view used by discriminator swaps,
// FL-GAN federated averaging, and serialization onto the simulated wire.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace mdgan::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;

  // Move-only (layers own state); copy via clone_parameters_into or the
  // flatten/assign round trip.
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  template <typename L, typename... Args>
  L* emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    append(std::move(layer));
    return raw;
  }
  void append(LayerPtr layer);

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  // Chains the layers' passes; the returned reference lives in the last
  // (resp. first) layer's scratch. Backward asks a layer for its input
  // gradient only while the caller wants dL/dx or a layer below it has
  // parameters: with kParams alone, the lowest layer with parameters
  // skips its input gradient and the layers below it do not run.
  const Tensor& forward(const Tensor& x, bool train) override;
  // Swaps every layer's cache with its parked slot `slot`.
  void swap_cache(std::size_t slot) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  std::string name() const override { return "Sequential"; }

  // --- Flattened parameter view -------------------------------------
  // Order is layer order then per-layer param order; stable across calls
  // on same-architecture models, which is what swap/averaging rely on.
  std::size_t num_parameters();
  std::vector<float> flatten_parameters();
  void assign_parameters(const std::vector<float>& flat);
  std::vector<float> flatten_gradients();
  // Copies this model's parameters into `other` (must be same arch).
  void clone_parameters_into(Sequential& other);

  std::string summary();

 private:
  const Tensor& do_backward(const Tensor& grad_out, Grads want) override;

  std::vector<LayerPtr> layers_;
  // Index of the lowest layer with parameters; SIZE_MAX while none has.
  std::size_t lowest_with_params_ = static_cast<std::size_t>(-1);
};

}  // namespace mdgan::nn
