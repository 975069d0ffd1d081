// Batch normalization over the channel axis.
// Rank-2 input (B, F): each feature is a channel (statistics over B).
// Rank-4 input (B, C, H, W): statistics over B*H*W per channel, the
// standard DCGAN placement. Running estimates are used at inference.
#pragma once

#include "nn/layer.hpp"

namespace mdgan::nn {

class BatchNorm : public Layer {
 public:
  explicit BatchNorm(std::size_t channels, float momentum = 0.9f,
                     float eps = 1e-5f);

  const Tensor& forward(const Tensor& x, bool train) override;
  void swap_cache(std::size_t slot) override {
    swap_parked(cache_, parked_, slot);
  }
  std::vector<Tensor*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> grads() override { return {&dgamma_, &dbeta_}; }
  std::string name() const override { return "BatchNorm"; }

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  const Tensor& do_backward(const Tensor& grad_out, Grads want) override;

  // What backward reads: the normalized input and 1/sqrt(var + eps),
  // resized in place when the batch shape changes.
  struct Cache {
    Tensor xhat, inv_std;
  };

  // Decomposes shape into (outer=batch, C, inner=spatial) around the
  // channel axis; throws on unsupported ranks.
  void split_dims(const Shape& s, std::size_t& outer, std::size_t& inner,
                  const char* who) const;

  std::size_t channels_;
  float momentum_, eps_;
  Tensor gamma_, beta_, dgamma_, dbeta_;
  Tensor running_mean_, running_var_;
  // Per-channel scratch, sized once: the batch statistics and
  // backward's two reductions.
  Tensor mean_, var_, sum_g_, sum_gx_;
  // The two results, resized in place when the batch shape changes.
  Tensor y_, dx_;
  Cache cache_;
  std::vector<Cache> parked_;
};

}  // namespace mdgan::nn
