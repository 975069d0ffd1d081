#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>

namespace mdgan::nn {

BatchNorm::BatchNorm(std::size_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_({channels}, 1.f),
      beta_({channels}),
      dgamma_({channels}),
      dbeta_({channels}),
      running_mean_({channels}),
      running_var_({channels}, 1.f),
      mean_({channels}),
      var_({channels}),
      sum_g_({channels}),
      sum_gx_({channels}) {}

void BatchNorm::split_dims(const Shape& s, std::size_t& outer,
                           std::size_t& inner, const char* who) const {
  if (s.size() == 2 && s[1] == channels_) {
    outer = s[0];
    inner = 1;
  } else if (s.size() == 4 && s[1] == channels_) {
    outer = s[0];
    inner = s[2] * s[3];
  } else {
    throw std::invalid_argument(std::string(who) +
                                ": expected (B,C) or (B,C,H,W) with C=" +
                                std::to_string(channels_) + ", got " +
                                shape_to_string(s));
  }
}

const Tensor& BatchNorm::forward(const Tensor& x, bool train) {
  std::size_t outer, inner;
  split_dims(x.shape(), outer, inner, "BatchNorm::forward");
  const std::size_t n_per_ch = outer * inner;
  const float* px = x.data();

  // Batch statistics in training mode, running estimates at inference.
  Tensor& mean = train ? mean_ : running_mean_;
  Tensor& var = train ? var_ : running_var_;
  if (train) {
    for (std::size_t c = 0; c < channels_; ++c) {
      double acc = 0.0;
      for (std::size_t o = 0; o < outer; ++o) {
        const float* p = px + (o * channels_ + c) * inner;
        for (std::size_t i = 0; i < inner; ++i) acc += p[i];
      }
      mean[c] = static_cast<float>(acc / n_per_ch);
    }
    for (std::size_t c = 0; c < channels_; ++c) {
      double acc = 0.0;
      for (std::size_t o = 0; o < outer; ++o) {
        const float* p = px + (o * channels_ + c) * inner;
        for (std::size_t i = 0; i < inner; ++i) {
          const double d = p[i] - mean[c];
          acc += d * d;
        }
      }
      var[c] = static_cast<float>(acc / n_per_ch);
    }
    for (std::size_t c = 0; c < channels_; ++c) {
      running_mean_[c] =
          momentum_ * running_mean_[c] + (1.f - momentum_) * mean[c];
      running_var_[c] =
          momentum_ * running_var_[c] + (1.f - momentum_) * var[c];
    }
  }

  Tensor& inv_std = cache_.inv_std;
  inv_std.resize({channels_});
  for (std::size_t c = 0; c < channels_; ++c) {
    inv_std[c] = 1.f / std::sqrt(var[c] + eps_);
  }

  y_.resize(x.shape());
  cache_.xhat.resize(x.shape());
  float* py = y_.data();
  float* ph = cache_.xhat.data();
  for (std::size_t o = 0; o < outer; ++o) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const float m = mean[c], is = inv_std[c];
      const float g = gamma_[c], bt = beta_[c];
      const std::size_t base = (o * channels_ + c) * inner;
      for (std::size_t i = 0; i < inner; ++i) {
        const float xhat = (px[base + i] - m) * is;
        ph[base + i] = xhat;
        py[base + i] = g * xhat + bt;
      }
    }
  }
  return y_;
}

const Tensor& BatchNorm::do_backward(const Tensor& grad_out, Grads want) {
  const Shape& shape = cache_.xhat.shape();
  if (grad_out.shape() != shape) {
    throw std::invalid_argument("BatchNorm::backward: grad shape mismatch");
  }
  std::size_t outer, inner;
  split_dims(shape, outer, inner, "BatchNorm::backward");
  const std::size_t n_per_ch = outer * inner;
  const float* pg = grad_out.data();
  const float* ph = cache_.xhat.data();

  // Per-channel reductions: sum(g), sum(g*xhat).
  sum_g_.zero();
  sum_gx_.zero();
  for (std::size_t o = 0; o < outer; ++o) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const std::size_t base = (o * channels_ + c) * inner;
      double sg = 0.0, sgx = 0.0;
      for (std::size_t i = 0; i < inner; ++i) {
        sg += pg[base + i];
        sgx += static_cast<double>(pg[base + i]) * ph[base + i];
      }
      sum_g_[c] += static_cast<float>(sg);
      sum_gx_[c] += static_cast<float>(sgx);
    }
  }
  if (wants_params(want)) {
    dbeta_ += sum_g_;
    dgamma_ += sum_gx_;
  }
  if (!wants_input(want)) return no_input_grad();

  // dx = gamma * inv_std / n * (n*g - sum(g) - xhat * sum(g*xhat))
  // (training-mode batch statistics are part of the graph).
  dx_.resize(shape);
  float* pd = dx_.data();
  const float inv_n = 1.f / static_cast<float>(n_per_ch);
  for (std::size_t o = 0; o < outer; ++o) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const float coef = gamma_[c] * cache_.inv_std[c] * inv_n;
      const float sg = sum_g_[c], sgx = sum_gx_[c];
      const std::size_t base = (o * channels_ + c) * inner;
      for (std::size_t i = 0; i < inner; ++i) {
        pd[base + i] = coef * (static_cast<float>(n_per_ch) * pg[base + i] -
                               sg - ph[base + i] * sgx);
      }
    }
  }
  return dx_;
}

}  // namespace mdgan::nn
