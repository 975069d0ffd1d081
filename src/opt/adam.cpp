#include "opt/adam.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace mdgan::opt {

Adam::Adam(std::vector<Tensor*> params, std::vector<Tensor*> grads,
           AdamConfig config)
    : params_(std::move(params)), grads_(std::move(grads)), config_(config) {
  if (params_.size() != grads_.size()) {
    throw std::invalid_argument("Adam: params/grads count mismatch");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (params_[i]->shape() != grads_[i]->shape()) {
      throw std::invalid_argument("Adam: tensor " + std::to_string(i) +
                                  " param/grad shape mismatch");
    }
  }
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Tensor* p : params_) {
    m_.emplace_back(p->shape());
    v_.emplace_back(p->shape());
  }
}

void Adam::step_scaled(float lr_scale) {
  ++t_;
  const float b1 = config_.beta1, b2 = config_.beta2;
  const float bias1 = 1.f - std::pow(b1, static_cast<float>(t_));
  const float bias2 = 1.f - std::pow(b2, static_cast<float>(t_));
  const float lr = config_.lr * lr_scale;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    float* p = params_[i]->data();
    const float* g = grads_[i]->data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const std::size_t n = params_[i]->numel();
    for (std::size_t j = 0; j < n; ++j) {
      m[j] = b1 * m[j] + (1.f - b1) * g[j];
      v[j] = b2 * v[j] + (1.f - b2) * g[j] * g[j];
      const float mhat = m[j] / bias1;
      const float vhat = v[j] / bias2;
      p[j] -= lr * mhat / (std::sqrt(vhat) + config_.eps);
    }
  }
}

void Adam::reset() {
  t_ = 0;
  for (Tensor& m : m_) m.zero();
  for (Tensor& v : v_) v.zero();
}

void Adam::zero_grad() {
  for (Tensor* g : grads_) g->zero();
}

}  // namespace mdgan::opt
