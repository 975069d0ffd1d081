#include "nn/reshape.hpp"

#include <algorithm>
#include <stdexcept>

namespace mdgan::nn {

const Tensor& Reshape::forward(const Tensor& x, bool /*train*/) {
  if (x.rank() < 1) throw std::invalid_argument("Reshape: rank >= 1 needed");
  cache_.ws.reset();
  cache_.input_shape = x.shape();
  if (target_.empty() || target_[0] != x.dim(0)) {
    target_.assign(1, x.dim(0));
    target_.insert(target_.end(), inner_.begin(), inner_.end());
  }
  if (shape_numel(target_) != x.numel()) {
    throw std::invalid_argument("Reshape: numel mismatch " +
                                shape_to_string(x.shape()) + " -> " +
                                shape_to_string(target_));
  }
  Tensor& y = cache_.ws.acquire(target_);
  std::copy_n(x.data(), x.numel(), y.data());
  return y;
}

const Tensor& Reshape::do_backward(const Tensor& grad_out, Grads want) {
  if (grad_out.numel() != shape_numel(cache_.input_shape)) {
    throw std::invalid_argument("Reshape::backward: numel mismatch");
  }
  if (!wants_input(want)) return no_input_grad();
  Tensor& g = cache_.ws.acquire(cache_.input_shape);
  std::copy_n(grad_out.data(), grad_out.numel(), g.data());
  return g;
}

const Tensor& Flatten::forward(const Tensor& x, bool /*train*/) {
  if (x.rank() < 2) throw std::invalid_argument("Flatten: rank >= 2 needed");
  cache_.ws.reset();
  cache_.input_shape = x.shape();
  Tensor& y = cache_.ws.acquire({x.dim(0), x.numel() / x.dim(0)});
  std::copy_n(x.data(), x.numel(), y.data());
  return y;
}

const Tensor& Flatten::do_backward(const Tensor& grad_out, Grads want) {
  if (grad_out.numel() != shape_numel(cache_.input_shape)) {
    throw std::invalid_argument("Flatten::backward: numel mismatch");
  }
  if (!wants_input(want)) return no_input_grad();
  Tensor& g = cache_.ws.acquire(cache_.input_shape);
  std::copy_n(grad_out.data(), grad_out.numel(), g.data());
  return g;
}

}  // namespace mdgan::nn
