#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace mdgan::nn {
namespace {

void check_backward_shape(const Tensor* cached, const Tensor& grad,
                          const char* who) {
  if (!cached) {
    throw std::logic_error(std::string(who) + "::backward: no forward");
  }
  if (cached->shape() != grad.shape()) {
    throw std::invalid_argument(std::string(who) +
                                "::backward: grad shape mismatch");
  }
}

}  // namespace

const Tensor& ReLU::forward(const Tensor& x, bool /*train*/) {
  cache_.ws.reset();
  Tensor& y = cache_.ws.acquire(x.shape());
  const float* __restrict p = x.data();
  float* __restrict py = y.data();
  parallel_for(x.numel(), kParallelGrainElems, [&](std::size_t e0, std::size_t e1) {
    for (std::size_t i = e0; i < e1; ++i) py[i] = p[i] > 0.f ? p[i] : 0.f;
  });
  cache_.output = &y;
  return y;
}

const Tensor& ReLU::do_backward(const Tensor& grad_out, Grads want) {
  check_backward_shape(cache_.output, grad_out, "ReLU");
  if (!wants_input(want)) return no_input_grad();
  // y > 0 iff x > 0, so the output is its own mask.
  Tensor& g = cache_.ws.acquire(grad_out.shape());
  const float* __restrict py = cache_.output->data();
  const float* __restrict pg = grad_out.data();
  float* __restrict pd = g.data();
  // pg[i] is loaded unconditionally so the select can vectorize.
  parallel_for(g.numel(), kParallelGrainElems,
               [py, pg, pd](std::size_t e0, std::size_t e1) {
                 for (std::size_t i = e0; i < e1; ++i) {
                   const float gi = pg[i];
                   pd[i] = py[i] > 0.f ? gi : 0.f;
                 }
               });
  return g;
}

LeakyReLU::LeakyReLU(float alpha) : alpha_(alpha) {
  if (alpha < 0.f) {
    throw std::invalid_argument("LeakyReLU: alpha must be >= 0");
  }
}

const Tensor& LeakyReLU::forward(const Tensor& x, bool /*train*/) {
  cache_.ws.reset();
  Tensor& y = cache_.ws.acquire(x.shape());
  const float* __restrict p = x.data();
  float* __restrict py = y.data();
  // The slope is read into a local before the loop: read through a
  // reference, or through the closure when a pool thread runs the
  // chunk, it could alias the store to py[i], and the loop would stay
  // scalar.
  parallel_for(x.numel(), kParallelGrainElems,
               [p, py, alpha = alpha_](std::size_t e0, std::size_t e1) {
                 const float a = alpha;
                 for (std::size_t i = e0; i < e1; ++i) {
                   py[i] = p[i] > 0.f ? p[i] : a * p[i];
                 }
               });
  cache_.output = &y;
  return y;
}

const Tensor& LeakyReLU::do_backward(const Tensor& grad_out, Grads want) {
  check_backward_shape(cache_.output, grad_out, "LeakyReLU");
  if (!wants_input(want)) return no_input_grad();
  // alpha >= 0 keeps sign(y) == sign(x), so the output is its own mask
  // (x <= 0 gives y = alpha*x <= 0 either way).
  Tensor& g = cache_.ws.acquire(grad_out.shape());
  const float* __restrict py = cache_.output->data();
  const float* __restrict pg = grad_out.data();
  float* __restrict pd = g.data();
  parallel_for(g.numel(), kParallelGrainElems,
               [py, pg, pd, alpha = alpha_](std::size_t e0, std::size_t e1) {
                 const float a = alpha;  // see forward
                 for (std::size_t i = e0; i < e1; ++i) {
                   pd[i] = py[i] > 0.f ? pg[i] : a * pg[i];
                 }
               });
  return g;
}

const Tensor& Tanh::forward(const Tensor& x, bool /*train*/) {
  cache_.ws.reset();
  Tensor& y = cache_.ws.acquire(x.shape());
  const float* __restrict p = x.data();
  float* __restrict py = y.data();
  // tanh is expensive; weigh it into the grain like softmax does.
  parallel_for(x.numel(), kParallelGrainElems / 16,
               [&](std::size_t e0, std::size_t e1) {
                 for (std::size_t i = e0; i < e1; ++i) {
                   py[i] = std::tanh(p[i]);
                 }
               });
  cache_.output = &y;
  return y;
}

const Tensor& Tanh::do_backward(const Tensor& grad_out, Grads want) {
  check_backward_shape(cache_.output, grad_out, "Tanh");
  if (!wants_input(want)) return no_input_grad();
  Tensor& g = cache_.ws.acquire(grad_out.shape());
  const float* __restrict py = cache_.output->data();
  const float* __restrict pg = grad_out.data();
  float* __restrict pd = g.data();
  parallel_for(g.numel(), kParallelGrainElems, [&](std::size_t e0, std::size_t e1) {
    for (std::size_t i = e0; i < e1; ++i) {
      const float t = py[i];
      pd[i] = pg[i] * (1.f - t * t);
    }
  });
  return g;
}

const Tensor& Sigmoid::forward(const Tensor& x, bool /*train*/) {
  cache_.ws.reset();
  Tensor& y = cache_.ws.acquire(x.shape());
  const float* __restrict p = x.data();
  float* __restrict py = y.data();
  parallel_for(x.numel(), kParallelGrainElems / 16,
               [&](std::size_t e0, std::size_t e1) {
                 for (std::size_t i = e0; i < e1; ++i) {
                   py[i] = 1.f / (1.f + std::exp(-p[i]));
                 }
               });
  cache_.output = &y;
  return y;
}

const Tensor& Sigmoid::do_backward(const Tensor& grad_out, Grads want) {
  check_backward_shape(cache_.output, grad_out, "Sigmoid");
  if (!wants_input(want)) return no_input_grad();
  Tensor& g = cache_.ws.acquire(grad_out.shape());
  const float* __restrict py = cache_.output->data();
  const float* __restrict pg = grad_out.data();
  float* __restrict pd = g.data();
  parallel_for(g.numel(), kParallelGrainElems, [&](std::size_t e0, std::size_t e1) {
    for (std::size_t i = e0; i < e1; ++i) {
      const float s = py[i];
      pd[i] = pg[i] * s * (1.f - s);
    }
  });
  return g;
}

}  // namespace mdgan::nn
