// Layer-owned result contract tests: (1) warmed-up Dense/Conv2D
// training steps perform ZERO heap allocations (checked against the
// global allocation counters installed by common/alloc_tracker.cpp),
// (2) reusing layer-owned storage is arithmetically invisible for
// every layer type — training one warm layer produces bit-identical
// outputs, input gradients and weights to a reference that builds a
// fresh layer (cold storage) every step — and (3) a parked forward
// cache (Layer::swap_cache) backpropagates exactly like a fresh
// forward, and a steady-state park and restore allocates nothing.
//
// The Dense step also runs at a shape above the GEMM engine's parallel
// grain, so on a multi-core host its products fan out to the thread
// pool: dispatch must allocate nothing either.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "nn/dense.hpp"
#include "nn/minibatch_discrimination.hpp"
#include "nn/reshape.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor_ops.hpp"

namespace mdgan::nn {
namespace {

TEST(Workspace, DenseSteadyStateIsAllocationFree) {
  struct DenseCase {
    std::size_t in, out, batch;
  };
  // 64->32 at batch 8 stays serial; 512->512 at batch 64 fans out.
  for (const DenseCase c : {DenseCase{64, 32, 8}, DenseCase{512, 512, 64}}) {
    SCOPED_TRACE("Dense " + std::to_string(c.in) + "->" +
                 std::to_string(c.out) + " at batch " +
                 std::to_string(c.batch));
    Rng rng(1);
    Dense layer(c.in, c.out);
    rng.fill_normal(layer.weight().data(), layer.weight().numel(), 0.f,
                    0.1f);
    Tensor x = Tensor::randn({c.batch, c.in}, rng);
    Tensor gy = Tensor::randn({c.batch, c.out}, rng);

    // Grad pointers fetched once, as the optimizers do (Layer::grads()
    // builds a fresh vector per call).
    auto grads = layer.grads();
    auto step = [&] {
      const Tensor& y = layer.forward(x, true);
      (void)y;
      const Tensor& dx = layer.backward(gy);
      (void)dx;
      for (Tensor* g : grads) g->zero();
    };
    for (int i = 0; i < 3; ++i) step();  // warm the arena + gemm scratch

    const AllocStats before = alloc_stats();
    for (int i = 0; i < 10; ++i) step();
    const AllocStats delta = alloc_stats() - before;
    EXPECT_EQ(delta.count, 0u) << "bytes=" << delta.bytes;
    EXPECT_EQ(delta.bytes, 0u);
  }
}

TEST(Workspace, Conv2DSteadyStateIsAllocationFree) {
  Rng rng(2);
  Conv2D layer(2, 4, 3, 3, 1, 1);
  rng.fill_normal(layer.weight().data(), layer.weight().numel(), 0.f, 0.1f);
  Tensor x = Tensor::randn({2, 2, 8, 8}, rng);
  Tensor gy = Tensor::randn({2, 4, 8, 8}, rng);

  auto grads = layer.grads();
  auto step = [&] {
    const Tensor& y = layer.forward(x, true);
    (void)y;
    const Tensor& dx = layer.backward(gy);
    (void)dx;
    for (Tensor* g : grads) g->zero();
  };
  for (int i = 0; i < 3; ++i) step();

  const AllocStats before = alloc_stats();
  for (int i = 0; i < 10; ++i) step();
  const AllocStats delta = alloc_stats() - before;
  EXPECT_EQ(delta.count, 0u) << "bytes=" << delta.bytes;
  EXPECT_EQ(delta.bytes, 0u);
}

// Copies index-aligned parameter/gradient tensors between layers.
void assign_params(Layer& dst, const std::vector<std::vector<float>>& src) {
  auto ps = dst.params();
  for (std::size_t i = 0; i < ps.size(); ++i) {
    std::copy(src[i].begin(), src[i].end(), ps[i]->data());
  }
}

std::vector<std::vector<float>> read_tensors(std::vector<Tensor*> ts) {
  std::vector<std::vector<float>> out;
  for (Tensor* t : ts) out.push_back(t->vec());
  return out;
}

// Reference "per-step allocation" trainer: a brand-new layer object per
// step (cold storage, every buffer freshly allocated), weights threaded
// through by copy. Must be bit-identical to reusing one warm layer: a
// result or reduction buffer that reuse fails to overwrite or re-zero
// shows up in the outputs, the input gradients or the weights.
template <typename MakeLayer>
void check_reuse_determinism(MakeLayer make_layer, const Shape& x_shape,
                             const Shape& gy_shape, std::uint64_t seed) {
  const int kEpochs = 2, kStepsPerEpoch = 5;
  const float lr = 0.05f;

  Rng init_rng(seed);
  auto proto = make_layer();
  for (Tensor* p : proto->params()) {
    init_rng.fill_normal(p->data(), p->numel(), 0.f, 0.1f);
  }
  auto warm_weights = read_tensors(proto->params());
  auto cold_weights = warm_weights;

  auto& warm = *proto;  // one instance, storage reused across all steps
  Rng data_warm(seed + 1), data_cold(seed + 1);
  std::vector<float> warm_results, cold_results;

  auto run_step = [&](Layer& layer, Rng& rng,
                      std::vector<std::vector<float>>& weights,
                      std::vector<float>& results) {
    Tensor x = Tensor::randn(x_shape, rng);
    Tensor gy = Tensor::randn(gy_shape, rng);
    assign_params(layer, weights);
    layer.zero_grad();
    const Tensor& y = layer.forward(x, true);
    results.insert(results.end(), y.vec().begin(), y.vec().end());
    const Tensor& dx = layer.backward(gy);
    results.insert(results.end(), dx.vec().begin(), dx.vec().end());
    auto gs = layer.grads();
    for (std::size_t i = 0; i < gs.size(); ++i) {
      const float* g = gs[i]->data();
      for (std::size_t e = 0; e < weights[i].size(); ++e) {
        weights[i][e] -= lr * g[e];
      }
    }
  };

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    for (int s = 0; s < kStepsPerEpoch; ++s) {
      run_step(warm, data_warm, warm_weights, warm_results);
      auto fresh = make_layer();  // cold storage every step
      run_step(*fresh, data_cold, cold_weights, cold_results);
    }
  }

  ASSERT_EQ(warm_results.size(), cold_results.size());
  EXPECT_EQ(0, std::memcmp(warm_results.data(), cold_results.data(),
                           warm_results.size() * sizeof(float)))
      << "outputs or input gradients diverged between warm and cold storage";
  ASSERT_EQ(warm_weights.size(), cold_weights.size());
  for (std::size_t i = 0; i < warm_weights.size(); ++i) {
    ASSERT_EQ(warm_weights[i].size(), cold_weights[i].size());
    EXPECT_EQ(0, std::memcmp(warm_weights[i].data(), cold_weights[i].data(),
                             warm_weights[i].size() * sizeof(float)))
        << "param " << i << " diverged between warm and cold storage";
  }
}

TEST(Workspace, DenseReuseIsBitIdenticalToPerStepAllocation) {
  check_reuse_determinism(
      [] { return std::make_unique<Dense>(48, 24); }, Shape{6, 48},
      Shape{6, 24}, 42);
}

TEST(Workspace, Conv2DReuseIsBitIdenticalToPerStepAllocation) {
  check_reuse_determinism(
      [] { return std::make_unique<Conv2D>(3, 5, 3, 3, 2, 1); },
      Shape{2, 3, 9, 9}, Shape{2, 5, 5, 5}, 43);
}

TEST(Workspace, BatchNormReuseIsBitIdenticalToPerStepAllocation) {
  {
    SCOPED_TRACE("rank 2");
    check_reuse_determinism([] { return std::make_unique<BatchNorm>(7); },
                            Shape{6, 7}, Shape{6, 7}, 44);
  }
  {
    SCOPED_TRACE("rank 4");
    check_reuse_determinism([] { return std::make_unique<BatchNorm>(3); },
                            Shape{2, 3, 5, 4}, Shape{2, 3, 5, 4}, 45);
  }
}

TEST(Workspace, ConvTranspose2DReuseIsBitIdenticalToPerStepAllocation) {
  check_reuse_determinism(
      [] { return std::make_unique<ConvTranspose2D>(4, 3, 4, 4, 2, 1); },
      Shape{2, 4, 5, 5}, Shape{2, 3, 10, 10}, 46);
}

TEST(Workspace, MinibatchDiscriminationReuseIsBitIdenticalToPerStepAllocation) {
  check_reuse_determinism(
      [] { return std::make_unique<MinibatchDiscrimination>(10, 4, 3); },
      Shape{5, 10}, Shape{5, 14}, 47);
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Forward batch A and park it, forward batch B and park it, restore A
// and run backward: the output, the input gradient and the parameter
// gradients equal a fresh layer's forward(A) plus backward, bit for bit.
template <typename MakeLayer>
void check_parked_backward(MakeLayer make_layer, const Shape& x_shape,
                           std::uint64_t seed) {
  Rng rng(seed);
  auto layer = make_layer();
  for (Tensor* p : layer->params()) {
    rng.fill_normal(p->data(), p->numel(), 0.f, 0.3f);
  }
  const auto params = read_tensors(layer->params());
  const Tensor xa = Tensor::randn(x_shape, rng);
  const Tensor xb = Tensor::randn(x_shape, rng);

  auto fresh = make_layer();
  assign_params(*fresh, params);
  fresh->zero_grad();
  const Tensor want_y = fresh->forward(xa, true);
  const Tensor gy = Tensor::randn(want_y.shape(), rng);
  const Tensor want_dx = fresh->backward(gy);
  const auto want_grads = read_tensors(fresh->grads());

  layer->zero_grad();
  const Tensor y = layer->forward(xa, true);
  layer->swap_cache(0);
  layer->forward(xb, true);
  layer->swap_cache(1);
  layer->swap_cache(0);
  const Tensor& dx = layer->backward(gy);

  EXPECT_TRUE(same_bits(y.vec(), want_y.vec())) << "output";
  EXPECT_EQ(dx.shape(), want_dx.shape());
  EXPECT_TRUE(same_bits(dx.vec(), want_dx.vec())) << "input gradient";
  const auto grads = read_tensors(layer->grads());
  ASSERT_EQ(grads.size(), want_grads.size());
  for (std::size_t i = 0; i < grads.size(); ++i) {
    EXPECT_TRUE(same_bits(grads[i], want_grads[i])) << "gradient " << i;
  }
}

TEST(Workspace, ParkedCacheBackpropagatesLikeAFreshForward) {
  {
    SCOPED_TRACE("Dense");
    check_parked_backward([] { return std::make_unique<Dense>(12, 7); },
                          Shape{4, 12}, 50);
  }
  {
    SCOPED_TRACE("ReLU");
    check_parked_backward([] { return std::make_unique<ReLU>(); },
                          Shape{4, 9}, 51);
  }
  {
    SCOPED_TRACE("LeakyReLU");
    check_parked_backward([] { return std::make_unique<LeakyReLU>(0.2f); },
                          Shape{4, 9}, 52);
  }
  {
    SCOPED_TRACE("Tanh");
    check_parked_backward([] { return std::make_unique<Tanh>(); },
                          Shape{4, 9}, 53);
  }
  {
    SCOPED_TRACE("Sigmoid");
    check_parked_backward([] { return std::make_unique<Sigmoid>(); },
                          Shape{4, 9}, 54);
  }
  {
    SCOPED_TRACE("Reshape");
    check_parked_backward(
        [] { return std::make_unique<Reshape>(Shape{2, 3, 4}); },
        Shape{3, 24}, 55);
  }
  {
    SCOPED_TRACE("Flatten");
    check_parked_backward([] { return std::make_unique<Flatten>(); },
                          Shape{3, 2, 3, 4}, 56);
  }
  {
    SCOPED_TRACE("ConvTranspose2D");
    check_parked_backward(
        [] { return std::make_unique<ConvTranspose2D>(3, 2, 4, 4, 2, 1); },
        Shape{2, 3, 5, 5}, 57);
  }
  {
    SCOPED_TRACE("BatchNorm rank 2");
    check_parked_backward([] { return std::make_unique<BatchNorm>(5); },
                          Shape{6, 5}, 58);
  }
  {
    SCOPED_TRACE("BatchNorm rank 4");
    check_parked_backward([] { return std::make_unique<BatchNorm>(3); },
                          Shape{2, 3, 4, 4}, 59);
  }
  {
    SCOPED_TRACE("Conv2D");
    check_parked_backward(
        [] { return std::make_unique<Conv2D>(2, 3, 3, 3, 2, 1); },
        Shape{2, 2, 7, 7}, 60);
  }
  {
    SCOPED_TRACE("MinibatchDiscrimination");
    check_parked_backward(
        [] { return std::make_unique<MinibatchDiscrimination>(6, 3, 2); },
        Shape{5, 6}, 61);
  }
}

// The sync fold's cycle on a generator made of every generator layer
// type: two batches forwarded and parked, then each restored and
// backpropagated for its parameter gradients. Once every parked set has
// seen a forward and a backward, a cycle allocates nothing.
TEST(Workspace, SteadyStateParkAndRestoreIsAllocationFree) {
  Rng rng(62);
  Sequential g;
  g.emplace<Dense>(16, 4 * 4 * 4);
  g.emplace<ReLU>();
  g.emplace<Reshape>(Shape{4, 4, 4});
  g.emplace<BatchNorm>(4);
  g.emplace<ConvTranspose2D>(4, 3, 4, 4, 2, 1);  // 4 -> 8
  g.emplace<LeakyReLU>(0.2f);
  g.emplace<Flatten>();
  g.emplace<Dense>(3 * 8 * 8, 10);
  g.emplace<BatchNorm>(10);
  g.emplace<Tanh>();
  for (Tensor* p : g.params()) {
    rng.fill_normal(p->data(), p->numel(), 0.f, 0.2f);
  }
  const Tensor z0 = Tensor::randn({8, 16}, rng);
  const Tensor z1 = Tensor::randn({8, 16}, rng);
  const Tensor gy = Tensor::randn({8, 10}, rng);

  auto grads = g.grads();
  auto cycle = [&] {
    g.forward(z0, true);
    g.swap_cache(0);
    g.forward(z1, true);
    g.swap_cache(1);
    for (std::size_t j = 0; j < 2; ++j) {
      g.swap_cache(j);
      g.backward(gy, Grads::kParams);
    }
    for (Tensor* t : grads) t->zero();
  };
  for (int i = 0; i < 3; ++i) cycle();  // every parked set warmed

  const AllocStats before = alloc_stats();
  for (int i = 0; i < 10; ++i) cycle();
  const AllocStats delta = alloc_stats() - before;
  EXPECT_EQ(delta.count, 0u) << "bytes=" << delta.bytes;
  EXPECT_EQ(delta.bytes, 0u);
}

}  // namespace
}  // namespace mdgan::nn
