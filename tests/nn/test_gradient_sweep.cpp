// Parameterized gradient sweeps: every trainable layer type checked by
// central differences across a grid of geometries (batch sizes, channel
// counts, strides, paddings). This is the property-style blanket over
// the backprop engine — the MD-GAN feedback F_n is only as correct as
// the input gradients of every layer in the discriminator stack. The
// same grid checks that each backward mode (input only, parameters
// only) reproduces its part of the full pass bit for bit.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "helpers/gradient_check.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/minibatch_discrimination.hpp"

namespace mdgan::nn {
namespace {

struct SweepCase {
  std::string name;
  // Builds the layer and the input tensor for the check.
  nn::LayerPtr (*make_layer)(Rng&);
  Shape input_shape;
  double tol;
};

// Factories -------------------------------------------------------------

template <std::size_t In, std::size_t Out>
LayerPtr make_dense(Rng& rng) {
  auto l = std::make_unique<Dense>(In, Out);
  he_normal(l->weight(), In, rng);
  rng.fill_normal(l->bias().data(), Out, 0.f, 0.1f);
  return l;
}

template <std::size_t Ic, std::size_t Oc, std::size_t K, std::size_t S,
          std::size_t P>
LayerPtr make_conv(Rng& rng) {
  auto l = std::make_unique<Conv2D>(Ic, Oc, K, K, S, P);
  he_normal(l->weight(), Ic * K * K, rng);
  return l;
}

template <std::size_t Ic, std::size_t Oc, std::size_t K, std::size_t S,
          std::size_t P>
LayerPtr make_convt(Rng& rng) {
  auto l = std::make_unique<ConvTranspose2D>(Ic, Oc, K, K, S, P);
  he_normal(l->weight(), Ic, rng);
  return l;
}

template <std::size_t C>
LayerPtr make_bn(Rng&) {
  return std::make_unique<BatchNorm>(C);
}

template <std::size_t In, std::size_t B, std::size_t C>
LayerPtr make_mbd(Rng& rng) {
  auto l = std::make_unique<MinibatchDiscrimination>(In, B, C);
  normal_init(l->kernel(), 0.3f, rng);
  return l;
}

LayerPtr make_leaky(Rng&) { return std::make_unique<LeakyReLU>(0.2f); }
LayerPtr make_tanh(Rng&) { return std::make_unique<Tanh>(); }
LayerPtr make_sigmoid(Rng&) { return std::make_unique<Sigmoid>(); }

class GradientSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(GradientSweep, InputAndParamGradientsMatchFiniteDifference) {
  const auto& c = GetParam();
  Rng rng(0xabcd ^ std::hash<std::string>{}(c.name));
  auto layer = c.make_layer(rng);
  Tensor x = Tensor::randn(c.input_shape, rng);
  // Keep away from kinks (ReLU-family, |.|_1 in minibatch-disc).
  for (std::size_t i = 0; i < x.numel(); ++i) {
    if (std::abs(x[i]) < 5e-3f) x[i] = 0.1f;
  }
  auto res = testing::check_gradients(*layer, x, rng);
  EXPECT_LT(res.max_input_error, c.tol)
      << c.name << " at " << res.worst_location;
  EXPECT_LT(res.max_param_error, c.tol)
      << c.name << " at " << res.worst_location;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<std::vector<float>> grads_of(Layer& layer) {
  std::vector<std::vector<float>> out;
  for (Tensor* g : layer.grads()) out.push_back(g->vec());
  return out;
}

bool same_bits(const std::vector<std::vector<float>>& a,
               const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

// Each backward mode produces exactly its part of the full pass: the
// input-only dX is the full dX and leaves the gradient buffers as they
// were; the parameter-only gradients are the full pass's, with no dX.
TEST_P(GradientSweep, EachBackwardModeMatchesTheFullPassBitForBit) {
  const auto& c = GetParam();
  Rng rng(0x40de ^ std::hash<std::string>{}(c.name));
  auto layer = c.make_layer(rng);
  const Tensor x = Tensor::randn(c.input_shape, rng);
  const Tensor upstream =
      Tensor::randn(layer->forward(x, /*train=*/true).shape(), rng);

  layer->zero_grad();
  layer->forward(x, /*train=*/true);
  const Tensor full_dx = layer->backward(upstream);
  const auto full_grads = grads_of(*layer);

  for (Tensor* g : layer->grads()) {
    rng.fill_normal(g->data(), g->numel(), 0.f, 1.f);
  }
  const auto prefilled = grads_of(*layer);
  layer->forward(x, /*train=*/true);
  const Tensor& dx = layer->backward(upstream, Grads::kInput);
  EXPECT_EQ(dx.shape(), full_dx.shape());
  EXPECT_TRUE(same_bits(dx.vec(), full_dx.vec())) << "input-only dX";
  EXPECT_TRUE(same_bits(grads_of(*layer), prefilled))
      << "input-only pass touched the gradient buffers";

  layer->zero_grad();
  layer->forward(x, /*train=*/true);
  EXPECT_TRUE(layer->backward(upstream, Grads::kParams).empty());
  EXPECT_TRUE(same_bits(grads_of(*layer), full_grads))
      << "parameter-only gradients";
}

INSTANTIATE_TEST_SUITE_P(
    AllLayers, GradientSweep,
    ::testing::Values(
        SweepCase{"dense_1x1", &make_dense<1, 1>, {2, 1}, 2e-2},
        SweepCase{"dense_wide", &make_dense<3, 9>, {4, 3}, 2e-2},
        SweepCase{"dense_narrow", &make_dense<9, 2>, {2, 9}, 2e-2},
        SweepCase{"dense_single_sample", &make_dense<5, 4>, {1, 5}, 2e-2},
        SweepCase{"conv_s1_p0", &make_conv<1, 2, 3, 1, 0>,
                  {2, 1, 5, 5}, 2e-2},
        SweepCase{"conv_s1_p1", &make_conv<2, 2, 3, 1, 1>,
                  {1, 2, 4, 4}, 2e-2},
        SweepCase{"conv_s2_p1", &make_conv<2, 3, 3, 2, 1>,
                  {2, 2, 6, 6}, 2e-2},
        SweepCase{"conv_k1", &make_conv<3, 2, 1, 1, 0>,
                  {1, 3, 4, 4}, 2e-2},
        SweepCase{"conv_k5_s2_p2", &make_conv<1, 2, 5, 2, 2>,
                  {1, 1, 7, 7}, 2e-2},
        SweepCase{"convt_s1_p0", &make_convt<2, 1, 3, 1, 0>,
                  {1, 2, 4, 4}, 2e-2},
        SweepCase{"convt_s2_p1", &make_convt<2, 2, 4, 2, 1>,
                  {1, 2, 3, 3}, 2e-2},
        SweepCase{"convt_s1_p1", &make_convt<3, 2, 3, 1, 1>,
                  {2, 3, 4, 4}, 2e-2},
        SweepCase{"bn_rank2", &make_bn<3>, {6, 3}, 3e-2},
        SweepCase{"bn_rank4", &make_bn<2>, {3, 2, 3, 3}, 3e-2},
        SweepCase{"mbd_small", &make_mbd<4, 2, 3>, {3, 4}, 3e-2},
        SweepCase{"mbd_wider", &make_mbd<6, 3, 2>, {5, 6}, 3e-2},
        SweepCase{"leaky_relu", &make_leaky, {4, 8}, 2e-2},
        SweepCase{"tanh", &make_tanh, {4, 8}, 2e-2},
        SweepCase{"sigmoid", &make_sigmoid, {4, 8}, 2e-2}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace mdgan::nn
