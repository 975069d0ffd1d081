#include "nn/activations.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "helpers/gradient_check.hpp"

namespace mdgan::nn {
namespace {

// A float's bit pattern, so a comparison tells -0 from +0.
std::uint32_t bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

// Number of elements whose bits differ; `first` gets the first of them.
std::size_t count_mismatches(const Tensor& got, const std::vector<float>& want,
                             std::size_t& first) {
  std::size_t mismatches = 0;
  first = want.size();
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (bits(got[i]) != bits(want[i]) && mismatches++ == 0) first = i;
  }
  return mismatches;
}

TEST(Activations, ReLUForward) {
  ReLU relu;
  Tensor x({4}, std::vector<float>{-1, 0, 0.5f, 2});
  Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.f);
  EXPECT_FLOAT_EQ(y[1], 0.f);
  EXPECT_FLOAT_EQ(y[2], 0.5f);
  EXPECT_FLOAT_EQ(y[3], 2.f);
}

TEST(Activations, LeakyReLUForward) {
  LeakyReLU lrelu(0.1f);
  Tensor x({3}, std::vector<float>{-2, 0, 3});
  Tensor y = lrelu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], -0.2f);
  EXPECT_FLOAT_EQ(y[2], 3.f);
}

TEST(Activations, TanhForward) {
  Tanh t;
  Tensor x({2}, std::vector<float>{0.f, 100.f});
  Tensor y = t.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.f);
  EXPECT_NEAR(y[1], 1.f, 1e-6f);
}

TEST(Activations, SigmoidForward) {
  Sigmoid s;
  Tensor x({3}, std::vector<float>{0.f, -100.f, 100.f});
  Tensor y = s.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.5f);
  EXPECT_NEAR(y[1], 0.f, 1e-6f);
  EXPECT_NEAR(y[2], 1.f, 1e-6f);
}

template <typename L>
void check_activation_gradient(L layer, std::uint64_t seed) {
  Rng rng(seed);
  // Offset away from the ReLU kink so finite differences are valid.
  Tensor x = Tensor::randn({4, 6}, rng);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    if (std::abs(x[i]) < 5e-3f) x[i] = 0.1f;
  }
  auto res = testing::check_gradients(layer, x, rng);
  EXPECT_LT(res.max_input_error, 2e-2) << res.worst_location;
}

TEST(Activations, ReLUGradient) { check_activation_gradient(ReLU{}, 31); }
TEST(Activations, LeakyReLUGradient) {
  check_activation_gradient(LeakyReLU{0.2f}, 32);
}
TEST(Activations, TanhGradient) { check_activation_gradient(Tanh{}, 33); }
TEST(Activations, SigmoidGradient) {
  check_activation_gradient(Sigmoid{}, 34);
}

TEST(Activations, ElementwiseLoopsAreExact) {
  // The ReLU-family loops vectorize; they must still compute exactly the
  // one-element expressions below. A lone multiply cannot be contracted,
  // so this reference holds under any build flags. n = 7 runs mostly in
  // the loops' tails, 4,096 and 16,384 are b x 512 at b = 8 and b = 32,
  // and 40,000 is above kParallelGrainElems, so the pooled path runs.
  const float specials[] = {0.f,    -0.f,    3.4e38f, -3.4e38f,
                            1e-40f, -1e-40f, 1e-45f,  -1e-45f};
  for (std::size_t n : {std::size_t{7}, std::size_t{4096},
                        std::size_t{16384}, std::size_t{40000}}) {
    SCOPED_TRACE(n);
    Rng rng(n);
    Tensor x = Tensor::randn({n}, rng);
    Tensor g = Tensor::randn({n}, rng);
    for (std::size_t i = 0, k = 0; i < n; ++i) {
      if (i < 8 || i % 4 == 0) {
        x[i] = specials[k % 8];
        g[i] = specials[(k + 3) % 8];
        ++k;
      }
    }

    std::vector<float> leaky_y(n), leaky_d(n), relu_y(n), relu_d(n);
    for (std::size_t i = 0; i < n; ++i) {
      leaky_y[i] = x[i] > 0.f ? x[i] : 0.2f * x[i];
      leaky_d[i] = leaky_y[i] > 0.f ? g[i] : 0.2f * g[i];
      relu_y[i] = x[i] > 0.f ? x[i] : 0.f;
      relu_d[i] = relu_y[i] > 0.f ? g[i] : 0.f;
    }

    std::size_t first = 0;
    LeakyReLU leaky(0.2f);
    EXPECT_EQ(count_mismatches(leaky.forward(x, true), leaky_y, first), 0u)
        << "LeakyReLU forward, first at " << first;
    EXPECT_EQ(count_mismatches(leaky.backward(g), leaky_d, first), 0u)
        << "LeakyReLU backward, first at " << first;
    ReLU relu;
    EXPECT_EQ(count_mismatches(relu.forward(x, true), relu_y, first), 0u)
        << "ReLU forward, first at " << first;
    EXPECT_EQ(count_mismatches(relu.backward(g), relu_d, first), 0u)
        << "ReLU backward, first at " << first;
  }
}

TEST(Activations, BackwardShapeMismatchThrows) {
  ReLU relu;
  Tensor x({2, 2});
  relu.forward(x, true);
  Tensor bad({4});
  EXPECT_THROW(relu.backward(bad), std::invalid_argument);
}

TEST(Activations, NoParams) {
  ReLU relu;
  EXPECT_TRUE(relu.params().empty());
  EXPECT_TRUE(relu.grads().empty());
  EXPECT_EQ(relu.param_count(), 0u);
}

}  // namespace
}  // namespace mdgan::nn
