#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "opt/adam.hpp"

namespace mdgan::opt {
namespace {

// A float's bit pattern, so a comparison tells -0 from +0.
std::uint32_t bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

TEST(Adam, FirstStepMatchesHandComputation) {
  // With bias correction, the first Adam step is -lr * g/(|g| + eps)
  // = -lr * sign(g) for scalar g.
  Tensor p({2}, std::vector<float>{1.f, -1.f});
  Tensor g({2}, std::vector<float>{0.3f, -0.7f});
  AdamConfig cfg{0.01f, 0.9f, 0.999f, 1e-8f};
  Adam adam({&p}, {&g}, cfg);
  adam.step();
  EXPECT_NEAR(p[0], 1.f - 0.01f, 1e-5f);
  EXPECT_NEAR(p[1], -1.f + 0.01f, 1e-5f);
}

TEST(Adam, SecondStepMatchesReference) {
  // Reference values computed from the Adam update equations.
  Tensor p({1}, std::vector<float>{0.f});
  Tensor g({1}, std::vector<float>{1.f});
  AdamConfig cfg{0.1f, 0.9f, 0.999f, 1e-8f};
  Adam adam({&p}, {&g}, cfg);
  adam.step();
  // t=1: m=0.1, v=0.001, mhat=1, vhat=1 -> p -= 0.1 * 1/(1+eps).
  EXPECT_NEAR(p[0], -0.1f, 1e-6f);
  adam.step();
  // t=2: m=0.19, v=0.001999; mhat=0.19/0.19=1,
  // vhat=0.001999/0.001999=1 -> another -0.1.
  EXPECT_NEAR(p[0], -0.2f, 1e-5f);
}

TEST(Adam, RespectsBetaConfig) {
  // beta1=0 turns Adam into (bias-corrected) RMSProp-like updates:
  // m = g exactly.
  Tensor p({1}, std::vector<float>{0.f});
  Tensor g({1}, std::vector<float>{2.f});
  Adam adam({&p}, {&g}, {1.f, 0.0f, 0.9f, 1e-8f});
  adam.step();
  // m=2, v=0.4; mhat=2, vhat=4 -> step = -1 * 2/2 = -1.
  EXPECT_NEAR(p[0], -1.f, 1e-5f);
}

TEST(Adam, ResetClearsMomentsAndTime) {
  // Swap adoption resets the adopted discriminator's optimizer, so the
  // step after reset() must be exactly a fresh optimizer's first step:
  // moments left over from before would change it.
  Tensor p({3}, std::vector<float>{0.f, 1.f, -2.f});
  Tensor g({3}, std::vector<float>{1.f, -0.5f, 0.25f});
  Adam adam({&p}, {&g});
  adam.step();
  adam.step();
  EXPECT_EQ(adam.step_count(), 2);
  adam.reset();
  EXPECT_EQ(adam.step_count(), 0);

  Tensor fresh_p = p;
  Adam fresh({&fresh_p}, {&g});
  adam.step();
  fresh.step();
  EXPECT_EQ(adam.step_count(), 1);
  for (std::size_t i = 0; i < p.numel(); ++i) {
    EXPECT_EQ(bits(p[i]), bits(fresh_p[i])) << "element " << i;
  }
}

TEST(Adam, VectorBodyMatchesScalarPath) {
  // One 4,099-element tensor runs the update loop's vector body and its
  // tail; 4,099 one-element tensors never enter the vector body. Both
  // must land on the same bits. The comparison is between the library's
  // two paths, not against a reference written here, so it holds
  // whatever multiply-add contraction the library is built with.
  constexpr std::size_t kN = 4099;
  Rng rng(17);
  Tensor wide_p = Tensor::randn({kN}, rng);
  Tensor wide_g({kN});
  std::vector<Tensor> narrow_p, narrow_g;
  narrow_p.reserve(kN);
  narrow_g.reserve(kN);
  std::vector<Tensor*> narrow_p_ptrs, narrow_g_ptrs;
  for (std::size_t i = 0; i < kN; ++i) {
    narrow_p.emplace_back(Shape{1}, wide_p[i]);
    narrow_g.emplace_back(Shape{1});
    narrow_p_ptrs.push_back(&narrow_p.back());
    narrow_g_ptrs.push_back(&narrow_g.back());
  }
  Adam wide({&wide_p}, {&wide_g});
  Adam narrow(narrow_p_ptrs, narrow_g_ptrs);

  // +-0, a subnormal and a value whose square overflows, placed at the
  // start, in the middle and in the tail of the loop.
  const float specials[] = {0.f, -0.f, 1e-40f, 1e30f};
  for (int step = 0; step < 100; ++step) {
    rng.fill_normal(wide_g.data(), kN, 0.f, 0.01f);
    for (std::size_t base : {std::size_t{0}, std::size_t{2048}, kN - 4}) {
      for (std::size_t k = 0; k < 4; ++k) wide_g[base + k] = specials[k];
    }
    for (std::size_t i = 0; i < kN; ++i) narrow_g[i][0] = wide_g[i];
    if (step % 2 == 0) {
      wide.step();
      narrow.step();
    } else {
      wide.step_scaled(0.37f);
      narrow.step_scaled(0.37f);
    }
  }

  std::size_t mismatches = 0, first = kN;
  for (std::size_t i = 0; i < kN; ++i) {
    if (bits(wide_p[i]) != bits(narrow_p[i][0])) {
      if (mismatches++ == 0) first = i;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch at element " << first;
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize f(x) = (x - 3)^2 by feeding grad = 2(x-3).
  Tensor p({1}, std::vector<float>{-5.f});
  Tensor g({1});
  Adam adam({&p}, {&g}, {0.1f, 0.9f, 0.999f, 1e-8f});
  for (int i = 0; i < 500; ++i) {
    g[0] = 2.f * (p[0] - 3.f);
    adam.step();
  }
  EXPECT_NEAR(p[0], 3.f, 1e-2f);
}

TEST(Adam, ZeroGradZeroesBoundBuffers) {
  Tensor p({2});
  Tensor g({2}, std::vector<float>{1.f, 2.f});
  Adam adam({&p}, {&g});
  adam.zero_grad();
  EXPECT_FLOAT_EQ(g[0], 0.f);
  EXPECT_FLOAT_EQ(g[1], 0.f);
}

TEST(Adam, MismatchedBindingsThrow) {
  Tensor p({2}), g({3});
  EXPECT_THROW(Adam({&p}, {&g}), std::invalid_argument);
  Tensor g2({2});
  EXPECT_THROW(Adam({&p}, {&g2, &g2}), std::invalid_argument);
}

}  // namespace
}  // namespace mdgan::opt
