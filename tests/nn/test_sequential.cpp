#include "nn/sequential.hpp"

#include <gtest/gtest.h>

#include "helpers/gradient_check.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/reshape.hpp"
#include "tensor/tensor_ops.hpp"

namespace mdgan::nn {
namespace {

Sequential make_mlp(Rng& rng) {
  Sequential s;
  s.emplace<Dense>(4, 8);
  s.emplace<LeakyReLU>(0.2f);
  s.emplace<Dense>(8, 3);
  s.emplace<Tanh>();
  he_init(s, rng);
  return s;
}

TEST(Sequential, ForwardChainsLayers) {
  Rng rng(71);
  Sequential s = make_mlp(rng);
  Tensor x = Tensor::randn({2, 4}, rng);
  Tensor y = s.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 3}));
  EXPECT_LE(y.max(), 1.f);  // tanh range
  EXPECT_GE(y.min(), -1.f);
}

// Identity layer that records the mode of every backward it runs.
class ModeProbe : public Layer {
 public:
  explicit ModeProbe(std::vector<Grads>* log) : log_(log) {}
  const Tensor& forward(const Tensor& x, bool) override {
    y_ = x;
    return y_;
  }
  void swap_cache(std::size_t) override {}
  std::string name() const override { return "ModeProbe"; }

 private:
  const Tensor& do_backward(const Tensor& grad_out, Grads want) override {
    log_->push_back(want);
    dx_ = grad_out;
    return dx_;
  }
  std::vector<Grads>* log_;
  Tensor y_, dx_;
};

// Backward asks a layer for dX only while the caller wants dX or a
// layer below it has parameters: with kParams alone, the lowest Dense
// skips its dX and the probe below it does not run.
TEST(Sequential, BackwardAsksEachLayerOnlyForWhatIsRead) {
  Rng rng(73);
  std::vector<Grads> bottom, middle, top;
  Sequential s;
  s.emplace<ModeProbe>(&bottom);
  s.emplace<Dense>(4, 5);
  s.emplace<ModeProbe>(&middle);
  s.emplace<Dense>(5, 3);
  s.emplace<ModeProbe>(&top);
  he_init(s, rng);
  const Tensor x = Tensor::randn({2, 4}, rng);
  const Tensor g = Tensor::randn({2, 3}, rng);

  for (Grads want : {Grads::kBoth, Grads::kInput, Grads::kParams}) {
    bottom.clear();
    middle.clear();
    top.clear();
    s.forward(x, true);
    const Tensor& dx = s.backward(g, want);
    EXPECT_EQ(dx.empty(), want == Grads::kParams);
    const Grads above = want == Grads::kInput ? Grads::kInput : Grads::kBoth;
    EXPECT_EQ(top, std::vector<Grads>{above});
    EXPECT_EQ(middle, std::vector<Grads>{above});
    EXPECT_EQ(bottom, want == Grads::kParams ? std::vector<Grads>{}
                                             : std::vector<Grads>{want});
  }

  // A Sequential with no parameters runs nothing for kParams.
  std::vector<Grads> lone;
  Sequential p;
  p.emplace<ModeProbe>(&lone);
  p.forward(x, true);
  EXPECT_TRUE(p.backward(x, Grads::kParams).empty());
  EXPECT_TRUE(lone.empty());
}

TEST(Sequential, GradientCheckWholeNetwork) {
  Rng rng(72);
  Sequential s = make_mlp(rng);
  Tensor x = Tensor::randn({3, 4}, rng);
  auto res = testing::check_gradients(s, x, rng);
  EXPECT_LT(res.max_input_error, 2e-2) << res.worst_location;
  EXPECT_LT(res.max_param_error, 2e-2) << res.worst_location;
}

TEST(Sequential, ParamsAndGradsAligned) {
  Rng rng(73);
  Sequential s = make_mlp(rng);
  auto p = s.params();
  auto g = s.grads();
  ASSERT_EQ(p.size(), g.size());
  ASSERT_EQ(p.size(), 4u);  // two Dense layers x (W, b)
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p[i]->shape(), g[i]->shape());
  }
}

TEST(Sequential, FlattenAssignRoundTrip) {
  Rng rng(74);
  Sequential a = make_mlp(rng);
  Sequential b = make_mlp(rng);  // different weights
  auto flat = a.flatten_parameters();
  EXPECT_EQ(flat.size(), a.num_parameters());
  b.assign_parameters(flat);
  Tensor x = Tensor::randn({2, 4}, rng);
  Tensor ya = a.forward(x, false);
  Tensor yb = b.forward(x, false);
  EXPECT_LT(max_abs_diff(ya, yb), 1e-7f);
}

TEST(Sequential, AssignRejectsWrongLength) {
  Rng rng(75);
  Sequential s = make_mlp(rng);
  std::vector<float> bad(s.num_parameters() + 1, 0.f);
  EXPECT_THROW(s.assign_parameters(bad), std::invalid_argument);
  bad.resize(s.num_parameters() - 1);
  EXPECT_THROW(s.assign_parameters(bad), std::invalid_argument);
}

TEST(Sequential, CloneParametersInto) {
  Rng rng(76);
  Sequential a = make_mlp(rng);
  Sequential b = make_mlp(rng);
  a.clone_parameters_into(b);
  EXPECT_EQ(a.flatten_parameters(), b.flatten_parameters());
}

TEST(Sequential, ZeroGradClearsAll) {
  Rng rng(77);
  Sequential s = make_mlp(rng);
  Tensor x = Tensor::randn({2, 4}, rng);
  Tensor y = s.forward(x, true);
  s.backward(Tensor::ones(y.shape()));
  bool any_nonzero = false;
  for (auto* g : s.grads()) any_nonzero |= g->norm() > 0.f;
  EXPECT_TRUE(any_nonzero);
  s.zero_grad();
  for (auto* g : s.grads()) EXPECT_FLOAT_EQ(g->norm(), 0.f);
}

TEST(Reshape, RoundTripThroughSequential) {
  Sequential s;
  s.emplace<Reshape>(Shape{2, 3, 4});
  s.emplace<Flatten>();
  Rng rng(78);
  Tensor x = Tensor::randn({5, 24}, rng);
  Tensor y = s.forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_LT(max_abs_diff(x, y), 1e-9f);
  Tensor g = s.backward(y);
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(Sequential, SummaryMentionsLayersAndParams) {
  Rng rng(79);
  Sequential s = make_mlp(rng);
  const auto text = s.summary();
  EXPECT_NE(text.find("Dense"), std::string::npos);
  EXPECT_NE(text.find("Tanh"), std::string::npos);
  EXPECT_NE(text.find(std::to_string(s.num_parameters())),
            std::string::npos);
}

}  // namespace
}  // namespace mdgan::nn
