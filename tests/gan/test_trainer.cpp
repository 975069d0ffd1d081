#include "gan/trainer.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "data/synthetic.hpp"
#include "gan/gan_loss.hpp"
#include "nn/loss.hpp"
#include "tensor/tensor_ops.hpp"

namespace mdgan::gan {
namespace {

GanHyperParams tiny_hp() {
  GanHyperParams hp;
  hp.batch = 8;
  hp.disc_steps = 1;
  return hp;
}

TEST(DiscLearningStep, ImprovesDiscriminationOnFixedBatches) {
  Rng rng(81);
  GanArch arch = make_arch(ArchKind::kMlpMnist);
  auto d = build_discriminator(arch, rng);
  opt::Adam d_opt(d.params(), d.grads(), {1e-3f, 0.5f, 0.999f, 1e-8f});

  auto data = data::make_synthetic_digits(64, 42);
  Rng srng(1);
  std::vector<int> y_real;
  Tensor x_real = data.sample_batch(srng, 8, &y_real);
  Tensor x_fake = Tensor::randn({8, 784}, srng, 0.f, 0.5f);
  std::vector<int> y_fake{0, 1, 2, 3, 4, 5, 6, 7};

  auto first = disc_learning_step(d, d_opt, x_real, y_real, x_fake, y_fake,
                                  true);
  DiscStepStats last{};
  for (int i = 0; i < 30; ++i) {
    last = disc_learning_step(d, d_opt, x_real, y_real, x_fake, y_fake,
                              true);
  }
  EXPECT_LT(last.loss_real + last.loss_fake,
            first.loss_real + first.loss_fake);
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Fills every gradient buffer of `net` with non-zero values.
void prefill_grads(nn::Sequential& net, Rng& rng) {
  for (auto* g : net.grads()) rng.fill_normal(g->data(), g->numel(), 0.f, 1.f);
}

TEST(GeneratorFeedback, ShapeMatchesInputAndParamsUntouched) {
  Rng rng(82);
  GanArch arch = make_arch(ArchKind::kMlpMnist);
  auto d = build_discriminator(arch, rng);
  const auto params_before = d.flatten_parameters();
  // The pass computes no parameter gradient, so gradients left by
  // anything before it stay exactly as they were.
  prefill_grads(d, rng);
  const auto grads_before = d.flatten_gradients();

  Tensor x_fake = Tensor::randn({4, 784}, rng);
  std::vector<int> labels{1, 2, 3, 4};
  float loss = 0.f;
  Tensor f = generator_feedback(d, x_fake, &labels, false, &loss);

  EXPECT_EQ(f.shape(), x_fake.shape());
  EXPECT_GT(loss, 0.f);
  EXPECT_EQ(d.flatten_parameters(), params_before);
  EXPECT_TRUE(same_bits(d.flatten_gradients(), grads_before));
}

// Every discriminator architecture: the two worker passes that ask for
// one kind of gradient give exactly what the full backward gives.
class EveryArch : public ::testing::TestWithParam<ArchKind> {};

std::vector<int> cycling_labels(const GanArch& arch, std::size_t b,
                                std::size_t first = 0) {
  std::vector<int> y(b);
  for (std::size_t i = 0; i < b; ++i) {
    y[i] = static_cast<int>((first + i) % arch.image.num_classes);
  }
  return y;
}

TEST_P(EveryArch, FeedbackIsTheFullInputGradientAndLeavesGradsAlone) {
  const GanArch arch = make_arch(GetParam());
  Rng rng(84);
  auto d = build_discriminator(arch, rng);
  const std::size_t b = 4;
  const Tensor x = Tensor::randn({b, arch.image_dim()}, rng, 0.f, 0.5f);
  const std::vector<int> labels = cycling_labels(arch, b);
  const std::vector<int>* y = arch.acgan ? &labels : nullptr;

  SideLoss gl = generator_loss(d.forward(x, /*train=*/true), y, false);
  const Tensor want = d.backward(gl.grad);

  prefill_grads(d, rng);
  const auto grads_before = d.flatten_gradients();
  const Tensor& f = generator_feedback(d, x, y, false);
  EXPECT_EQ(f.shape(), want.shape());
  EXPECT_TRUE(same_bits(f.vec(), want.vec()));
  EXPECT_TRUE(same_bits(d.flatten_gradients(), grads_before));
}

TEST_P(EveryArch, LearningStepMatchesAStepBuiltFromFullBackwards) {
  const GanArch arch = make_arch(GetParam());
  Rng init(85);
  auto d = build_discriminator(arch, init);
  Rng init_again(85);
  auto ref = build_discriminator(arch, init_again);
  opt::Adam d_opt(d.params(), d.grads(), tiny_hp().d_adam);
  opt::Adam ref_opt(ref.params(), ref.grads(), tiny_hp().d_adam);

  Rng rng(86);
  const std::size_t b = 4;
  const std::vector<int> y_real = cycling_labels(arch, b);
  const std::vector<int> y_fake = cycling_labels(arch, b, /*first=*/5);
  for (int step = 0; step < 2; ++step) {
    const Tensor x_real = Tensor::randn({b, arch.image_dim()}, rng, 0.f, 0.5f);
    const Tensor x_fake = Tensor::randn({b, arch.image_dim()}, rng, 0.f, 0.5f);
    disc_learning_step(d, d_opt, x_real, y_real, x_fake, y_fake, arch.acgan);

    ref_opt.zero_grad();
    SideLoss real = disc_side_loss(ref.forward(x_real, /*train=*/true), true,
                                   arch.acgan ? &y_real : nullptr);
    ref.backward(real.grad);
    SideLoss fake = disc_side_loss(ref.forward(x_fake, /*train=*/true), false,
                                   arch.acgan ? &y_fake : nullptr);
    ref.backward(fake.grad);
    ref_opt.step();
  }
  EXPECT_TRUE(same_bits(d.flatten_parameters(), ref.flatten_parameters()));
}

INSTANTIATE_TEST_SUITE_P(
    AllDiscriminators, EveryArch,
    ::testing::Values(ArchKind::kMlpMnist, ArchKind::kCnnMnist,
                      ArchKind::kCnnCifar, ArchKind::kCnnCeleba),
    [](const ::testing::TestParamInfo<ArchKind>& info) {
      std::string name = arch_name(info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(GeneratorFeedback, MatchesDirectFiniteDifference) {
  // F = dJ/dx: perturbing one input pixel changes J by ~F[i]*eps.
  Rng rng(83);
  GanArch arch = make_arch(ArchKind::kMlpMnist);
  auto d = build_discriminator(arch, rng);
  Tensor x = Tensor::randn({2, 784}, rng);
  std::vector<int> labels{3, 5};

  float j0 = 0.f;
  Tensor f = generator_feedback(d, x, &labels, false, &j0);

  const float eps = 1e-2f;
  for (std::size_t probe : {std::size_t{0}, std::size_t{391},
                            std::size_t{1567}}) {
    Tensor xp = x;
    xp[probe] += eps;
    float jp = 0.f;
    generator_feedback(d, xp, &labels, false, &jp);
    Tensor xm = x;
    xm[probe] -= eps;
    float jm = 0.f;
    generator_feedback(d, xm, &labels, false, &jm);
    const float numeric = (jp - jm) / (2 * eps);
    EXPECT_NEAR(f[probe], numeric, 5e-3f) << "pixel " << probe;
  }
}

TEST(StandaloneGan, RunsAndInvokesHook) {
  auto data = data::make_synthetic_digits(64, 7);
  StandaloneGan gan(make_arch(ArchKind::kMlpMnist), tiny_hp(), 123);
  std::vector<std::int64_t> hook_iters;
  gan.train(data, 6, 2, [&](std::int64_t it, nn::Sequential&) {
    hook_iters.push_back(it);
  });
  EXPECT_EQ(hook_iters, (std::vector<std::int64_t>{2, 4, 6}));
}

TEST(StandaloneGan, TrainingChangesGenerator) {
  auto data = data::make_synthetic_digits(64, 7);
  StandaloneGan gan(make_arch(ArchKind::kMlpMnist), tiny_hp(), 123);
  const auto before = gan.generator().flatten_parameters();
  gan.train(data, 3);
  const auto after = gan.generator().flatten_parameters();
  EXPECT_NE(before, after);
}

TEST(StandaloneGan, DeterministicForSameSeed) {
  auto data = data::make_synthetic_digits(64, 7);
  StandaloneGan a(make_arch(ArchKind::kMlpMnist), tiny_hp(), 5);
  StandaloneGan b(make_arch(ArchKind::kMlpMnist), tiny_hp(), 5);
  a.train(data, 3);
  b.train(data, 3);
  EXPECT_EQ(a.generator().flatten_parameters(),
            b.generator().flatten_parameters());
}

TEST(StandaloneGan, SeedChangesTrajectory) {
  auto data = data::make_synthetic_digits(64, 7);
  StandaloneGan a(make_arch(ArchKind::kMlpMnist), tiny_hp(), 5);
  StandaloneGan b(make_arch(ArchKind::kMlpMnist), tiny_hp(), 6);
  a.train(data, 3);
  b.train(data, 3);
  EXPECT_NE(a.generator().flatten_parameters(),
            b.generator().flatten_parameters());
}

TEST(StandaloneGan, RejectsMismatchedDataset) {
  auto cifar = data::make_synthetic_cifar(32, 7);
  StandaloneGan gan(make_arch(ArchKind::kMlpMnist), tiny_hp(), 1);
  EXPECT_THROW(gan.train(cifar, 1), std::invalid_argument);
}

TEST(StandaloneGan, LearnsToFoolItsDiscriminator) {
  // After some iterations the discriminator should not separate fakes
  // perfectly anymore — the basic GAN game is actually being played.
  auto data = data::make_synthetic_digits(128, 9);
  GanHyperParams hp = tiny_hp();
  hp.batch = 16;
  StandaloneGan gan(make_arch(ArchKind::kMlpMnist), hp, 31);
  gan.train(data, 60);

  Rng rng(99);
  std::vector<int> labels;
  Tensor z = sample_latent(gan.arch(), gan.codes(), 32, rng, labels);
  Tensor fake = gan.generator().forward(z, false);
  Tensor out = gan.discriminator().forward(fake, false);
  // Mean source probability on fakes should be well above 0 (D unsure),
  // not pinned at "fake" (0.0).
  double mean_p = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    mean_p += nn::stable_sigmoid(out.at(i, 0));
  }
  mean_p /= 32;
  EXPECT_GT(mean_p, 0.05) << "discriminator wins completely: " << mean_p;
}

}  // namespace
}  // namespace mdgan::gan
