#include "gan/trainer.hpp"

#include <stdexcept>

namespace mdgan::gan {

DiscStepStats disc_learning_step(nn::Sequential& disc,
                                 opt::Adam& d_opt, const Tensor& x_real,
                                 const std::vector<int>& y_real,
                                 const Tensor& x_fake,
                                 const std::vector<int>& y_fake,
                                 bool acgan) {
  DiscStepStats stats;
  d_opt.zero_grad();

  // Real side. The step reads only D's parameter gradients, so neither
  // side computes an input gradient; activations live in layer scratch,
  // so the step allocates only the loss grads.
  const Tensor& out_real = disc.forward(x_real, /*train=*/true);
  SideLoss real = disc_side_loss(out_real, /*target_real=*/true,
                                 acgan ? &y_real : nullptr);
  disc.backward(real.grad, nn::Grads::kParams);

  // Fake side (forward/backward immediately: layer caches are
  // single-shot).
  const Tensor& out_fake = disc.forward(x_fake, /*train=*/true);
  SideLoss fake = disc_side_loss(out_fake, /*target_real=*/false,
                                 acgan ? &y_fake : nullptr);
  disc.backward(fake.grad, nn::Grads::kParams);

  d_opt.step();
  stats.loss_real = real.source_loss;
  stats.loss_fake = fake.source_loss;
  stats.aux_loss = real.aux_loss + fake.aux_loss;
  return stats;
}

const Tensor& generator_feedback(nn::Sequential& disc, const Tensor& x_fake,
                                 const std::vector<int>* y_fake,
                                 bool saturating, float* loss_out) {
  const Tensor& d_out = disc.forward(x_fake, /*train=*/true);
  SideLoss gl = generator_loss(d_out, y_fake, saturating);
  // Algorithm 1 line 9 ships only dJ/dx: D is not trained by this pass,
  // so its parameter gradients are neither computed nor touched.
  const Tensor& feedback = disc.backward(gl.grad, nn::Grads::kInput);
  if (loss_out) *loss_out = gl.source_loss + gl.aux_loss;
  return feedback;
}

void local_gan_step(const data::InMemoryDataset& data, Rng& rng,
                    nn::Sequential& g, opt::Adam& g_opt,
                    nn::Sequential& d, opt::Adam& d_opt,
                    const GanArch& arch, const ClassCodes& codes,
                    const GanHyperParams& hp) {
  // Discriminator learning (L inner steps on fresh fakes, same reals —
  // the Algorithm 1 worker loop shape). x_fake lives in G's scratch
  // until G's next forward below.
  std::vector<int> y_real;
  Tensor x_real = data.sample_batch(rng, hp.batch, &y_real);
  std::vector<int> y_fake;
  Tensor z = sample_latent(arch, codes, hp.batch, rng, y_fake);
  const Tensor& x_fake = g.forward(z, /*train=*/true);
  for (std::size_t l = 0; l < hp.disc_steps; ++l) {
    disc_learning_step(d, d_opt, x_real, y_real, x_fake, y_fake, arch.acgan);
  }

  // Generator learning: feedback through D, then backprop through G.
  std::vector<int> y_gen;
  Tensor z2 = sample_latent(arch, codes, hp.batch, rng, y_gen);
  const Tensor& x_gen = g.forward(z2, /*train=*/true);
  const Tensor& feedback = generator_feedback(
      d, x_gen, arch.acgan ? &y_gen : nullptr, hp.saturating);
  g_opt.zero_grad();
  g.backward(feedback, nn::Grads::kParams);
  g_opt.step();
}

StandaloneGan::StandaloneGan(GanArch arch, GanHyperParams hp,
                             std::uint64_t seed)
    : arch_(arch),
      hp_(hp),
      codes_(arch.image.num_classes, arch.latent_dim),
      rng_(Rng(seed).split(0x57a).split(0xa10e)) {
  Rng init_rng = Rng(seed).split(0x1417);
  g_ = build_generator(arch_, init_rng);
  d_ = build_discriminator(arch_, init_rng);
  g_opt_ = std::make_unique<opt::Adam>(g_.params(), g_.grads(), hp_.g_adam);
  d_opt_ = std::make_unique<opt::Adam>(d_.params(), d_.grads(), hp_.d_adam);
}

void StandaloneGan::train(const data::InMemoryDataset& dataset,
                          std::int64_t iters, std::int64_t eval_every,
                          const EvalHook& hook) {
  if (dataset.dim() != arch_.image_dim()) {
    throw std::invalid_argument("StandaloneGan::train: dataset " +
                                dataset.meta().name +
                                " does not match arch image size");
  }
  for (std::int64_t i = 1; i <= iters; ++i) {
    local_gan_step(dataset, rng_, g_, *g_opt_, d_, *d_opt_, arch_, codes_,
                   hp_);
    if (hook && eval_every > 0 && (i % eval_every == 0 || i == iters)) {
      hook(i, g_);
    }
  }
}

}  // namespace mdgan::gan
