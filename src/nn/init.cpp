#include "nn/init.hpp"

#include <cmath>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "nn/dense.hpp"
#include "nn/minibatch_discrimination.hpp"

namespace mdgan::nn {

void normal_init(Tensor& w, float stddev, Rng& rng) {
  rng.fill_normal(w.data(), w.numel(), 0.f, stddev);
}

void he_normal(Tensor& w, std::size_t fan_in, Rng& rng) {
  const float stddev = std::sqrt(2.f / static_cast<float>(fan_in));
  rng.fill_normal(w.data(), w.numel(), 0.f, stddev);
}

namespace {
template <typename Fn>
void walk_weights(Sequential& model, Fn&& init_weight) {
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    Layer& l = model.layer(i);
    if (auto* d = dynamic_cast<Dense*>(&l)) {
      init_weight(d->weight(), d->in_features());
    } else if (auto* c = dynamic_cast<Conv2D*>(&l)) {
      init_weight(c->weight(), c->weight().dim(1));
    } else if (auto* ct = dynamic_cast<ConvTranspose2D*>(&l)) {
      init_weight(ct->weight(), ct->weight().dim(0));
    } else if (auto* mb = dynamic_cast<MinibatchDiscrimination*>(&l)) {
      init_weight(mb->kernel(), mb->kernel().dim(0));
    }
  }
}
}  // namespace

void dcgan_init(Sequential& model, Rng& rng) {
  walk_weights(model, [&rng](Tensor& w, std::size_t /*fan_in*/) {
    normal_init(w, 0.02f, rng);
  });
}

void he_init(Sequential& model, Rng& rng) {
  walk_weights(model, [&rng](Tensor& w, std::size_t fan_in) {
    he_normal(w, fan_in, rng);
  });
}

}  // namespace mdgan::nn
