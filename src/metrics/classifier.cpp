#include "metrics/classifier.hpp"

#include "common/log.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "tensor/tensor_ops.hpp"

namespace mdgan::metrics {

ScoringClassifier::ScoringClassifier(const data::InMemoryDataset& train_set,
                                     ClassifierConfig cfg, std::uint64_t seed)
    : cfg_(cfg), num_classes_(train_set.meta().num_classes) {
  const std::size_t d = train_set.dim();
  Rng rng = Rng(seed).split(0x5c0);

  trunk_.emplace<nn::Dense>(d, 2 * cfg_.hidden);
  trunk_.emplace<nn::ReLU>();
  trunk_.emplace<nn::Dense>(2 * cfg_.hidden, cfg_.hidden);
  trunk_.emplace<nn::ReLU>();
  head_.emplace<nn::Dense>(cfg_.hidden, num_classes_);
  nn::he_init(trunk_, rng);
  nn::he_init(head_, rng);

  // Join parameters of both halves under one optimizer.
  auto params = trunk_.params();
  auto grads = trunk_.grads();
  for (auto* p : head_.params()) params.push_back(p);
  for (auto* g : head_.grads()) grads.push_back(g);
  opt::Adam adam(params, grads, {cfg_.lr, 0.9f, 0.999f, 1e-8f});

  data::EpochSampler sampler(train_set.size(), cfg_.batch,
                             Rng(seed).split(0x5c1));
  const std::size_t steps = cfg_.epochs * sampler.batches_per_epoch();
  float last_loss = 0.f;
  for (std::size_t s = 0; s < steps; ++s) {
    std::vector<int> labels;
    Tensor x = train_set.gather(sampler.next(), &labels);
    const Tensor& h = trunk_.forward(x, /*train=*/true);
    const Tensor& logits = head_.forward(h, /*train=*/true);
    auto loss = nn::softmax_cross_entropy(logits, labels);
    adam.zero_grad();
    trunk_.backward(head_.backward(loss.grad), nn::Grads::kParams);
    adam.step();
    last_loss = loss.value;
  }
  MDGAN_LOG_DEBUG << "scoring classifier trained on "
                  << train_set.meta().name << ", final batch loss "
                  << last_loss;
}

Tensor ScoringClassifier::probabilities(const Tensor& images) {
  return softmax_rows(
      head_.forward(trunk_.forward(images, /*train=*/false), /*train=*/false));
}

Tensor ScoringClassifier::features(const Tensor& images) {
  return trunk_.forward(images, /*train=*/false);
}

float ScoringClassifier::evaluate_accuracy(
    const data::InMemoryDataset& test_set) {
  const Tensor& h = trunk_.forward(test_set.images(), /*train=*/false);
  return nn::accuracy(head_.forward(h, /*train=*/false), test_set.labels());
}

}  // namespace mdgan::metrics
