// Scoring classifier — the stand-in for the Inception network / the
// paper's "classifier adapted to the MNIST data" (§V-c). A small MLP
// trained on the synthetic training set; its softmax output feeds the
// Inception-style score and its penultimate features feed the FID.
#pragma once

#include <cstdint>
#include <memory>

#include "data/dataset.hpp"
#include "nn/sequential.hpp"
#include "opt/adam.hpp"

namespace mdgan::metrics {

struct ClassifierConfig {
  std::size_t hidden = 64;   // penultimate width == FID feature dim
  std::size_t epochs = 3;
  std::size_t batch = 64;
  float lr = 1e-3f;
};

class ScoringClassifier {
 public:
  // Trains on `train_set` immediately (deterministic in seed).
  ScoringClassifier(const data::InMemoryDataset& train_set,
                    ClassifierConfig cfg, std::uint64_t seed);

  // Class probabilities p(y|x): images (B, d) -> (B, K).
  Tensor probabilities(const Tensor& images);
  // Penultimate features: images (B, d) -> (B, hidden).
  Tensor features(const Tensor& images);

  float evaluate_accuracy(const data::InMemoryDataset& test_set);

  std::size_t num_classes() const { return num_classes_; }

 private:
  ClassifierConfig cfg_;
  std::size_t num_classes_;
  // Split into trunk (-> features) and head (-> logits) so FID can tap
  // the penultimate layer without special-casing the forward pass.
  nn::Sequential trunk_, head_;
};

}  // namespace mdgan::metrics
