#include "metrics/evaluator.hpp"

#include <sstream>

#include "common/log.hpp"

namespace mdgan::metrics {

Evaluator::Evaluator(const data::InMemoryDataset& train_set,
                     const data::InMemoryDataset& test_set,
                     ClassifierConfig cfg, std::size_t eval_samples,
                     std::uint64_t seed)
    : classifier_(train_set, cfg, seed),
      eval_samples_(eval_samples),
      rng_(Rng(seed).split(0xeba1)) {
  classifier_accuracy_ = classifier_.evaluate_accuracy(test_set);
  MDGAN_LOG_INFO << "evaluator ready: classifier accuracy on "
                 << test_set.meta().name << " = " << classifier_accuracy_;
  // Fixed real-side sample for FID.
  Rng sample_rng = Rng(seed).split(0xeba2);
  Tensor real = test_set.sample_batch(
      sample_rng, std::min(eval_samples_, test_set.size()), nullptr);
  real_features_ = classifier_.features(real);
}

GanScores Evaluator::evaluate(nn::Sequential& generator,
                              const gan::GanArch& arch,
                              const gan::ClassCodes& codes) {
  std::vector<int> labels;
  Tensor z = gan::sample_latent(arch, codes, eval_samples_, rng_, labels);
  const Tensor& fake = generator.forward(z, /*train=*/false);

  GanScores s;
  s.inception_score = inception_score(classifier_.probabilities(fake));
  s.fid = frechet_distance(real_features_, classifier_.features(fake));
  return s;
}

std::string to_csv(const std::vector<EvalRecord>& series,
                   const std::string& label) {
  std::ostringstream os;
  for (const auto& r : series) {
    os << label << "," << r.iter << "," << r.scores.inception_score << ","
       << r.scores.fid << "\n";
  }
  return os.str();
}

}  // namespace mdgan::metrics
