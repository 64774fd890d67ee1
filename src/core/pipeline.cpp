#include "src/core/pipeline.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/metrics/metrics.h"

namespace varbench::core {

double fit(const LearningPipeline& pipeline, const ml::Dataset& train,
           const ml::Dataset& test, const hpo::ParamPoint& lambda,
           const rngx::VariationSeeds& seeds, FitCounter* counter) {
  if (counter != nullptr) ++counter->fits;
  metrics::global_sink().add(metrics::kCoreFits);
  return pipeline.train_and_evaluate(train, test, lambda, seeds);
}

hpo::ParamPoint run_hpo(const LearningPipeline& pipeline,
                        const ml::Dataset& trainvalid,
                        const HpoRunConfig& config,
                        const rngx::VariationSeeds& seeds,
                        FitCounter* counter) {
  if (config.algorithm == nullptr) return pipeline.default_params();
  if (!(config.validation_fraction > 0.0 && config.validation_fraction < 1.0)) {
    throw std::invalid_argument("run_hpo: validation_fraction outside (0, 1)");
  }
  auto hpo_rng = seeds.rng_for(rngx::VariationSource::kHpo);

  // Inner S_t / S_v split of S_tv — part of HOpt's arbitrary choices (ξH).
  std::vector<std::size_t> order(trainvalid.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  hpo_rng.shuffle(order);
  const auto n_valid = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.validation_fraction *
                                  static_cast<double>(trainvalid.size())));
  if (n_valid >= trainvalid.size()) {
    throw std::invalid_argument("run_hpo: validation split leaves no train data");
  }
  const std::span<const std::size_t> valid_idx{order.data(), n_valid};
  const std::span<const std::size_t> train_idx{order.data() + n_valid,
                                               trainvalid.size() - n_valid};
  const ml::Dataset inner_train = ml::subset(trainvalid, train_idx);
  const ml::Dataset inner_valid = ml::subset(trainvalid, valid_idx);

  const hpo::Objective objective = [&](const hpo::ParamPoint& lambda) {
    // Minimize risk = 1 - performance (metrics are higher-is-better).
    return 1.0 - fit(pipeline, inner_train, inner_valid, lambda, seeds,
                     counter);
  };
  const hpo::HpoResult result = config.algorithm->optimize(
      config.exec, pipeline.search_space(), objective, config.budget, hpo_rng);
  return result.best;
}

double run_pipeline_once(const LearningPipeline& pipeline,
                         const ml::Dataset& pool, const Splitter& splitter,
                         const HpoRunConfig& config,
                         const rngx::VariationSeeds& seeds,
                         FitCounter* counter) {
  auto split_rng = seeds.rng_for(rngx::VariationSource::kDataSplit);
  const Split s = splitter.split(pool, split_rng);
  const auto [trainvalid, test] = materialize(pool, s);
  const hpo::ParamPoint lambda = run_hpo(pipeline, trainvalid, config, seeds,
                                         counter);
  return fit(pipeline, trainvalid, test, lambda, seeds, counter);  // retrain
}

double measure_with_params(const LearningPipeline& pipeline,
                           const ml::Dataset& pool, const Splitter& splitter,
                           const hpo::ParamPoint& lambda,
                           const rngx::VariationSeeds& seeds,
                           FitCounter* counter) {
  auto split_rng = seeds.rng_for(rngx::VariationSource::kDataSplit);
  const Split s = splitter.split(pool, split_rng);
  const auto [train, test] = materialize(pool, s);
  return fit(pipeline, train, test, lambda, seeds, counter);
}

}  // namespace varbench::core
