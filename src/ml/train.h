// The training procedure Opt(S_t, λ; ξO) of the paper's §2.1: mini-batch
// gradient descent over an MLP, with every stochastic ingredient (weight
// init, data order, dropout masks, augmentation) driven by its own named
// seed stream from VariationSeeds.
#pragma once

#include "src/ml/augment.h"
#include "src/ml/dataset.h"
#include "src/ml/mlp.h"
#include "src/ml/optimizer.h"
#include "src/rngx/variation.h"

namespace varbench::ml {

enum class LossKind : int { kSoftmaxCrossEntropy, kMse };
enum class OptimizerKind : int { kSgd, kAdam };

struct TrainConfig {
  MlpConfig model;  // input_dim/output_dim of 0 are filled from the dataset
  OptimizerConfig opt;
  OptimizerKind optimizer = OptimizerKind::kSgd;
  LossKind loss = LossKind::kSoftmaxCrossEntropy;
  std::size_t epochs = 20;
  std::size_t batch_size = 32;
  AugmentConfig augment;
  // Unseeded perturbation applied to the final weights, reproducing the
  // paper's "numerical noise" case (their segmentation pipeline was not
  // perfectly reproducible; Appendix A). Driven by a process-global counter,
  // so two runs with identical seeds still differ when this is > 0.
  double numerical_noise_std = 0.0;
};

/// Train an MLP on `train` with hyperparameter-resolved `config`.
/// ξO seeds consumed: weight_init, data_order, dropout, data_augment.
[[nodiscard]] Mlp train_mlp(const Dataset& train, const TrainConfig& config,
                            const rngx::VariationSeeds& seeds);

/// Whether train_mlp under `config` reads the seed of `source`: data order
/// and weight init always, dropout only when dropout > 0, augmentation only
/// when it is active, and no other source (the split happens outside).
[[nodiscard]] bool reads_stream(const TrainConfig& config,
                                rngx::VariationSource source);

/// Mean training loss of a model over a dataset (diagnostic).
[[nodiscard]] double mean_loss(const Mlp& model, const Dataset& data,
                               LossKind loss);

}  // namespace varbench::ml
