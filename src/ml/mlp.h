// Multi-layer perceptron with ReLU hidden layers, optional dropout and an
// optionally frozen first layer (the "pretrained backbone" analogue used by
// the BERT/ResNet case studies). Forward/backward are hand-rolled on the
// Matrix substrate; no autograd.
#pragma once

#include <cstddef>
#include <vector>

#include "src/math/matrix.h"
#include "src/ml/init.h"
#include "src/rngx/rng.h"

namespace varbench::ml {

struct MlpConfig {
  // input_dim/output_dim of 0 mean "derive from the dataset" (train_mlp
  // fills them in); Mlp's constructor requires both to be resolved.
  std::size_t input_dim = 0;
  std::vector<std::size_t> hidden;  // hidden layer widths (may be empty)
  std::size_t output_dim = 0;
  double dropout = 0.0;  // drop probability after each hidden activation
  InitScheme init = InitScheme::kGlorotUniform;
  double init_sigma = 0.2;  // used by InitScheme::kNormalScaled
  // When true, the first layer is a fixed random projection that receives no
  // gradient — the frozen-encoder analogue of fine-tuning only a head.
  bool freeze_first_layer = false;
};

/// Per-batch cache of forward activations needed by backward(). Reusing one
/// cache across steps reuses its buffers.
struct ForwardCache {
  std::vector<math::Matrix> inputs;  // input to each layer (post-activation)
  std::vector<math::Matrix> pre;     // pre-activation of each layer
  std::vector<math::Matrix> dropout_mask;  // empty when dropout is off
};

/// d(loss)/d(parameters) of one batch. Reusing one Gradients across steps
/// reuses its buffers.
struct Gradients {
  std::vector<math::Matrix> weights;
  std::vector<std::vector<double>> biases;
  // d(loss)/d(pre-activation) of each hidden layer: backward()'s working
  // buffers, left as the pass computed them.
  std::vector<math::Matrix> delta;
};

class Mlp {
 public:
  /// Weights are drawn from `init_rng` (the ξO weight-init stream);
  /// a frozen first layer is drawn from a fixed internal stream so it is
  /// identical across reruns, like a shared pretrained checkpoint.
  Mlp(MlpConfig config, rngx::Rng& init_rng);

  [[nodiscard]] const MlpConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t num_layers() const noexcept {
    return weights_.size();
  }
  [[nodiscard]] std::size_t num_parameters() const noexcept;

  [[nodiscard]] std::vector<math::Matrix>& weights() noexcept {
    return weights_;
  }
  [[nodiscard]] const std::vector<math::Matrix>& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] std::vector<std::vector<double>>& biases() noexcept {
    return biases_;
  }
  [[nodiscard]] const std::vector<std::vector<double>>& biases()
      const noexcept {
    return biases_;
  }

  /// True when layer `i` receives gradient updates.
  [[nodiscard]] bool layer_trainable(std::size_t i) const {
    return !(config_.freeze_first_layer && i == 0);
  }

  /// Inference forward pass (no dropout): batch (B×in) → logits (B×out).
  [[nodiscard]] math::Matrix forward(const math::Matrix& batch) const;

  /// Training forward pass; dropout masks drawn from `dropout_rng`
  /// (the ξO dropout stream). Fills `cache` for backward() and returns the
  /// logits, which live in the cache.
  [[nodiscard]] const math::Matrix& forward_train(const math::Matrix& batch,
                                                  rngx::Rng& dropout_rng,
                                                  ForwardCache& cache) const;

  /// Backpropagate d(loss)/d(logits) through the cached forward pass into
  /// `grads`. A frozen layer gets an all-zero gradient.
  void backward(const ForwardCache& cache, const math::Matrix& grad_logits,
                Gradients& grads) const;

 private:
  MlpConfig config_;
  std::vector<math::Matrix> weights_;          // layer i: (out_i × in_i)
  std::vector<std::vector<double>> biases_;    // layer i: (out_i)
};

/// Softmax cross-entropy over logits (B×C) with integer labels.
/// Returns mean loss; writes d(loss)/d(logits) into `grad` (B×C).
[[nodiscard]] double softmax_cross_entropy(const math::Matrix& logits,
                                           std::span<const double> labels,
                                           math::Matrix& grad);

/// Mean squared error over predictions (B×1). Writes gradient into `grad`.
[[nodiscard]] double mse_loss(const math::Matrix& pred,
                              std::span<const double> targets,
                              math::Matrix& grad);

/// Row-wise softmax probabilities of `logits` into `p`, reusing its buffer.
void softmax_into(const math::Matrix& logits, math::Matrix& p);

}  // namespace varbench::ml
