#include "src/ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace varbench::ml {

namespace {
// Seed of the shared "pretrained checkpoint" stream for frozen first layers.
constexpr std::uint64_t kFrozenBackboneSeed = 0xFEEDFACECAFEBEEFULL;
}  // namespace

Mlp::Mlp(MlpConfig config, rngx::Rng& init_rng) : config_{std::move(config)} {
  if (config_.input_dim == 0 || config_.output_dim == 0) {
    throw std::invalid_argument("Mlp: zero input or output dim");
  }
  if (!(config_.dropout >= 0.0 && config_.dropout < 1.0)) {
    throw std::invalid_argument("Mlp: dropout must be in [0, 1)");
  }
  std::vector<std::size_t> dims;
  dims.push_back(config_.input_dim);
  dims.insert(dims.end(), config_.hidden.begin(), config_.hidden.end());
  dims.push_back(config_.output_dim);

  rngx::Rng frozen_rng{kFrozenBackboneSeed};
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    math::Matrix w{dims[i + 1], dims[i]};
    rngx::Rng& rng = layer_trainable(i) ? init_rng : frozen_rng;
    initialize_weights(w, config_.init, rng, config_.init_sigma);
    weights_.push_back(std::move(w));
    biases_.emplace_back(dims[i + 1], 0.0);
  }
}

std::size_t Mlp::num_parameters() const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    n += weights_[i].size() + biases_[i].size();
  }
  return n;
}

namespace {

// out ← input (B×in) · wᵀ (in×out) + b → (B×out)
void affine_into(const math::Matrix& input, const math::Matrix& w,
                 const std::vector<double>& b, math::Matrix& out) {
  math::matmul_nt_into(input, w, out);
  const double* __restrict bias = b.data();
  for (std::size_t r = 0; r < out.rows(); ++r) {
    double* __restrict row = out.row(r).data();
    for (std::size_t c = 0; c < out.cols(); ++c) row[c] += bias[c];
  }
}

// std::max(v, 0.0) written as a select, which vectorizes: -0.0 and NaN pass
// through unchanged, as they do through std::max.
double relu(double v) { return v < 0.0 ? 0.0 : v; }

void relu_inplace(math::Matrix& m) {
  for (double& v : m.data()) v = relu(v);
}

// out[c] = Σ_r m(r, c), summed in ascending r from +0.0.
void column_sums(const math::Matrix& m, std::vector<double>& out) {
  out.assign(m.cols(), 0.0);
  double* __restrict sums = out.data();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double* __restrict row = m.row(r).data();
    for (std::size_t c = 0; c < m.cols(); ++c) sums[c] += row[c];
  }
}

}  // namespace

math::Matrix Mlp::forward(const math::Matrix& batch) const {
  math::Matrix h;
  math::Matrix next;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    affine_into(i == 0 ? batch : h, weights_[i], biases_[i], next);
    std::swap(h, next);
    if (i + 1 < weights_.size()) relu_inplace(h);
  }
  return h;
}

const math::Matrix& Mlp::forward_train(const math::Matrix& batch,
                                       rngx::Rng& dropout_rng,
                                       ForwardCache& cache) const {
  const std::size_t L = weights_.size();
  cache.inputs.resize(L);
  cache.pre.resize(L);
  cache.dropout_mask.resize(L);
  cache.inputs[0] = batch;
  for (std::size_t i = 0; i < L; ++i) {
    math::Matrix& pre = cache.pre[i];
    affine_into(cache.inputs[i], weights_[i], biases_[i], pre);
    if (i + 1 == L) break;
    math::Matrix& h = cache.inputs[i + 1];
    h.resize(pre.rows(), pre.cols());
    const double* __restrict z = pre.data().data();
    double* __restrict out = h.data().data();
    const std::size_t size = h.size();
    for (std::size_t j = 0; j < size; ++j) out[j] = relu(z[j]);
    math::Matrix& mask = cache.dropout_mask[i];
    if (config_.dropout > 0.0) {
      // Inverted dropout: scale at train time so inference needs no change.
      mask.resize(h.rows(), h.cols());
      const double keep = 1.0 - config_.dropout;
      const double scale = 1.0 / keep;
      for (double& m : mask.data()) {
        m = dropout_rng.bernoulli(keep) ? scale : 0.0;
      }
      const double* __restrict keep_mask = mask.data().data();
      for (std::size_t j = 0; j < size; ++j) out[j] *= keep_mask[j];
    } else {
      mask.resize(0, 0);
    }
  }
  return cache.pre[L - 1];
}

void Mlp::backward(const ForwardCache& cache, const math::Matrix& grad_logits,
                   Gradients& g) const {
  const std::size_t L = weights_.size();
  g.weights.resize(L);
  g.biases.resize(L);
  g.delta.resize(L - 1);
  // d(loss)/d(pre-activation of layer ii), starting at the logits.
  const math::Matrix* delta = &grad_logits;
  for (std::size_t ii = L; ii-- > 0;) {
    // Weight/bias gradients for layer ii.
    if (layer_trainable(ii)) {
      math::matmul_tn_into(*delta, cache.inputs[ii], g.weights[ii]);
      column_sums(*delta, g.biases[ii]);
    } else {
      g.weights[ii].resize(weights_[ii].rows(), weights_[ii].cols());
      g.weights[ii].fill(0.0);
      g.biases[ii].assign(biases_[ii].size(), 0.0);
    }
    if (ii == 0) break;
    // Only the first layer can be frozen, and a frozen layer 0 needs no
    // delta.
    if (ii == 1 && !layer_trainable(0)) continue;
    // Propagate to previous layer: delta ← (delta · W_ii) ⊙ relu'(pre_{ii-1})
    // with the dropout mask of layer ii-1 applied.
    math::Matrix& prev = g.delta[ii - 1];
    math::matmul_into(*delta, weights_[ii], prev);
    const double* __restrict pre = cache.pre[ii - 1].data().data();
    double* __restrict d = prev.data().data();
    const math::Matrix& mask = cache.dropout_mask[ii - 1];
    if (mask.empty()) {
      for (std::size_t j = 0; j < prev.size(); ++j) {
        d[j] = pre[j] <= 0.0 ? 0.0 : d[j];
      }
    } else {
      const double* __restrict keep = mask.data().data();
      for (std::size_t j = 0; j < prev.size(); ++j) {
        d[j] = (pre[j] <= 0.0 ? 0.0 : d[j]) * keep[j];
      }
    }
    delta = &prev;
  }
}

void softmax_into(const math::Matrix& logits, math::Matrix& p) {
  p.resize(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const auto in = logits.row(r);
    auto out = p.row(r);
    const double mx = *std::max_element(in.begin(), in.end());
    double sum = 0.0;
    for (std::size_t c = 0; c < in.size(); ++c) {
      out[c] = std::exp(in[c] - mx);
      sum += out[c];
    }
    for (double& v : out) v /= sum;
  }
}

double softmax_cross_entropy(const math::Matrix& logits,
                             std::span<const double> labels,
                             math::Matrix& grad) {
  const std::size_t batch = logits.rows();
  if (labels.size() != batch) {
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  }
  softmax_into(logits, grad);
  double loss = 0.0;
  const double inv_b = 1.0 / static_cast<double>(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    const auto label = static_cast<std::size_t>(labels[r]);
    if (label >= logits.cols()) {
      throw std::invalid_argument("softmax_cross_entropy: label out of range");
    }
    auto grow = grad.row(r);
    loss -= std::log(std::max(grow[label], 1e-300));
    grow[label] -= 1.0;
    for (double& v : grow) v *= inv_b;
  }
  return loss * inv_b;
}

double mse_loss(const math::Matrix& pred, std::span<const double> targets,
                math::Matrix& grad) {
  const std::size_t batch = pred.rows();
  if (pred.cols() != 1 || targets.size() != batch) {
    throw std::invalid_argument("mse_loss: shape mismatch");
  }
  grad.resize(batch, 1);
  double loss = 0.0;
  const double inv_b = 1.0 / static_cast<double>(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    const double diff = pred(r, 0) - targets[r];
    loss += diff * diff;
    grad(r, 0) = 2.0 * diff * inv_b;
  }
  return loss * inv_b;
}

}  // namespace varbench::ml
