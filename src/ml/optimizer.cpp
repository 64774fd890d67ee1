#include "src/ml/optimizer.h"

#include <cmath>
#include <span>

namespace varbench::ml {

namespace {

void ensure_state(std::vector<std::vector<double>>& state, std::size_t layers,
                  const std::vector<math::Matrix>& shapes) {
  if (state.size() == layers) return;
  state.resize(layers);
  for (std::size_t i = 0; i < layers; ++i) {
    state[i].assign(shapes[i].size(), 0.0);
  }
}

void ensure_bias_state(std::vector<std::vector<double>>& state,
                       std::size_t layers,
                       const std::vector<std::vector<double>>& shapes) {
  if (state.size() == layers) return;
  state.resize(layers);
  for (std::size_t i = 0; i < layers; ++i) {
    state[i].assign(shapes[i].size(), 0.0);
  }
}

// The update loops run over flat arrays that the compiler may assume do not
// alias, so they vectorize. Weights take the L2 term; biases are a separate
// instantiation without it, so no 0·w is ever added to a bias update.

template <bool kWeightDecay>
void sgd_update(std::span<double> params, std::span<const double> grads,
                std::vector<double>& velocity, const OptimizerConfig& config,
                double lr) {
  double* __restrict w = params.data();
  const double* __restrict g = grads.data();
  double* __restrict vel = velocity.data();
  const double momentum = config.momentum;
  const double weight_decay = config.weight_decay;
  for (std::size_t j = 0; j < params.size(); ++j) {
    double grad = g[j];
    if constexpr (kWeightDecay) grad = g[j] + weight_decay * w[j];
    vel[j] = momentum * vel[j] + grad;
    w[j] -= lr * vel[j];
  }
}

struct AdamCoefficients {
  double lr, b1, b2, bc1, bc2;
};

template <bool kWeightDecay>
void adam_update(std::span<double> params, std::span<const double> grads,
                 std::vector<double>& first, std::vector<double>& second,
                 const AdamCoefficients& c, double weight_decay) {
  constexpr double kEps = 1e-8;
  double* __restrict w = params.data();
  const double* __restrict g = grads.data();
  double* __restrict m = first.data();
  double* __restrict v = second.data();
  for (std::size_t j = 0; j < params.size(); ++j) {
    double grad = g[j];
    if constexpr (kWeightDecay) grad = g[j] + weight_decay * w[j];
    m[j] = c.b1 * m[j] + (1.0 - c.b1) * grad;
    v[j] = c.b2 * v[j] + (1.0 - c.b2) * grad * grad;
    w[j] -= c.lr * (m[j] / c.bc1) / (std::sqrt(v[j] / c.bc2) + kEps);
  }
}

}  // namespace

void SgdOptimizer::step(Mlp& model, const Gradients& g) {
  const std::size_t L = model.num_layers();
  ensure_state(weight_velocity_, L, model.weights());
  ensure_bias_state(bias_velocity_, L, model.biases());
  const double lr = current_lr();
  for (std::size_t i = 0; i < L; ++i) {
    if (!model.layer_trainable(i)) continue;
    sgd_update<true>(model.weights()[i].data(), g.weights[i].data(),
                     weight_velocity_[i], config_, lr);
    sgd_update<false>(model.biases()[i], g.biases[i], bias_velocity_[i],
                      config_, lr);
  }
}

OptimizerState SgdOptimizer::save_state() const {
  OptimizerState s;
  s.buffers = weight_velocity_;
  s.buffers.insert(s.buffers.end(), bias_velocity_.begin(),
                   bias_velocity_.end());
  s.lr_scale = lr_scale_;
  s.step_count = 0;
  return s;
}

void SgdOptimizer::load_state(const OptimizerState& state) {
  const std::size_t half = state.buffers.size() / 2;
  weight_velocity_.assign(state.buffers.begin(), state.buffers.begin() + half);
  bias_velocity_.assign(state.buffers.begin() + half, state.buffers.end());
  lr_scale_ = state.lr_scale;
}

void AdamOptimizer::step(Mlp& model, const Gradients& g) {
  const std::size_t L = model.num_layers();
  ensure_state(m_w_, L, model.weights());
  ensure_state(v_w_, L, model.weights());
  ensure_bias_state(m_b_, L, model.biases());
  ensure_bias_state(v_b_, L, model.biases());
  ++t_;
  const double b1 = config_.adam_beta1;
  const double b2 = config_.adam_beta2;
  const AdamCoefficients c{current_lr(), b1, b2,
                           1.0 - std::pow(b1, static_cast<double>(t_)),
                           1.0 - std::pow(b2, static_cast<double>(t_))};
  for (std::size_t i = 0; i < L; ++i) {
    if (!model.layer_trainable(i)) continue;
    adam_update<true>(model.weights()[i].data(), g.weights[i].data(), m_w_[i],
                      v_w_[i], c, config_.weight_decay);
    adam_update<false>(model.biases()[i], g.biases[i], m_b_[i], v_b_[i], c,
                       0.0);
  }
}

OptimizerState AdamOptimizer::save_state() const {
  OptimizerState s;
  for (const auto* bank : {&m_w_, &v_w_, &m_b_, &v_b_}) {
    s.buffers.insert(s.buffers.end(), bank->begin(), bank->end());
  }
  s.lr_scale = lr_scale_;
  s.step_count = t_;
  return s;
}

void AdamOptimizer::load_state(const OptimizerState& state) {
  const std::size_t quarter = state.buffers.size() / 4;
  auto it = state.buffers.begin();
  m_w_.assign(it, it + quarter);
  it += quarter;
  v_w_.assign(it, it + quarter);
  it += quarter;
  m_b_.assign(it, it + quarter);
  it += quarter;
  v_b_.assign(it, state.buffers.end());
  lr_scale_ = state.lr_scale;
  t_ = state.step_count;
}

}  // namespace varbench::ml
