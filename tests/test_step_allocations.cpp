// A training step reuses its buffers: once the first epoch has sized them,
// further epochs allocate nothing — not in the batch gather, augmentation,
// forward pass, loss, backward pass, GEMM packing or optimizer update.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/ml/synthetic.h"
#include "src/ml/trainer.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Counting replacements of the global allocation functions. Every other
// form of operator new/delete forwards to these.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace varbench::ml {
namespace {

Dataset data(std::size_t classes) {
  GaussianMixtureConfig cfg;
  cfg.num_classes = classes;
  cfg.dim = 12;
  cfg.n = 203;  // not a multiple of the batch size: a ragged last batch
  rngx::Rng rng{5};
  return make_gaussian_mixture(cfg, rng);
}

/// Allocations made by one epoch after the first.
std::size_t steady_epoch_allocations(const Dataset& d, const TrainConfig& cfg) {
  Trainer t{d, cfg, rngx::VariationSeeds{}};
  t.run_epoch();
  const std::size_t before = g_allocations.load();
  t.run_epoch();
  return g_allocations.load() - before;
}

TrainConfig base_config() {
  TrainConfig cfg;
  cfg.model.hidden = {20, 9};
  cfg.model.dropout = 0.2;
  cfg.augment.jitter_std = 0.1;
  cfg.augment.mask_prob = 0.1;
  cfg.opt.momentum = 0.9;
  cfg.opt.weight_decay = 1e-4;
  cfg.epochs = 3;
  cfg.batch_size = 16;
  return cfg;
}

TEST(StepAllocations, SgdClassifierStepsAllocateNothing) {
  EXPECT_EQ(steady_epoch_allocations(data(10), base_config()), 0u);
}

TEST(StepAllocations, AdamFrozenFirstLayerStepsAllocateNothing) {
  auto cfg = base_config();
  cfg.optimizer = OptimizerKind::kAdam;
  cfg.model.freeze_first_layer = true;
  EXPECT_EQ(steady_epoch_allocations(data(2), cfg), 0u);
}

TEST(StepAllocations, MseRegressionStepsAllocateNothing) {
  RegressionTeacherConfig rcfg;
  rcfg.dim = 12;
  rcfg.n = 203;
  rngx::Rng rng{6};
  const Dataset d = make_regression_teacher(rcfg, rng);
  auto cfg = base_config();
  cfg.loss = LossKind::kMse;
  cfg.optimizer = OptimizerKind::kAdam;
  EXPECT_EQ(steady_epoch_allocations(d, cfg), 0u);
}

}  // namespace
}  // namespace varbench::ml
