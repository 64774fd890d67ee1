#include "src/ml/repro_audit.h"

#include <sstream>

namespace varbench::ml {

bool models_identical(const Mlp& a, const Mlp& b) {
  if (a.num_layers() != b.num_layers()) return false;
  for (std::size_t i = 0; i < a.num_layers(); ++i) {
    if (!(a.weights()[i] == b.weights()[i])) return false;
    if (a.biases()[i] != b.biases()[i]) return false;
  }
  return true;
}

ReproAuditReport audit_reproducibility(const Dataset& train,
                                       const TrainConfig& config,
                                       const ReproAuditConfig& audit) {
  ReproAuditReport report;
  rngx::Rng master{0xA0D17};

  // 1. Determinism: per seed, repeated runs must agree exactly.
  for (std::size_t s = 0; s < audit.num_seeds; ++s) {
    const auto seeds = rngx::VariationSeeds::random(master);
    const Mlp reference = train_mlp(train, config, seeds);
    for (std::size_t r = 1; r < audit.num_repeats; ++r) {
      const Mlp repeat = train_mlp(train, config, seeds);
      if (!models_identical(reference, repeat)) {
        report.deterministic = false;
        std::ostringstream msg;
        msg << "non-deterministic rerun at seed set " << s << ", repeat " << r;
        report.failures.push_back(msg.str());
        break;
      }
    }
  }

  // 2. Seed sensitivity: active sources must change the model; inactive
  //    sources must NOT.
  const rngx::VariationSeeds base;
  const Mlp base_model = train_mlp(train, config, base);
  for (const auto source : rngx::kLearningSources) {
    if (source == rngx::VariationSource::kDataSplit) {
      continue;  // the split happens outside train_mlp
    }
    const auto reseeded = base.with_randomized(source, master);
    const Mlp changed = train_mlp(train, config, reseeded);
    const bool differs = !models_identical(base_model, changed);
    const bool expected = reads_stream(config, source);
    if (differs) report.sensitive_sources.push_back(source);
    if (differs != expected && report.deterministic) {
      std::ostringstream msg;
      msg << "source " << rngx::to_string(source) << ": expected "
          << (expected ? "sensitivity" : "no effect") << " but observed "
          << (differs ? "a change" : "no change");
      report.failures.push_back(msg.str());
    }
  }

  // 3. Resumability: checkpoint after every epoch boundary and resume; the
  //    final model must match an uninterrupted run (Appendix A's interrupted
  //    training protocol).
  if (config.numerical_noise_std == 0.0) {
    const auto seeds = rngx::VariationSeeds::random(master);
    Trainer straight{train, config, seeds};
    straight.run_to_completion();
    for (std::size_t stop = 1; stop < config.epochs; ++stop) {
      Trainer first_half{train, config, seeds};
      for (std::size_t e = 0; e < stop; ++e) first_half.run_epoch();
      const auto ckpt = first_half.checkpoint();
      Trainer resumed{train, config, seeds};
      resumed.restore(ckpt);
      resumed.run_to_completion();
      if (!models_identical(straight.model(), resumed.model())) {
        report.resumable = false;
        std::ostringstream msg;
        msg << "resume after epoch " << stop << " diverged from straight run";
        report.failures.push_back(msg.str());
        break;
      }
    }
  }
  return report;
}

}  // namespace varbench::ml
