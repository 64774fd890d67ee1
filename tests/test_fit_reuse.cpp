// Fit reuse: a study may fill a measure from an earlier fit only when the
// fit is pure and the inputs that differ are streams it never reads. These
// tests pin the per-pipeline reuse query, and pin the variance study and
// multi_dataset bit for bit against reference loops that train every fit.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/casestudies/registry.h"
#include "src/core/pipeline.h"
#include "src/core/variance_study.h"
#include "src/exec/parallel_replicate.h"
#include "src/metrics/metrics.h"
#include "src/rngx/variation.h"
#include "src/study/figures/figures.h"
#include "src/study/study_runner.h"

namespace varbench {
namespace {

using rngx::VariationSource;

constexpr double kScale = 0.05;

/// Enables the core counters on the global sink for one test, and puts
/// the sink back to its all-disabled default afterwards.
class CoreCounters {
 public:
  CoreCounters() {
    metrics::global_sink().reset();
    metrics::enable_selection(metrics::global_sink(), "core");
  }
  ~CoreCounters() {
    metrics::global_sink().disable_all();
    metrics::global_sink().reset();
  }
  CoreCounters(const CoreCounters&) = delete;
  CoreCounters& operator=(const CoreCounters&) = delete;

  [[nodiscard]] static std::uint64_t total(metrics::MetricId id) {
    const metrics::Snapshot snap = metrics::global_sink().snapshot();
    const metrics::MetricSnapshot* m = snap.find(id);
    return m == nullptr ? 0 : m->sum;
  }
};

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " [" << i << "]: " << got[i] << " vs " << want[i];
  }
}

// ------------------------------------------------------------ the query

class ConstantPipeline final : public core::LearningPipeline {
 public:
  double train_and_evaluate(const ml::Dataset&, const ml::Dataset&,
                            const hpo::ParamPoint&,
                            const rngx::VariationSeeds&) const override {
    return 0.5;
  }
  const hpo::SearchSpace& search_space() const override { return space_; }
  hpo::ParamPoint default_params() const override { return {}; }
  std::string_view name() const override { return "constant"; }
  ml::Metric metric() const override { return ml::Metric::kAccuracy; }

 private:
  hpo::SearchSpace space_;
};

TEST(FitDependence, DefaultIsConservative) {
  const ConstantPipeline pipeline;
  const core::FitDependence dep = pipeline.fit_dependence({});
  EXPECT_FALSE(dep.pure);
  for (const auto source : rngx::kAllVariationSources) {
    EXPECT_TRUE(dep.reads(source)) << rngx::to_string(source);
    EXPECT_FALSE(dep.ignores(source)) << rngx::to_string(source);
  }
}

core::FitDependence dependence_of(const std::string& task) {
  const auto cs = casestudies::make_case_study(task, kScale);
  return cs.pipeline->fit_dependence(cs.pipeline->default_params());
}

TEST(FitDependence, PerCaseStudy) {
  struct Want {
    std::string task;
    bool pure;
    bool augment;
    bool dropout;
  };
  const Want wants[] = {
      {"cifar10_vgg11", true, true, false},
      {"glue_sst2_bert", true, false, true},
      {"glue_rte_bert", true, false, true},
      {"mhc_mlp", true, false, false},
  };
  for (const Want& w : wants) {
    const core::FitDependence dep = dependence_of(w.task);
    EXPECT_EQ(dep.pure, w.pure) << w.task;
    EXPECT_EQ(dep.reads(VariationSource::kDataAugment), w.augment) << w.task;
    EXPECT_EQ(dep.reads(VariationSource::kDropout), w.dropout) << w.task;
    EXPECT_TRUE(dep.reads(VariationSource::kDataOrder)) << w.task;
    EXPECT_TRUE(dep.reads(VariationSource::kWeightInit)) << w.task;
    // The split happens outside the fit, and there is no numerical stream.
    EXPECT_FALSE(dep.reads(VariationSource::kDataSplit)) << w.task;
    EXPECT_FALSE(dep.reads(VariationSource::kNumerical)) << w.task;
  }
  // pascalvoc's numerical noise comes from a process-global counter: no
  // stream is ignorable, so none of its fits may be skipped.
  const core::FitDependence voc = dependence_of("pascalvoc_fcn");
  EXPECT_FALSE(voc.pure);
  for (const auto source : rngx::kAllVariationSources) {
    EXPECT_FALSE(voc.ignores(source)) << rngx::to_string(source);
  }
}

// ------------------------------------------------------ variance study

struct Probe {
  VariationSource source;
  std::string_view tag;
};

/// Every probe of run_variance_study with include_numerical_noise, in its
/// order, with its replicate tag.
std::vector<Probe> variance_probes() {
  std::vector<Probe> probes;
  for (const auto source :
       {VariationSource::kDataSplit, VariationSource::kDataAugment,
        VariationSource::kDataOrder, VariationSource::kWeightInit,
        VariationSource::kDropout}) {
    probes.push_back({source, rngx::to_string(source)});
  }
  probes.push_back({VariationSource::kNumerical, "numerical_noise"});
  return probes;
}

/// The variance study with every repetition trained: one measure_with_params
/// call per repetition, on the study's master seed and replicate tags.
std::vector<std::vector<double>> reference_variance(
    const casestudies::CaseStudy& cs, std::uint64_t seed, std::size_t reps) {
  rngx::Rng master{seed};
  const rngx::VariationSeeds base;
  const hpo::ParamPoint defaults = cs.pipeline->default_params();
  std::vector<std::vector<double>> rows;
  for (const Probe& probe : variance_probes()) {
    rows.push_back(exec::parallel_replicate<double>(
        exec::ExecContext::serial(), reps, master, probe.tag,
        [&](std::size_t, rngx::Rng& rng) {
          const auto seeds = probe.source == VariationSource::kNumerical
                                 ? base
                                 : base.with_randomized(probe.source, rng);
          return core::measure_with_params(*cs.pipeline, *cs.pool,
                                           *cs.splitter, defaults, seeds);
        }));
  }
  return rows;
}

/// run_variance_study split into `shards` shards at `threads` threads, each
/// row's shard slices concatenated back in order.
std::vector<std::vector<double>> sharded_variance(
    const casestudies::CaseStudy& cs, std::uint64_t seed, std::size_t reps,
    std::size_t shards, std::size_t threads) {
  const auto probes = variance_probes();
  std::vector<std::vector<double>> rows(probes.size());
  for (std::size_t i = 0; i < shards; ++i) {
    core::VarianceStudyConfig cfg;
    cfg.repetitions = reps;
    cfg.include_numerical_noise = true;
    cfg.exec = exec::ExecContext{threads};
    cfg.shard_index = i;
    cfg.shard_count = shards;
    rngx::Rng master{seed};
    const auto result = core::run_variance_study(*cs.pipeline, *cs.pool,
                                                 *cs.splitter, cfg, master);
    EXPECT_EQ(result.rows.size(), probes.size());
    for (std::size_t r = 0; r < result.rows.size() && r < probes.size(); ++r) {
      EXPECT_EQ(result.rows[r].source, probes[r].source);
      rows[r].insert(rows[r].end(), result.rows[r].measures.begin(),
                     result.rows[r].measures.end());
    }
  }
  return rows;
}

TEST(FitReuse, VarianceStudyMatchesTrainingEveryRepetition) {
  constexpr std::size_t kReps = 4;
  constexpr std::uint64_t kSeed = 20261019;
  for (const std::string task : {"cifar10_vgg11", "glue_rte_bert", "mhc_mlp"}) {
    const auto cs = casestudies::make_case_study(task, kScale);
    const auto want = reference_variance(cs, kSeed, kReps);
    for (const std::size_t shards : {1, 3}) {
      for (const std::size_t threads : {1, 4}) {
        const CoreCounters counters;
        const auto got = sharded_variance(cs, kSeed, kReps, shards, threads);
        ASSERT_EQ(got.size(), want.size());
        const std::string where = task + " shards=" + std::to_string(shards) +
                                  " threads=" + std::to_string(threads);
        for (std::size_t r = 0; r < want.size(); ++r) {
          expect_same_bits(got[r], want[r],
                           where + " " +
                               std::string{rngx::to_string(
                                   variance_probes()[r].source)});
        }
        // The reuse path ran: every one of these pipelines is pure and
        // ignores at least one probed stream.
        EXPECT_GT(CoreCounters::total(metrics::kCoreFitsReused), 0u) << where;
      }
    }
  }
}

TEST(FitReuse, PascalVocFitsAreNeverReused) {
  // Skipping a pascalvoc fit would shift the process-global numerical
  // noise counter for every later fit.
  constexpr std::size_t kReps = 3;
  const auto cs = casestudies::make_case_study("pascalvoc_fcn", kScale);
  const CoreCounters counters;
  core::VarianceStudyConfig cfg;
  cfg.repetitions = kReps;
  cfg.include_numerical_noise = true;
  rngx::Rng master{7};
  const auto result = core::run_variance_study(*cs.pipeline, *cs.pool,
                                               *cs.splitter, cfg, master);
  EXPECT_EQ(result.rows.size(), variance_probes().size());
  EXPECT_EQ(CoreCounters::total(metrics::kCoreFitsReused), 0u);
  EXPECT_EQ(CoreCounters::total(metrics::kCoreFits),
            kReps * variance_probes().size());
}

// ------------------------------------------------------- multi_dataset

TEST(FitReuse, MultiDatasetMhcRowsMatchTrainingEveryVariant) {
  constexpr std::size_t kReps = 4;
  const std::string task = "mhc_mlp";
  study::StudySpec spec =
      study::figures::default_figure_spec(study::StudyKind::kMultiDataset);
  spec.scale = kScale;
  spec.seed = 20261019;
  spec.repetitions = kReps;
  spec.figure.tasks = {task};

  // mhc has no learning_rate, so all three variants train the same fit.
  const auto cs = casestudies::make_case_study(task, kScale);
  const hpo::ParamPoint params = cs.pipeline->default_params();
  ASSERT_EQ(params.count("learning_rate"), 0u);
  const auto runs = exec::parallel_replicate<std::array<double, 3>>(
      exec::ExecContext::serial(), kReps, rngx::derive_seed(spec.seed, task),
      "multi_dataset_run", [&](std::size_t, rngx::Rng& rng) {
        const auto seeds = rngx::VariationSeeds::random(rng);
        std::array<double, 3> out{};
        for (double& measure : out) {
          measure = core::measure_with_params(*cs.pipeline, *cs.pool,
                                              *cs.splitter, params, seeds);
        }
        return out;
      });
  std::vector<double> want;
  for (const auto& run : runs) want.insert(want.end(), run.begin(), run.end());

  for (const std::size_t shards : {1, 3}) {
    for (const std::size_t threads : {1, 4}) {
      const CoreCounters counters;
      std::vector<double> got;
      for (std::size_t i = 0; i < shards; ++i) {
        study::StudySpec shard_spec = spec;
        shard_spec.shard = study::ShardSpec{i, shards};
        shard_spec.threads = threads;
        const study::ResultTable t = study::run_study(shard_spec);
        const std::size_t measure_col = t.column_index("measure");
        for (const study::Row& row : t.rows) {
          got.push_back(row[measure_col].as_double());
        }
      }
      const std::string where = "shards=" + std::to_string(shards) +
                                " threads=" + std::to_string(threads);
      expect_same_bits(got, want, where);
      // Two of every three measures came from the first variant's fit.
      EXPECT_EQ(CoreCounters::total(metrics::kCoreFitsReused), 2 * kReps)
          << where;
    }
  }
}

}  // namespace
}  // namespace varbench
