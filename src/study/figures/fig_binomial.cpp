// Fig. 2 — error due to data sampling: bootstrap-measured accuracy spread
// per task vs the binomial model √(p(1−p)/n'). Raw rows are one bootstrap
// replicate each (per-index streams → shardable); the analytic theory
// table is derived at summary time.
#include "src/casestudies/calibration.h"
#include "src/casestudies/registry.h"
#include "src/core/pipeline.h"
#include "src/rngx/variation.h"
#include "src/stats/descriptive.h"
#include "src/stats/distributions.h"
#include "src/study/figures/figures_common.h"

namespace varbench::study::figures {

ResultTable run_fig02(const StudySpec& spec) {
  ResultTable t;
  t.columns = {"seq", "task", "rep", "test_size", "measure"};
  GroupSeq gs;
  for (const auto& task : resolve_tasks(spec)) {
    const auto cs = casestudies::make_case_study(task, spec.scale);
    const auto defaults = cs.pipeline->default_params();
    struct Point {
      std::size_t test_size = 0;
      double measure = 0.0;
    };
    const auto slice = slice_of(spec, spec.repetitions);
    const auto points = exec::parallel_replicate_range<Point>(
        exec_of(spec), slice, rngx::derive_seed(spec.seed, task), "fig02_rep",
        [&](std::size_t, rngx::Rng& rng) {
          const rngx::VariationSeeds base;
          const auto seeds =
              base.with_randomized(rngx::VariationSource::kDataSplit, rng);
          auto split_rng = seeds.rng_for(rngx::VariationSource::kDataSplit);
          const auto split = cs.splitter->split(*cs.pool, split_rng);
          const auto [train, test] = core::materialize(*cs.pool, split);
          return Point{split.test.size(),
                       core::fit(*cs.pipeline, train, test, defaults, seeds)};
        });
    const std::size_t start = gs.enter(spec.repetitions);
    for (std::size_t j = 0; j < points.size(); ++j) {
      const std::size_t rep = slice.begin + j;
      t.add_row({Cell{gs.seq(start, rep)}, Cell{task}, Cell{rep},
                 Cell{points[j].test_size}, Cell{points[j].measure}});
    }
  }
  return t;
}

void summarize_fig02(const ResultTable& t, std::FILE* out) {
  std::fprintf(out, "theory: binomial std vs test-set size\n");
  std::fprintf(out, "  %-10s", "n'");
  for (const double acc : {0.66, 0.91, 0.95}) {
    std::fprintf(out, "  Binom(n,%.2f)", acc);
  }
  std::fprintf(out, "\n");
  for (const double n : {1e2, 1e3, 1e4, 1e5, 1e6}) {
    std::fprintf(out, "  %-10.0f", n);
    for (const double acc : {0.66, 0.91, 0.95}) {
      std::fprintf(out, "  %11.4f%%",
                   100.0 * stats::binomial_accuracy_std(acc, n));
    }
    std::fprintf(out, "\n");
  }

  std::fprintf(out, "\npractice: bootstrap-measured std on the case studies\n");
  std::fprintf(out, "  %-18s %8s %10s %16s %16s\n", "task", "n'", "measure",
               "empirical std", "binomial model");
  const std::size_t task_col = t.column_index("task");
  const std::size_t size_col = t.column_index("test_size");
  const std::size_t measure_col = t.column_index("measure");
  std::vector<std::string> tasks;
  for (const Row& row : t.rows) {
    const std::string& task = row[task_col].as_string();
    if (tasks.empty() || tasks.back() != task) tasks.push_back(task);
  }
  for (const auto& task : tasks) {
    std::vector<double> measures;
    double test_size = 0.0;
    std::size_t n = 0;
    for (const Row& row : t.rows) {
      if (row[task_col].as_string() != task) continue;
      measures.push_back(row[measure_col].as_double());
      test_size += row[size_col].as_double();
      ++n;
    }
    test_size /= static_cast<double>(n);
    const double acc = stats::mean(measures);
    std::fprintf(out, "  %-18s %8.0f %9.2f%% %15.3f%% %15.3f%%\n",
                 task.c_str(), test_size, 100.0 * acc,
                 100.0 * stats::stddev(measures),
                 100.0 * stats::binomial_accuracy_std(acc, test_size));
  }

  std::fprintf(out,
               "\npaper reference points (test sizes of the original tasks)\n");
  for (const auto& c : casestudies::paper_calibrations()) {
    if (c.metric != "accuracy") continue;
    std::fprintf(out, "  %-18s n'=%-6zu binomial std = %.3f%%\n",
                 c.paper_task.c_str(), c.paper_test_size,
                 100.0 * stats::binomial_accuracy_std(
                             c.mu, static_cast<double>(c.paper_test_size)));
  }
  std::fprintf(out,
               "\nShape check vs paper: empirical bootstrap std should be "
               "within ~2x\nof the binomial prediction for every task.\n");
}

}  // namespace varbench::study::figures
