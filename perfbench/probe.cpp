// perfbench_probe: the compiled half of the end-to-end benchmark
// (perfbench/README.md).
//
//   perfbench_probe gen-compare <seed> <dir>  two paired-measure VBT1 artifacts
//   perfbench_probe gen-shards <seed> <dir>   four VBT1 shards + expected.vbt
//   perfbench_probe layers <seed> <work-dir> <repo-root>
//   perfbench_probe io <seed> <work-dir>      load, merge, encode the shards
//
// `gen-*` write the seeded inputs of the report_compare and merge_shards
// workloads through the library's public ResultTable binary save, so they
// are real VBT1 bytes. The generator is self-contained (splitmix64 and
// Irwin-Hall noise, no libm), so inputs depend on the seed and this file
// only: a change to the library's RNG streams cannot change them.
//
// `layers` and `io` time calls into each layer's public functions from
// here, on one thread, and print one JSON object of per-layer metrics. No
// tracing is added inside src/; counts come from the existing metrics
// registry.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/casestudies/registry.h"
#include "src/core/pipeline.h"
#include "src/core/splitter.h"
#include "src/exec/exec_context.h"
#include "src/hpo/hpo.h"
#include "src/io/columnar/stream_writer.h"
#include "src/io/json.h"
#include "src/math/matrix.h"
#include "src/metrics/metrics.h"
#include "src/report/artifact.h"
#include "src/report/render.h"
#include "src/report/report_spec.h"
#include "src/report/summary.h"
#include "src/rngx/rng.h"
#include "src/rngx/variation.h"
#include "src/stats/bootstrap.h"
#include "src/stats/tests.h"
#include "src/study/result_table.h"
#include "src/study/study_runner.h"
#include "src/study/study_spec.h"

namespace vb = varbench;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename Fn>
double time_s(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p * static_cast<double>(v.size()))));
  return v[rank - 1];
}

double median(const std::vector<double>& v) {
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

// ----------------------------------------------------------- generator

/// splitmix64: the whole input generator's randomness.
struct Gen {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Zero-mean noise with standard deviation `sd` (Irwin-Hall of 4
  /// uniforms): exact IEEE arithmetic, so the bytes match on every
  /// platform and compiler.
  double noise(double sd) {
    const double u = uniform() + uniform() + uniform() + uniform() - 2.0;
    return u * sd * 1.7320508075688772;  // sqrt(3): unit variance
  }
};

// report_compare: the paper's hard case. Every row (one split/seed of the
// benchmark) shifts both models by the same noise, and the two models
// have equal means, so P(A>B) sits near 0.5 and only pairing resolves it.
constexpr std::size_t kCompareRows = 20'000;

vb::study::ResultTable compare_table(const std::string& name,
                                     std::uint64_t seed,
                                     const std::vector<double>& shared,
                                     Gen& gen) {
  vb::study::ResultTable t;
  t.name = name;
  t.seed = seed;
  t.columns = {"seq", "accuracy", "loss"};
  t.rows.reserve(shared.size());
  for (std::size_t i = 0; i < shared.size(); ++i) {
    t.add_row({vb::study::Cell{i}, vb::study::Cell{0.80 + shared[i] + gen.noise(0.01)},
               vb::study::Cell{0.45 - shared[i] + gen.noise(0.02)}});
  }
  return t;
}

int gen_compare(std::uint64_t seed, const fs::path& dir) {
  fs::create_directories(dir);
  Gen gen{seed ^ 0xC0A1B2C3D4E5F607ULL};
  std::vector<double> shared(kCompareRows);
  for (double& s : shared) s = gen.noise(0.03);
  compare_table("perfbench:model_a", seed, shared, gen)
      .save((dir / "A.vbt").string(), vb::study::ArtifactFormat::kBinary);
  compare_table("perfbench:model_b", seed, shared, gen)
      .save((dir / "B.vbt").string(), vb::study::ArtifactFormat::kBinary);
  return 0;
}

// merge_shards: a variance table at scale. Shards are contiguous and
// seq-sorted, the shape study runners emit (merge takes its k-way path).
constexpr std::size_t kMergeRows = 2'000'000;
constexpr std::size_t kMergeShards = 4;
constexpr std::size_t kRepsPerSource = 200;

int gen_shards(std::uint64_t seed, const fs::path& dir) {
  static const std::vector<std::string> kSources{
      "Data (bootstrap)", "Data order",    "Data augment",
      "Weights init",     "Dropout",       "Numerical noise",
      "noisy_grid_search", "random_search", "bayes_opt"};
  fs::create_directories(dir / "shards");
  Gen gen{seed ^ 0x5EED5A4D5EED5A4DULL};
  vb::study::ResultTable shard;
  shard.name = "perfbench:variance_table";
  shard.seed = seed;
  shard.columns = {"seq",     "source",        "rep",       "seed",
                   "measure", "valid_measure", "train_loss"};
  // The merged artifact is written identity-only, so the unsharded rows
  // streamed out the same way are the expected output, byte for byte.
  vb::io::columnar::StreamWriter expected{(dir / "expected.vbt").string(),
                                          shard,
                                          /*include_provenance=*/false};
  for (std::size_t k = 0; k < kMergeShards; ++k) {
    shard.shard = vb::study::ShardSpec{k, kMergeShards};
    shard.rows.clear();
    const std::size_t end = (k + 1) * kMergeRows / kMergeShards;
    for (std::size_t i = k * kMergeRows / kMergeShards; i < end; ++i) {
      const std::size_t group = i / kRepsPerSource;
      const double measure = 0.8 + gen.noise(0.02);
      shard.add_row({vb::study::Cell{i},
                     vb::study::Cell{kSources[group % kSources.size()]},
                     vb::study::Cell{i % kRepsPerSource},
                     vb::study::Cell{gen.next()}, vb::study::Cell{measure},
                     vb::study::Cell{measure + gen.noise(0.01)},
                     vb::study::Cell{0.3 + gen.noise(0.05)}});
      expected.append(shard.rows.back());
    }
    shard.save(
        (dir / "shards" / ("shard-" + std::to_string(k) + ".vbt")).string(),
        vb::study::ArtifactFormat::kBinary);
  }
  expected.finish();
  return 0;
}

// ------------------------------------------------------------- layers

/// Decorator that times every fit the wrapped pipeline makes, so the
/// acquisition cost of HPO is measured rather than estimated.
class TimedPipeline final : public vb::core::LearningPipeline {
 public:
  explicit TimedPipeline(const vb::core::LearningPipeline& inner)
      : inner_{inner} {}

  double train_and_evaluate(const vb::ml::Dataset& train,
                            const vb::ml::Dataset& test,
                            const vb::hpo::ParamPoint& lambda,
                            const vb::rngx::VariationSeeds& seeds) const override {
    const auto start = Clock::now();
    const double r = inner_.train_and_evaluate(train, test, lambda, seeds);
    fit_s += seconds_since(start);
    return r;
  }
  const vb::hpo::SearchSpace& search_space() const override {
    return inner_.search_space();
  }
  vb::hpo::ParamPoint default_params() const override {
    return inner_.default_params();
  }
  std::string_view name() const override { return inner_.name(); }
  vb::ml::Metric metric() const override { return inner_.metric(); }

  mutable double fit_s = 0.0;

 private:
  const vb::core::LearningPipeline& inner_;
};

class Metrics {
 public:
  void set(const std::string& name, double value) {
    doc_.set(name, vb::io::Json{value});
  }
  void set_count(const std::string& name, std::uint64_t value) {
    doc_.set(name, vb::io::Json{value});
  }
  [[nodiscard]] std::string dump() const { return doc_.dump(); }

 private:
  vb::io::Json doc_ = vb::io::Json::object();
};

std::uint64_t metric_sum(const vb::metrics::Snapshot& snap,
                         vb::metrics::MetricId id) {
  const vb::metrics::MetricSnapshot* m = snap.find(id);
  return m == nullptr ? 0 : m->sum;
}

/// Resident set size of this process, from /proc/self/status.
double rss_mb() {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// The campaign's fig01 shard 0/4 task spec, built the way `varbench
/// campaign --shards 4 --set seed=<seed>` builds it.
vb::study::StudySpec fig01_shard0_spec(std::uint64_t seed,
                                       const fs::path& repo) {
  const vb::io::Json specs = vb::io::Json::parse(
      vb::io::read_file((repo / "examples" / "paper_figures.json").string()));
  vb::io::Json doc = specs.as_array().at(0);
  vb::study::apply_override(doc, "seed=" + std::to_string(seed));
  const auto tasks =
      vb::campaign::plan_tasks({vb::study::StudySpec::from_json(doc)}, 4);
  return tasks.at(0).spec;
}

void probe_study(const vb::study::StudySpec& spec, Metrics& out) {
  out.set("study.fig01_shard0_s",
          time_s([&] { (void)vb::study::run_study(spec); }));
  // Counts come from a second, instrumented run so the timing above pays
  // no metrics cost.
  vb::metrics::Sink& sink = vb::metrics::global_sink();
  vb::metrics::enable_selection(sink, "all");
  sink.reset();
  (void)vb::study::run_study(spec);
  const vb::metrics::Snapshot snap = sink.snapshot();
  sink.disable_all();
  sink.reset();
  out.set_count("rngx.draws", metric_sum(snap, vb::metrics::kRngxDraws));
  out.set_count("exec.parallel_regions",
                metric_sum(snap, vb::metrics::kExecRegions));
  const vb::metrics::MetricSnapshot* wait =
      snap.find(vb::metrics::kExecQueueWaitNs);
  out.set("exec.queue_wait_ms.p90",
          wait == nullptr ? 0.0
                          : static_cast<double>(wait->percentile_upper(0.90)) /
                                1e6);
}

/// GEMM shapes of one MLP layer: batch rows, layer inputs, layer outputs.
struct LayerShape {
  std::size_t batch, in, out;
  bool trainable;
  bool first;
};

std::vector<LayerShape> layer_shapes(const vb::casestudies::CaseStudy& cs) {
  const vb::ml::TrainConfig cfg =
      cs.pipeline->resolve_config(cs.pipeline->default_params());
  // Unset (0) input/output widths come from the data, as in train_mlp.
  std::vector<std::size_t> dims{
      cfg.model.input_dim != 0 ? cfg.model.input_dim : cs.pool->dim()};
  dims.insert(dims.end(), cfg.model.hidden.begin(), cfg.model.hidden.end());
  dims.push_back(cfg.model.output_dim != 0 ? cfg.model.output_dim
                 : cs.pool->kind == vb::ml::TaskKind::kClassification
                     ? cs.pool->num_classes
                     : 1);
  std::vector<LayerShape> shapes;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    shapes.push_back({cfg.batch_size, dims[i], dims[i + 1],
                      !(cfg.model.freeze_first_layer && i == 0), i == 0});
  }
  return shapes;
}

/// GEMM flops of one default-hyperparameter fit, computed from the layer
/// shapes (not counted): per training row, the forward matmul_nt of every
/// layer, matmul_tn for every trainable layer and the backward matmul of
/// every layer but the first; then one forward pass over the test rows.
double gemm_flops_per_fit(const vb::casestudies::CaseStudy& cs,
                          std::size_t train_rows, std::size_t test_rows) {
  const vb::ml::TrainConfig cfg =
      cs.pipeline->resolve_config(cs.pipeline->default_params());
  double forward = 0.0;
  double train = 0.0;
  for (const LayerShape& l : layer_shapes(cs)) {
    const double f = 2.0 * static_cast<double>(l.in * l.out);
    forward += f;
    train += f + (l.trainable ? f : 0.0) + (l.first ? 0.0 : f);
  }
  return static_cast<double>(cfg.epochs * train_rows) * train +
         static_cast<double>(test_rows) * forward;
}

vb::math::Matrix filled(std::size_t rows, std::size_t cols, Gen& gen) {
  vb::math::Matrix m{rows, cols};
  for (double& v : m.data()) v = gen.uniform() - 0.5;
  return m;
}

/// One GEMM call's operands and its flop count.
struct GemmShape {
  vb::math::Matrix a, b;
  double flops;
};

/// Keeps GEMM products observable, so no optimizer may drop the calls.
volatile double g_gemm_sink = 0.0;

/// Sustained GFLOP/s of one GEMM kind over `shapes`, cycled until at least
/// `budget_s` has elapsed.
double gemm_gflops(const std::vector<GemmShape>& shapes,
                   vb::math::Matrix (*gemm)(const vb::math::Matrix&,
                                            const vb::math::Matrix&),
                   double budget_s) {
  double flops = 0.0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < budget_s) {
    for (const GemmShape& s : shapes) {
      g_gemm_sink = gemm(s.a, s.b).data()[0];
      flops += s.flops;
    }
    elapsed = seconds_since(start);
  }
  return flops / elapsed / 1e9;
}

void probe_training(std::uint64_t seed, double scale, Metrics& out) {
  // Fits per case study for ml.fit_ms: enough samples that p90 has ten
  // beyond it across the five case studies.
  constexpr std::size_t kFitsPerCase = 24;
  // The case study of the core/hpo probes: the paper's image classifier.
  const std::string kCoreCase = "cifar10_vgg11";
  std::vector<double> fit_ms;
  std::vector<GemmShape> nt, tn, nn;
  Gen gen{seed ^ 0x6E6D6D6D6E6D6D6DULL};
  for (const std::string& id : vb::casestudies::case_study_ids()) {
    const auto cs = vb::casestudies::make_case_study(id, scale);
    vb::rngx::Rng master{vb::rngx::derive_seed(seed, "perfbench:" + id)};
    const auto defaults = cs.pipeline->default_params();
    for (std::size_t k = 0; k < kFitsPerCase; ++k) {
      const auto seeds = vb::rngx::VariationSeeds::random(master);
      auto split_rng = seeds.rng_for(vb::rngx::VariationSource::kDataSplit);
      const auto [train, test] =
          vb::core::materialize(*cs.pool, cs.splitter->split(*cs.pool, split_rng));
      const double ms = 1e3 * time_s([&] {
        (void)cs.pipeline->train_and_evaluate(train, test, defaults, seeds);
      });
      fit_ms.push_back(ms);
      if (id == kCoreCase && k == 0) {
        out.set("math.gemm_flops_per_fit",
                gemm_flops_per_fit(cs, train.size(), test.size()));
      }
    }
    for (const LayerShape& l : layer_shapes(cs)) {
      const double f = 2.0 * static_cast<double>(l.batch * l.in * l.out);
      nt.push_back({filled(l.batch, l.in, gen), filled(l.out, l.in, gen), f});
      if (l.trainable) {
        tn.push_back({filled(l.batch, l.out, gen), filled(l.batch, l.in, gen), f});
      }
      if (!l.first) {
        nn.push_back({filled(l.batch, l.out, gen), filled(l.out, l.in, gen), f});
      }
    }
  }
  out.set("ml.fit_ms.p50", percentile(fit_ms, 0.50));
  out.set("ml.fit_ms.p90", percentile(fit_ms, 0.90));
  out.set_count("ml.fit_samples", fit_ms.size());

  out.set("math.gemm_gflops.matmul", gemm_gflops(nn, vb::math::matmul, 0.3));
  out.set("math.gemm_gflops.matmul_nt",
          gemm_gflops(nt, vb::math::matmul_nt, 0.3));
  out.set("math.gemm_gflops.matmul_tn",
          gemm_gflops(tn, vb::math::matmul_tn, 0.3));

  // fig01's HPO at its default budget, with bayes_opt: of fig01's three
  // algorithms, the one whose acquisition has a cost of its own.
  constexpr std::size_t kCoreReps = 3;
  const auto cs = vb::casestudies::make_case_study(kCoreCase, scale);
  const auto algorithm = vb::hpo::make_hpo_algorithm("bayes_opt");
  vb::core::HpoRunConfig cfg;
  cfg.algorithm = algorithm.get();
  cfg.budget = 12;
  vb::rngx::Rng master{vb::rngx::derive_seed(seed, "perfbench:core")};
  std::vector<double> once_ms, hpo_ms, non_fit_ms;
  std::size_t fits = 0;
  for (std::size_t r = 0; r < kCoreReps; ++r) {
    const auto seeds = vb::rngx::VariationSeeds::random(master);
    vb::core::FitCounter counter;
    once_ms.push_back(1e3 * time_s([&] {
      (void)vb::core::run_pipeline_once(*cs.pipeline, *cs.pool, *cs.splitter,
                                        cfg, seeds, &counter);
    }));
    fits = counter.fits.load();
    auto split_rng = seeds.rng_for(vb::rngx::VariationSource::kDataSplit);
    const auto [trainvalid, test] =
        vb::core::materialize(*cs.pool, cs.splitter->split(*cs.pool, split_rng));
    const TimedPipeline timed{*cs.pipeline};
    const double ms = 1e3 * time_s([&] {
      (void)vb::core::run_hpo(timed, trainvalid, cfg, seeds);
    });
    hpo_ms.push_back(ms);
    non_fit_ms.push_back(ms - 1e3 * timed.fit_s);
  }
  out.set("core.pipeline_once_ms", median(once_ms));
  out.set_count("core.fits_per_pipeline", fits);
  out.set("hpo.run_hpo_ms", median(hpo_ms));
  out.set("hpo.non_fit_ms", median(non_fit_ms));
}

void probe_stats(std::uint64_t seed, const fs::path& work, Metrics& out) {
  const auto a = vb::study::ResultTable::load((work / "A.vbt").string());
  const auto b = vb::study::ResultTable::load((work / "B.vbt").string());
  const std::vector<double> a_acc = a.column_values("accuracy");
  const std::vector<double> b_acc = b.column_values("accuracy");
  const vb::exec::ExecContext ctx{1};
  constexpr std::size_t kResamples = 1000;
  constexpr std::size_t kPermutations = 10'000;
  vb::metrics::Sink& sink = vb::metrics::global_sink();
  vb::metrics::enable_selection(sink, "stats.resamples");
  sink.reset();
  vb::rngx::Rng rng{vb::rngx::derive_seed(seed, "perfbench:stats")};
  const double bca = time_s([&] {
    (void)vb::stats::bca_bootstrap_ci(ctx, a_acc, vb::stats::ResampleStat::kMean,
                                      rng, kResamples);
  });
  const double paired = time_s([&] {
    (void)vb::stats::paired_percentile_bootstrap_ci(
        ctx, a_acc, b_acc, vb::stats::PairedResampleStat::kWinRate, rng,
        kResamples);
  });
  const double perm = time_s([&] {
    (void)vb::stats::paired_permutation_test(ctx, a_acc, b_acc, rng, kPermutations);
  });
  const std::uint64_t resamples =
      metric_sum(sink.snapshot(), vb::metrics::kStatsResamples);
  sink.disable_all();
  sink.reset();
  out.set("stats.bca_ci_s", bca);
  out.set("stats.paired_bootstrap_s", paired);
  out.set("stats.permutation_s", perm);
  out.set_count("stats.resamples", resamples);
  out.set("stats.ns_per_resample_elem",
          1e9 * (bca + paired + perm) /
              (static_cast<double>(resamples) * static_cast<double>(a_acc.size())));
}

void probe_report(const fs::path& work, Metrics& out) {
  const vb::exec::ExecContext ctx{1};
  vb::report::LoadedArtifact a, b;
  out.set("report.load_ms", 1e3 * time_s([&] {
            a = vb::report::load_artifact((work / "A.vbt").string());
            b = vb::report::load_artifact((work / "B.vbt").string());
          }));
  vb::report::Report report;
  out.set("report.summarize_s", time_s([&] {
            report = vb::report::summarize_compare(ctx, a, b,
                                                   vb::report::ReportSpec{});
          }));
  std::string rendered;
  out.set("report.render_ms", 1e3 * time_s([&] {
            rendered = vb::report::render(report, vb::report::Format::kText);
          }));
  // run.py compares these bytes with the CLI's report of the same inputs.
  vb::io::write_file((work / "probe_report.txt").string(), rendered);
}

void probe_io(const fs::path& work, Metrics& out) {
  std::vector<vb::study::ResultTable> shards;
  std::uintmax_t bytes_in = 0;
  double load_s = 0.0;
  for (std::size_t k = 0; k < kMergeShards; ++k) {
    const fs::path p = work / "shards" / ("shard-" + std::to_string(k) + ".vbt");
    bytes_in += fs::file_size(p);
    load_s += time_s(
        [&] { shards.push_back(vb::study::ResultTable::load(p.string())); });
  }
  out.set("io.load_s", load_s);
  out.set("io.rss_after_load_mb", rss_mb());
  vb::study::ResultTable merged;
  out.set("io.merge_s", time_s([&] {
            merged = vb::study::merge_result_tables(std::move(shards));
          }));
  const fs::path merged_path = work / "probe_merged.vbt";
  out.set("io.encode_s", time_s([&] {
            merged.save(merged_path.string(),
                        vb::study::ArtifactFormat::kBinary,
                        /*include_provenance=*/false);
          }));
  out.set_count("io.bytes_in", bytes_in);
  out.set_count("io.bytes_out", fs::file_size(merged_path));
}

int layers(std::uint64_t seed, const fs::path& work, const fs::path& repo) {
  Metrics out;
  const vb::study::StudySpec spec = fig01_shard0_spec(seed, repo);
  probe_study(spec, out);
  probe_training(seed, spec.scale, out);
  probe_stats(seed, work, out);
  probe_report(work, out);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

/// The io layer in a process of its own, so io.rss_after_load_mb holds the
/// loaded shards and not what the other layers' probes left on the heap.
int io_layer(const fs::path& work) {
  Metrics out;
  probe_io(work, out);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_probe gen-compare <seed> <dir>\n"
               "       perfbench_probe gen-shards <seed> <dir>\n"
               "       perfbench_probe layers <seed> <work-dir> <repo-root>\n"
               "       perfbench_probe io <seed> <work-dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string cmd = argv[1];
  try {
    const std::uint64_t seed = std::stoull(argv[2]);
    if (cmd == "gen-compare" && argc == 4) return gen_compare(seed, argv[3]);
    if (cmd == "gen-shards" && argc == 4) return gen_shards(seed, argv[3]);
    if (cmd == "layers" && argc == 5) return layers(seed, argv[3], argv[4]);
    if (cmd == "io" && argc == 4) return io_layer(argv[3]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 1;
  }
  return usage();
}
