// Shard/merge byte-identity for the figure study kinds, mirroring
// tests/test_study_shard.cpp: running a figure spec in N shards — each
// shard at a DIFFERENT thread count — and merging the artifacts must be
// bit-identical to the unsharded run, because every repetition/grid unit
// runs on an RNG stream keyed by its global index (docs/study_api.md).
// The summary `varbench merge` prints must not depend on whether the merge
// streamed to a file or ran in memory.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "src/study/figures/figures.h"
#include "src/study/result_table.h"
#include "src/study/study_runner.h"
#include "src/study/study_spec.h"

namespace varbench::study {
namespace {

StudySpec tiny_figure_spec(StudyKind kind) {
  StudySpec spec = figures::default_figure_spec(kind);
  spec.scale = 0.08;
  spec.seed = 20260727;
  switch (kind) {
    case StudyKind::kFig01VarianceSources:
      spec.repetitions = 4;
      spec.figure.tasks = {"cifar10_vgg11"};
      spec.figure.hpo_algorithms = {"random_search"};
      spec.figure.hpo_repetitions = 2;
      spec.figure.hpo_budget = 2;
      break;
    case StudyKind::kFig06DetectionRates:
      spec.repetitions = 3;
      spec.figure.tasks = {"cifar10_vgg11", "glue_rte_bert"};
      spec.figure.k = 5;
      spec.figure.resamples = 10;
      spec.figure.p_grid = {0.5, 0.9};
      break;
    case StudyKind::kFigH5MseDecomposition:
      spec.repetitions = 6;
      spec.figure.tasks = {"glue_rte_bert"};
      spec.figure.k = 5;
      break;
    case StudyKind::kFig05EstimatorStderr:
      spec.repetitions = 4;
      spec.figure.tasks = {"cifar10_vgg11"};
      spec.figure.k_grid = {1, 5};
      break;
    case StudyKind::kFigG3Normality:
      spec.repetitions = 4;
      spec.figure.tasks = {"cifar10_vgg11"};
      break;
    case StudyKind::kMultiDataset:
      spec.repetitions = 3;
      spec.figure.tasks = {"cifar10_vgg11"};
      break;
    default:
      break;  // analytic kinds run their defaults
  }
  return spec;
}

void expect_shards_merge_to_unsharded(StudyKind kind,
                                      std::size_t shard_count,
                                      const ResultTable& unsharded) {
  const StudySpec spec = tiny_figure_spec(kind);
  std::vector<ResultTable> shards;
  for (std::size_t i = 0; i < shard_count; ++i) {
    StudySpec shard_spec = spec;
    shard_spec.shard = ShardSpec{i, shard_count};
    // Vary the thread count per shard: results must not depend on it.
    shard_spec.threads = 1 + i;
    shards.push_back(run_study(shard_spec));
    EXPECT_FALSE(shards.back().is_complete());
  }
  const ResultTable merged = merge_result_tables(std::move(shards));
  EXPECT_EQ(merged.canonical_text(), unsharded.canonical_text())
      << to_string(kind) << " " << shard_count << "-shard merge diverged";
  EXPECT_EQ(merged.rows.size(), unsharded.rows.size());
}

void expect_kind_shards_exactly(StudyKind kind) {
  const ResultTable unsharded = run_study(tiny_figure_spec(kind));
  ASSERT_TRUE(unsharded.is_complete());
  ASSERT_GT(unsharded.rows.size(), 0u);
  expect_shards_merge_to_unsharded(kind, 2, unsharded);
  expect_shards_merge_to_unsharded(kind, 3, unsharded);
}

TEST(FigureShard, Fig01TwoAndThreeShards) {
  expect_kind_shards_exactly(StudyKind::kFig01VarianceSources);
}

TEST(FigureShard, Fig06TwoAndThreeShards) {
  expect_kind_shards_exactly(StudyKind::kFig06DetectionRates);
}

TEST(FigureShard, FigH5TwoAndThreeShards) {
  expect_kind_shards_exactly(StudyKind::kFigH5MseDecomposition);
}

TEST(FigureShard, Fig05TwoAndThreeShards) {
  expect_kind_shards_exactly(StudyKind::kFig05EstimatorStderr);
}

TEST(FigureShard, FigG3TwoAndThreeShards) {
  expect_kind_shards_exactly(StudyKind::kFigG3Normality);
}

TEST(FigureShard, MultiDatasetTwoAndThreeShards) {
  expect_kind_shards_exactly(StudyKind::kMultiDataset);
}

TEST(FigureShard, AnalyticGridsShard) {
  expect_kind_shards_exactly(StudyKind::kFigC1SampleSize);
  expect_kind_shards_exactly(StudyKind::kFig04EstimatorCost);
  expect_kind_shards_exactly(StudyKind::kFig03Sota);
}

TEST(FigureShard, MoreShardsThanUnits) {
  // Slices beyond the unit count are empty and must merge cleanly.
  const StudySpec spec = tiny_figure_spec(StudyKind::kFigH5MseDecomposition);
  const ResultTable unsharded = run_study(spec);
  std::vector<ResultTable> shards;
  for (std::size_t i = 0; i < 9; ++i) {
    StudySpec shard_spec = spec;
    shard_spec.shard = ShardSpec{i, 9};
    shards.push_back(run_study(shard_spec));
  }
  const ResultTable merged = merge_result_tables(std::move(shards));
  EXPECT_EQ(merged.canonical_text(), unsharded.canonical_text());
}

TEST(FigureShard, ArtifactsSurviveSerialization) {
  // Merge after a JSON round-trip of each shard — the cross-process path
  // campaign workers take.
  const StudySpec spec = tiny_figure_spec(StudyKind::kFig06DetectionRates);
  const ResultTable unsharded = run_study(spec);
  std::vector<ResultTable> shards;
  for (std::size_t i = 0; i < 2; ++i) {
    StudySpec shard_spec = spec;
    shard_spec.shard = ShardSpec{i, 2};
    const ResultTable t = run_study(shard_spec);
    shards.push_back(ResultTable::from_json_text(t.to_json_text()));
    EXPECT_EQ(shards.back(), t);
  }
  const ResultTable merged = merge_result_tables(std::move(shards));
  EXPECT_EQ(merged.canonical_text(), unsharded.canonical_text());
}

/// Everything `print` writes to its FILE*, as a string.
template <class Print>
std::string printed(Print print) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  print(f);
  std::fclose(f);
  std::string text{buf, len};
  std::free(buf);
  return text;
}

TEST(FigureShard, MergeSummaryIsTheSameStreamedOrInMemory) {
  // `varbench merge --out x.vbt` streams, then prints a spec-less table's
  // line from the merged metadata and a spec'd table's summary from the
  // merged file read back. Without --out it prints from the in-memory
  // merge. Both must print the same text.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("varbench_merge_summary_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::create_directories(dir);
  const StudySpec spec = tiny_figure_spec(StudyKind::kFig06DetectionRates);
  for (const bool with_spec : {true, false}) {
    SCOPED_TRACE(with_spec ? "spec'd figure table" : "spec-less table");
    std::vector<ResultTable> shards;
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < 2; ++i) {
      StudySpec shard_spec = spec;
      shard_spec.shard = ShardSpec{i, 2};
      ResultTable t = run_study(shard_spec);
      if (!with_spec) t.spec.reset();
      paths.push_back((dir / ("s" + std::to_string(i) + ".vbt")).string());
      t.save(paths.back());
      shards.push_back(std::move(t));
    }
    const std::string in_memory = printed([&](std::FILE* f) {
      print_summary(merge_result_tables(shards), f);
    });
    const std::string out = (dir / "merged.vbt").string();
    const MergedShape shape = merge_artifacts(paths, out);
    const std::string streamed = printed([&](std::FILE* f) {
      if (shape.meta.spec.has_value()) {
        print_summary(ResultTable::load(out), f);
      } else {
        print_shape_line(shape.meta, shape.num_rows, f);
      }
    });
    EXPECT_FALSE(in_memory.empty());
    EXPECT_EQ(streamed, in_memory);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace varbench::study
