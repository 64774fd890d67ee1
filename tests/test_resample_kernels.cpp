// The fused resampling-kernel contract (src/stats/resample_kernels.h) and
// the streaming VBT writer (src/io/columnar/stream_writer.h):
//   - the inlined-draw kernels (sign-flip XOR, shortfall-only index
//     blocks, division-free remainder, integer half-wins) give the bits
//     and leave the Rng state of the per-draw reference loops;
//   - the ResampleStat/PairedResampleStat fast paths are bit-identical to
//     the std::function overloads evaluating the equivalent statistic;
//   - every rewired statistic is bit-identical at any thread count;
//   - the kernels are allocation-free in steady state (scratch reuse) and
//     account every replicate to stats.resamples;
//   - StreamWriter::finish() and stream_merge_vbt produce the exact bytes
//     of the one-shot encode_vbt path, at any chunk size, including
//     non-divisor tails and every cell encoding;
//   - both merge paths reject bad shard sets with the same message, and
//     study::merge_artifacts gives the in-memory bytes for mixed inputs
//     and for an output that overwrites one of its inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/scratch.h"
#include "src/io/columnar/stream_writer.h"
#include "src/io/columnar/vbt.h"
#include "src/io/json.h"
#include "src/metrics/metrics.h"
#include "src/stats/bootstrap.h"
#include "src/stats/descriptive.h"
#include "src/stats/prob_outperform.h"
#include "src/stats/resample_kernels.h"
#include "src/stats/tests.h"
#include "src/study/result_table.h"

namespace varbench {
namespace {

namespace fs = std::filesystem;

std::vector<double> normal_data(std::size_t n, std::uint64_t seed,
                                double mu = 1.0, double sigma = 0.5) {
  rngx::Rng rng{seed};
  std::vector<double> x(n);
  for (double& v : x) v = rng.normal(mu, sigma);
  return x;
}

// -------------------------------------------- enum path == generic path

TEST(ResampleKernels, PercentileEnumMatchesGenericBitwise) {
  const auto x = normal_data(200, 11);
  rngx::Rng rng_enum{42};
  rngx::Rng rng_gen{42};
  const exec::ExecContext ctx{4};
  const auto via_enum = stats::percentile_bootstrap_ci(
      ctx, x, stats::ResampleStat::kMean, rng_enum, 500);
  const auto via_gen = stats::percentile_bootstrap_ci(
      ctx, x, [](std::span<const double> s) { return stats::mean(s); },
      rng_gen, 500);
  EXPECT_EQ(via_enum, via_gen);  // exact double equality via operator==
  // Both consumed exactly one master draw, so the streams stay in step.
  EXPECT_EQ(rng_enum.next_u64(), rng_gen.next_u64());
}

TEST(ResampleKernels, BcaEnumMatchesGenericBitwise) {
  // n far below kJackknifeLinearThreshold: the exact O(n^2) jackknife
  // regime, where the enum path promises bit-identity.
  const auto x = normal_data(150, 12);
  rngx::Rng rng_enum{43};
  rngx::Rng rng_gen{43};
  const exec::ExecContext ctx{4};
  const auto via_enum = stats::bca_bootstrap_ci(
      ctx, x, stats::ResampleStat::kMean, rng_enum, 400);
  const auto via_gen = stats::bca_bootstrap_ci(
      ctx, x, [](std::span<const double> s) { return stats::mean(s); },
      rng_gen, 400);
  EXPECT_EQ(via_enum, via_gen);
  EXPECT_EQ(rng_enum.next_u64(), rng_gen.next_u64());
}

TEST(ResampleKernels, PairedEnumMatchesGenericBitwise) {
  const auto a = normal_data(120, 13, 1.1);
  const auto b = normal_data(120, 14, 1.0);
  rngx::Rng rng_enum{44};
  rngx::Rng rng_gen{44};
  const exec::ExecContext ctx{4};
  const auto via_enum = stats::paired_percentile_bootstrap_ci(
      ctx, a, b, stats::PairedResampleStat::kWinRate, rng_enum, 300);
  const auto via_gen = stats::paired_percentile_bootstrap_ci(
      ctx, a, b,
      [](std::span<const double> ra, std::span<const double> rb) {
        return stats::probability_of_outperforming(ra, rb);
      },
      rng_gen, 300);
  EXPECT_EQ(via_enum, via_gen);
  EXPECT_EQ(rng_enum.next_u64(), rng_gen.next_u64());
}

TEST(ResampleKernels, BootstrapResampleStillDrawsTheSameIndices) {
  // The copy-returning overload now delegates to the index kernels — the
  // draws must be exactly what the pre-kernel loop produced: one
  // uniform_index(n) per element, in element order.
  const auto x = normal_data(37, 15);
  rngx::Rng rng_delegated{7};
  rngx::Rng rng_manual{7};
  const auto r = stats::bootstrap_resample(x, rng_delegated);
  ASSERT_EQ(r.size(), x.size());
  for (const double v : r) {
    EXPECT_EQ(v, x[rng_manual.uniform_index(x.size())]);
  }
}

/// fill_bootstrap_indices gives the indices of one uniform_index(pool)
/// call per element and leaves the Rng where that loop does.
template <typename IdxT>
void expect_indices_match_uniform_index(std::uint64_t pool, std::size_t n,
                                        std::uint64_t seed) {
  rngx::Rng rng_kernel{seed};
  rngx::Rng rng_manual{seed};
  std::vector<IdxT> idx(n);
  stats::kernels::fill_bootstrap_indices(rng_kernel, pool,
                                         std::span<IdxT>{idx});
  for (const IdxT i : idx) {
    EXPECT_EQ(i, rng_manual.uniform_index(pool)) << "pool=" << pool;
    EXPECT_LT(i, pool);
  }
  EXPECT_EQ(rng_kernel.save_state(), rng_manual.save_state())
      << "pool=" << pool << " n=" << n;
}

TEST(ResampleKernels, FillBootstrapIndicesMatchesUniformIndex) {
  expect_indices_match_uniform_index<std::uint32_t>(10, 1000, 99);
  // pool = 2^63 + 1 puts the Lemire threshold at 2^63 - 1: about half
  // the draws are rejected, so the shortfall loop runs many rounds.
  const std::uint64_t pool = (std::uint64_t{1} << 63) + 1;
  for (const std::size_t n : {1u, 2u, 1000u}) {
    expect_indices_match_uniform_index<std::uint64_t>(pool, n, 77 + n);
  }
  // That case really rejects: count the raw draws the per-element loop
  // needs for 1000 accepted indices.
  rngx::Rng counter{77 + 1000};
  const std::uint64_t threshold = (~pool + 1) % pool;
  std::size_t draws = 0;
  for (std::size_t accepted = 0; accepted < 1000; ++draws) {
    if (counter.next_u64() >= threshold) ++accepted;
  }
  EXPECT_GT(draws, 1300u);
}

// ----------------------------------------- inlined draws, same bits

/// n values cycling through signed zeros, subnormals and normals, plus
/// infinities of both signs when `with_inf`.
std::vector<double> special_values(std::size_t n, bool with_inf) {
  const double sub = std::numeric_limits<double>::denorm_min();
  std::vector<double> pattern = {0.0,     -0.0, sub,   -sub,  3.5e-310,
                                 -1e-310, 1.25, -0.75, 1e300, -2.0};
  if (with_inf) {
    pattern.push_back(std::numeric_limits<double>::infinity());
    pattern.push_back(-std::numeric_limits<double>::infinity());
  }
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = pattern[(i * 7) % pattern.size()];
  return d;
}

TEST(ResampleKernels, SignflipMatchesBernoulliReferenceBitwise) {
  for (const bool with_inf : {false, true}) {
    for (const std::size_t n : {0u, 1u, 255u, 256u, 257u, 20'000u}) {
      const auto d = special_values(n, with_inf);
      rngx::Rng reference{1234 + n};
      double sum = 0.0;
      for (const double di : d) sum += reference.bernoulli(0.5) ? di : -di;
      const double extreme = std::abs(sum / static_cast<double>(n));
      // |mean| itself and the next double up: the kernel agrees on both
      // only if its |mean| has exactly the reference's bits (a NaN mean
      // is never extreme, on either side).
      for (const double threshold :
           {extreme,
            std::nextafter(extreme, std::numeric_limits<double>::infinity())}) {
        rngx::Rng kernel{1234 + n};
        EXPECT_EQ(stats::kernels::signflip_mean_extreme(d, threshold, kernel),
                  extreme >= threshold)
            << "n=" << n << " inf=" << with_inf;
        rngx::Rng after_reference = reference;
        EXPECT_EQ(kernel.next_u64(), after_reference.next_u64()) << "n=" << n;
      }
    }
  }
}

TEST(ResampleKernels, ExactRemainderMatchesModuloOnEdgePools) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const std::vector<std::uint64_t> pools = {1,
                                            2,
                                            3,
                                            20'000,
                                            (std::uint64_t{1} << 32) - 1,
                                            std::uint64_t{1} << 32,
                                            (std::uint64_t{1} << 63) + 1,
                                            kMax};
  rngx::Rng rng{2019};
  for (const std::uint64_t pool : pools) {
    const stats::kernels::ExactRemainder remainder{pool};
    std::vector<std::uint64_t> rs = {0, 1, pool - 1, pool, kMax};
    for (int i = 0; i < 10'000; ++i) rs.push_back(rng.next_u64());
    for (const std::uint64_t r : rs) {
      ASSERT_EQ(remainder(r), r % pool) << "r=" << r << " pool=" << pool;
    }
  }
}

TEST(ResampleKernels, GatherWinRateMatchesProbabilityOfOutperforming) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> a = {1.0, 2.0, 2.0, nan, 0.5, 3.0, nan, -0.0};
  const std::vector<double> b = {0.5, 2.0, 3.0, 1.0, nan, 3.0, nan, 0.0};
  rngx::Rng rng{31};
  for (const std::size_t n : {1u, 7u, 64u, 1001u}) {
    std::vector<std::uint32_t> idx(n);
    stats::kernels::fill_bootstrap_indices(rng, a.size(),
                                           std::span<std::uint32_t>{idx});
    std::vector<double> ga(n);
    std::vector<double> gb(n);
    stats::kernels::gather_values(a, std::span<const std::uint32_t>{idx},
                                  std::span<double>{ga});
    stats::kernels::gather_values(b, std::span<const std::uint32_t>{idx},
                                  std::span<double>{gb});
    EXPECT_EQ(stats::kernels::gather_win_rate(
                  a, b, std::span<const std::uint32_t>{idx}),
              stats::probability_of_outperforming(ga, gb))
        << "n=" << n;
  }
}

// ------------------------------------------------------ thread invariance

TEST(ResampleKernels, EveryRewiredStatisticIsThreadCountInvariant) {
  const auto a = normal_data(180, 21, 1.2);
  const auto b = normal_data(180, 22, 1.0);
  const exec::ExecContext serial{1};
  const exec::ExecContext parallel{4};

  {
    rngx::Rng r1{1}, r2{1};
    EXPECT_EQ(stats::percentile_bootstrap_ci(serial, a,
                                             stats::ResampleStat::kMean, r1,
                                             400),
              stats::percentile_bootstrap_ci(parallel, a,
                                             stats::ResampleStat::kMean, r2,
                                             400));
  }
  {
    rngx::Rng r1{2}, r2{2};
    EXPECT_EQ(
        stats::bca_bootstrap_ci(serial, a, stats::ResampleStat::kMean, r1,
                                400),
        stats::bca_bootstrap_ci(parallel, a, stats::ResampleStat::kMean, r2,
                                400));
  }
  {
    rngx::Rng r1{3}, r2{3};
    EXPECT_EQ(stats::paired_percentile_bootstrap_ci(
                  serial, a, b, stats::PairedResampleStat::kWinRate, r1, 400),
              stats::paired_percentile_bootstrap_ci(
                  parallel, a, b, stats::PairedResampleStat::kWinRate, r2,
                  400));
  }
  {
    rngx::Rng r1{4}, r2{4};
    EXPECT_EQ(stats::permutation_test_mean_diff(serial, a, b, r1, 500),
              stats::permutation_test_mean_diff(parallel, a, b, r2, 500));
  }
  {
    rngx::Rng r1{5}, r2{5};
    EXPECT_EQ(stats::paired_permutation_test(serial, a, b, r1, 500),
              stats::paired_permutation_test(parallel, a, b, r2, 500));
  }
  {
    rngx::Rng r1{6}, r2{6};
    const auto s = stats::test_probability_of_outperforming(serial, a, b, r1);
    const auto p =
        stats::test_probability_of_outperforming(parallel, a, b, r2);
    EXPECT_EQ(s.p_a_greater_b, p.p_a_greater_b);
    EXPECT_EQ(s.ci, p.ci);
    EXPECT_EQ(s.conclusion, p.conclusion);
  }
}

// ---------------------------------------------------- jackknife regimes

TEST(ResampleKernels, JackknifeExactRegimeMatchesNaiveLeaveOneOut) {
  const auto x = normal_data(33, 31);
  ASSERT_LT(x.size(), stats::kernels::kJackknifeLinearThreshold);
  std::vector<double> loo(x.size(), 0.0);
  stats::kernels::jackknife_mean_loo(exec::ExecContext{3}, x, loo);
  for (std::size_t i = 0; i < x.size(); ++i) {
    double sum = 0.0;  // the fold-left order mean(rest) uses
    for (std::size_t j = 0; j < x.size(); ++j) {
      if (j != i) sum += x[j];
    }
    EXPECT_EQ(loo[i], sum / static_cast<double>(x.size() - 1)) << i;
  }
}

TEST(ResampleKernels, JackknifeLinearRegimeIsDeterministicAndAccurate) {
  const std::size_t n = stats::kernels::kJackknifeLinearThreshold;
  const auto x = normal_data(n, 32);
  std::vector<double> serial(n, 0.0);
  std::vector<double> parallel(n, 0.0);
  stats::kernels::jackknife_mean_loo(exec::ExecContext{1}, x, serial);
  stats::kernels::jackknife_mean_loo(exec::ExecContext{4}, x, parallel);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << i;  // thread-invariant bits
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) sum += x[j];
    }
    // The prefix/suffix decomposition may differ from the fold in the
    // last ulps — that regime trades exact fold order for O(n).
    EXPECT_NEAR(serial[i], sum / static_cast<double>(n - 1), 1e-9) << i;
  }
}

// ------------------------------------------- scratch + metric accounting

TEST(ResampleKernels, ScratchReuseReachesSteadyState) {
  const auto x = normal_data(256, 41);
  const exec::ExecContext serial{1};  // inline: leases land on this thread
  rngx::Rng warm{50};
  (void)stats::percentile_bootstrap_ci(serial, x, stats::ResampleStat::kMean,
                                       warm, 200);
  const std::size_t idx_before = exec::scratch_allocations<std::uint32_t>();
  const std::size_t dbl_before = exec::scratch_allocations<double>();
  for (int round = 0; round < 3; ++round) {
    rngx::Rng rng{51};
    (void)stats::percentile_bootstrap_ci(serial, x,
                                         stats::ResampleStat::kMean, rng, 200);
  }
  EXPECT_EQ(exec::scratch_allocations<std::uint32_t>(), idx_before);
  EXPECT_EQ(exec::scratch_allocations<double>(), dbl_before);
}

TEST(ResampleKernels, StatsResamplesCountsEveryReplicate) {
  metrics::Sink sink;
  sink.enable(metrics::kStatsResamples);
  exec::ExecContext ctx{2};
  ctx.metrics = &sink;
  const auto a = normal_data(64, 42);
  const auto b = normal_data(64, 43);

  rngx::Rng rng{60};
  (void)stats::percentile_bootstrap_ci(ctx, a, stats::ResampleStat::kMean,
                                       rng, 257);
  auto snap = sink.snapshot();
  ASSERT_NE(snap.find(metrics::kStatsResamples), nullptr);
  EXPECT_EQ(snap.find(metrics::kStatsResamples)->count, 257u);

  sink.reset();
  (void)stats::permutation_test_mean_diff(ctx, a, b, rng, 123);
  snap = sink.snapshot();
  EXPECT_EQ(snap.find(metrics::kStatsResamples)->count, 123u);

  sink.reset();
  (void)stats::paired_permutation_test(ctx, a, b, rng, 77);
  snap = sink.snapshot();
  EXPECT_EQ(snap.find(metrics::kStatsResamples)->count, 77u);
}

// ------------------------------------------------- streaming VBT writer

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("varbench_stream_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  fs::path dir_;
};

/// Rows covering every encoding the writer elects: f64, i64 (negatives),
/// u64 (above INT64_MAX), string-dict, and mixed (nulls, bools, several
/// number kinds, strings).
study::ResultTable all_types_table(std::size_t rows) {
  study::ResultTable t;
  t.name = "stream:all_types";
  t.seed = 77;
  t.wall_time_ms = 12.5;
  t.columns = {"seq", "measure", "delta", "big", "label", "mixed"};
  for (std::size_t i = 0; i < rows; ++i) {
    study::Cell mixed;
    switch (i % 5) {
      case 0: mixed = study::Cell{}; break;
      case 1: mixed = study::Cell{i % 2 == 0}; break;
      case 2: mixed = study::Cell{0.25 * static_cast<double>(i)}; break;
      case 3: mixed = study::Cell{std::int64_t{-9} - std::int64_t(i)}; break;
      default:
        mixed = study::Cell{std::string{"mix-"} + std::to_string(i % 7)};
    }
    t.add_row({study::Cell{std::uint64_t{i}},
               study::Cell{0.5 + 0.125 * static_cast<double>(i)},
               study::Cell{std::int64_t{-3} * std::int64_t(i)},
               study::Cell{(std::uint64_t{1} << 63) + i},
               study::Cell{std::string{i % 3 == 0 ? "fizz" : "buzz"}},
               std::move(mixed)});
  }
  return t;
}

TEST(StreamWriter, ByteIdenticalToOneShotEncodeAtEveryChunkSize) {
  const TempDir tmp;
  const auto table = all_types_table(23);
  for (const bool provenance : {true, false}) {
    const std::string golden = io::columnar::encode_vbt(table, provenance);
    // 1 and 23 divide nothing interesting; 3, 7 leave tails (23 = 7*3+2);
    // 64 > rows keeps everything in memory (no spill at all).
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                    std::size_t{7}, std::size_t{23},
                                    std::size_t{64}}) {
      const std::string out = tmp.path(
          "t_" + std::to_string(chunk) + (provenance ? "_p" : "_c") + ".vbt");
      io::columnar::StreamWriter writer{out, table, provenance, chunk};
      for (const study::Row& row : table.rows) writer.append(row);
      writer.finish();
      EXPECT_EQ(io::read_file(out), golden)
          << "chunk " << chunk << " provenance " << provenance;
      EXPECT_FALSE(fs::exists(out + ".spill")) << chunk;
    }
  }
}

TEST(StreamWriter, EmptyTableMatchesOneShotEncode) {
  const TempDir tmp;
  study::ResultTable t;
  t.name = "stream:empty";
  t.seed = 3;
  t.columns = {"seq", "measure"};
  const std::string out = tmp.path("empty.vbt");
  io::columnar::StreamWriter writer{out, t, /*include_provenance=*/false};
  writer.finish();
  EXPECT_EQ(io::read_file(out), io::columnar::encode_vbt(t, false));
}

TEST(StreamWriter, CountsFlushedChunks) {
  const TempDir tmp;
  metrics::Sink& sink = metrics::global_sink();
  sink.enable(metrics::kIoStreamChunks);
  sink.reset();
  const auto table = all_types_table(10);
  io::columnar::StreamWriter writer{tmp.path("chunks.vbt"), table,
                                    /*include_provenance=*/false, 4};
  for (const study::Row& row : table.rows) writer.append(row);
  writer.finish();
  const auto snap = sink.snapshot();
  ASSERT_NE(snap.find(metrics::kIoStreamChunks), nullptr);
  // 10 rows at chunk 4: two spilled chunks plus the in-memory tail.
  EXPECT_EQ(snap.find(metrics::kIoStreamChunks)->count, 3u);
  sink.disable(metrics::kIoStreamChunks);
}

TEST(StreamWriter, AbortWithoutFinishLeavesNothingBehind) {
  const TempDir tmp;
  const auto table = all_types_table(6);
  const std::string out = tmp.path("aborted.vbt");
  {
    io::columnar::StreamWriter writer{out, table,
                                      /*include_provenance=*/true, 2};
    for (const study::Row& row : table.rows) writer.append(row);
    // no finish(): destructor must clean up the spill and partial output
  }
  EXPECT_FALSE(fs::exists(out));
  EXPECT_FALSE(fs::exists(out + ".spill"));
}

TEST(StreamWriter, RejectsWrongArityAndDoubleFinish) {
  const TempDir tmp;
  const auto table = all_types_table(2);
  io::columnar::StreamWriter writer{tmp.path("bad.vbt"), table};
  EXPECT_THROW(writer.append({study::Cell{std::uint64_t{0}}}), io::JsonError);
  writer.append(table.rows[0]);
  writer.finish();
  EXPECT_THROW(writer.finish(), io::JsonError);
  EXPECT_THROW(writer.append(table.rows[1]), io::JsonError);
}

// ------------------------------------------------------ streaming merge

/// Slice `full` into `count` seq-striped shards (row i goes to shard
/// i % count), each seq-sorted — the shape study runners emit.
std::vector<study::ResultTable> stripe_shards(const study::ResultTable& full,
                                              std::size_t count) {
  std::vector<study::ResultTable> shards(count);
  for (std::size_t s = 0; s < count; ++s) {
    shards[s].name = full.name;
    shards[s].seed = full.seed;
    shards[s].columns = full.columns;
    shards[s].shard = study::ShardSpec{s, count};
    shards[s].wall_time_ms = 1.5 * static_cast<double>(s + 1);
    shards[s].threads = s + 1;
  }
  for (std::size_t i = 0; i < full.rows.size(); ++i) {
    shards[i % count].rows.push_back(full.rows[i]);
  }
  return shards;
}

TEST(StreamMerge, ByteIdenticalToInMemoryMergePlusEncode) {
  const TempDir tmp;
  const auto full = all_types_table(29);
  auto shards = stripe_shards(full, 3);
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    paths.push_back(tmp.path("shard" + std::to_string(s) + ".vbt"));
    io::columnar::write_vbt(paths.back(), shards[s]);
  }
  const auto merged = study::merge_result_tables(std::move(shards));
  for (const bool provenance : {false, true}) {
    const std::string out =
        tmp.path(provenance ? "merged_p.vbt" : "merged_c.vbt");
    // Chunk 5 leaves a 29 % 5 tail on the merged stream.
    io::columnar::stream_merge_vbt(paths, out, provenance, 5);
    EXPECT_EQ(io::read_file(out), io::columnar::encode_vbt(merged, provenance))
        << "provenance " << provenance;
  }
}

TEST(StreamMerge, UnsortedShardFallsBackToInMemoryPathSameBytes) {
  const TempDir tmp;
  const auto full = all_types_table(12);
  auto shards = stripe_shards(full, 2);
  // Reverse one shard's rows: seq now descends, forcing the sort path.
  std::reverse(shards[1].rows.begin(), shards[1].rows.end());
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    paths.push_back(tmp.path("u" + std::to_string(s) + ".vbt"));
    io::columnar::write_vbt(paths.back(), shards[s]);
  }
  const auto merged = study::merge_result_tables(std::move(shards));
  const std::string out = tmp.path("merged_u.vbt");
  io::columnar::stream_merge_vbt(paths, out, /*include_provenance=*/false);
  EXPECT_EQ(io::read_file(out),
            io::columnar::encode_vbt(merged, /*include_provenance=*/false));
}

/// One bad shard set: how to spoil two seq-striped shards of a 10-row
/// table, and the start of the message both merge paths must throw.
struct BadShardSet {
  const char* label;
  void (*spoil)(std::vector<study::ResultTable>&);
  const char* message;
};

const BadShardSet kBadShardSets[] = {
    {"no shards", [](auto& s) { s.clear(); }, "merge: no shard tables given"},
    {"count mismatch", [](auto& s) { s.pop_back(); },
     "merge: got 1 tables for a 2-shard study"},
    {"counts disagree", [](auto& s) { s[1].shard = study::ShardSpec{1, 3}; },
     "merge: shard counts disagree (1/3 vs ../2)"},
    {"missing shard",
     [](auto& s) {
       s.push_back(s[1]);
       for (auto& t : s) t.shard.count = 3;
       s[1].shard.index = 2;
       s[2].shard.index = 2;
     },
     "merge: shard 1 is missing (have shard 2/3 instead)"},
    {"duplicated shard", [](auto& s) { s[1].shard.index = 0; },
     "merge: shard 1 is duplicated (have shard 0/2 instead)"},
    {"foreign study", [](auto& s) { s[1].seed += 1; },
     "merge: table 1 ('stream:all_types', seed 78) does not belong"},
    {"overlapping seq",
     [](auto& s) { s[1].rows.insert(s[1].rows.begin(), s[0].rows[0]); },
     "merge: row sequence broken at position 1 (seq 0)"},
    {"gapped seq", [](auto& s) { s[1].rows.erase(s[1].rows.begin() + 2); },
     "merge: row sequence broken at position 5 (seq 6)"},
};

TEST(StreamMerge, RejectsBadShardSetsLikeTheInMemoryMerge) {
  const TempDir tmp;
  for (const BadShardSet& bad : kBadShardSets) {
    SCOPED_TRACE(bad.label);
    auto shards = stripe_shards(all_types_table(10), 2);
    bad.spoil(shards);
    std::vector<std::string> paths;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      paths.push_back(tmp.path("bad" + std::to_string(s) + ".vbt"));
      io::columnar::write_vbt(paths.back(), shards[s]);
    }
    std::string in_memory;
    try {
      (void)study::merge_result_tables(shards);
      ADD_FAILURE() << "in-memory merge must throw";
    } catch (const io::JsonError& e) {
      in_memory = e.what();
    }
    const std::string out = tmp.path("nope.vbt");
    try {
      io::columnar::stream_merge_vbt(paths, out);
      ADD_FAILURE() << "streamed merge must throw";
    } catch (const io::JsonError& e) {
      EXPECT_EQ(std::string{e.what()}, in_memory);
    }
    EXPECT_EQ(in_memory.rfind(bad.message, 0), 0u) << in_memory;
    EXPECT_FALSE(fs::exists(out));
    EXPECT_FALSE(fs::exists(out + ".spill"));
  }
}

TEST(StreamMerge, MixedJsonAndVbtInputsGiveTheInMemoryBytes) {
  const TempDir tmp;
  auto shards = stripe_shards(all_types_table(17), 2);
  const std::vector<std::string> paths = {tmp.path("m0.json"),
                                          tmp.path("m1.vbt")};
  shards[0].save(paths[0]);
  shards[1].save(paths[1]);
  const std::string golden = io::columnar::encode_vbt(
      study::merge_result_tables(std::move(shards)),
      /*include_provenance=*/false);
  const std::string out = tmp.path("mixed.vbt");
  const study::MergedShape shape = study::merge_artifacts(paths, out);
  EXPECT_EQ(io::read_file(out), golden);
  EXPECT_EQ(shape.num_rows, 17u);
  EXPECT_FALSE(fs::exists(out + ".tmp-merge"));
}

TEST(StreamMerge, StreamsOnlyVbtInputsToBinaryOutput) {
  // The routing rule: all-VBT1 inputs to a binary output never build a
  // table; a JSON output takes the in-memory path (one table per shard).
  const TempDir tmp;
  auto shards = stripe_shards(all_types_table(9), 3);
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    paths.push_back(tmp.path("r" + std::to_string(s) + ".vbt"));
    shards[s].save(paths.back());
  }
  metrics::Sink& sink = metrics::global_sink();
  sink.enable(metrics::kIoMaterializeNs);
  const auto materialized = [&](const std::string& out) {
    sink.reset();
    (void)study::merge_artifacts(paths, out);
    const metrics::Snapshot snap = sink.snapshot();
    const auto* entry = snap.find(metrics::kIoMaterializeNs);
    return entry == nullptr ? std::uint64_t{0} : entry->count;
  };
  EXPECT_EQ(materialized(tmp.path("streamed.vbt")), 0u);
  EXPECT_EQ(materialized(tmp.path("in_memory.json")), 3u);
  sink.disable(metrics::kIoMaterializeNs);
}

TEST(StreamMerge, OutputMayOverwriteAMappedInput) {
  const TempDir tmp;
  for (const char* ext : {".vbt", ".json"}) {
    SCOPED_TRACE(ext);
    const bool binary = std::string{ext} == ".vbt";
    auto shards = stripe_shards(all_types_table(21), 3);
    std::vector<std::string> paths;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      paths.push_back(tmp.path("o" + std::to_string(s) + ext));
      shards[s].save(paths.back());
    }
    const std::string shard0 = shards[0].canonical_text();
    const study::ResultTable merged =
        study::merge_result_tables(std::move(shards));
    // A reader that still maps the first shard must keep seeing it while
    // the merge replaces the file of that name: the output is written
    // beside it and renamed into place, never written over it.
    std::shared_ptr<const io::columnar::MappedTable> held;
    if (binary) held = io::columnar::MappedTable::open(paths[0]);
    const study::MergedShape shape = study::merge_artifacts(paths, paths[0]);
    EXPECT_EQ(io::read_file(paths[0]),
              binary ? io::columnar::encode_vbt(merged, false)
                     : merged.canonical_text());
    if (held) {
      EXPECT_EQ(io::columnar::materialize(held).canonical_text(), shard0);
    }
    EXPECT_EQ(shape.num_rows, merged.rows.size());
    EXPECT_EQ(shape.meta.meta_json().dump(), merged.meta_json().dump());
  }
}

}  // namespace
}  // namespace varbench
