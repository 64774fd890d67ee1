// Trace-layer contract (docs/metrics.md): zero overhead while disabled
// (no allocation, no clock reads beyond one branch), identity-derived span
// idents so the same campaign traced at any worker split yields the same
// timestamp-free shape, deterministic serialization/stitching, and —
// the hard invariant — traces are provenance, never identity: enabling
// tracing changes no artifact bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/campaign/subprocess.h"
#include "src/campaign/work_queue.h"
#include "src/exec/exec_context.h"
#include "src/exec/parallel_for.h"
#include "src/io/json.h"
#include "src/metrics/metrics.h"
#include "src/metrics/stopwatch.h"
#include "src/study/result_table.h"
#include "src/study/study_runner.h"
#include "src/study/study_spec.h"
#include "src/trace/file.h"
#include "src/trace/stitch.h"

namespace varbench::trace {
namespace {

using namespace varbench::metrics;
namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_{fs::temp_directory_path() /
              ("varbench_trace_" + tag + "_" +
               std::to_string(campaign::current_process_id()))} {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

// ------------------------------------------------------------- registry

TEST(SpanRegistry, NamesAreUniqueAndRoundTrip) {
  const auto& defs = metric_defs();
  ASSERT_EQ(defs.size(), static_cast<std::size_t>(kNumProbes));
  std::set<std::string_view> names;
  for (MetricId id = 0; id < kNumProbes; ++id) {
    EXPECT_TRUE(names.insert(defs[id].name).second) << defs[id].name;
    EXPECT_FALSE(defs[id].subsystem.empty());
    EXPECT_FALSE(defs[id].help.empty());
    EXPECT_EQ(metric_id(defs[id].name), id);
  }
  EXPECT_EQ(metric_id("exec.chunk"), static_cast<MetricId>(kExecChunk));
  EXPECT_EQ(defs[kCampaignTaskQueued].kind, MetricKind::kInstant);
  EXPECT_EQ(defs[kExecRegion].kind, MetricKind::kSpan);
}

TEST(SpanRegistry, UnknownNameThrows) {
  EXPECT_THROW((void)metric_id("exec.nope"), std::invalid_argument);
}

// --------------------------------------------------------------- tracer

TEST(TracerTest, DisabledTracerRecordsAndAllocatesNothing) {
  Sink t;
  EXPECT_FALSE(t.any_enabled());
  { const ScopedTimer s{t, kExecRegion, 7}; }
  instant(t, kCampaignTaskQueued, 9);
  span_end(t, kCampaignTaskRunning, 1, span_begin(t, kCampaignTaskRunning));
  t.emit(kStudyRun, 1, 2, 3);
  // The disabled path must not even allocate a buffer — that is the
  // "zero-overhead when off" half of the contract.
  EXPECT_EQ(t.allocated_shards(), 0u);
  EXPECT_TRUE(t.take_events().empty());
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, EnableSelectionBySubsystemNameAndAll) {
  Sink t;
  enable_selection(t, "exec", Export::kSpans);
  EXPECT_TRUE(t.is_enabled(kExecRegion));
  EXPECT_TRUE(t.is_enabled(kExecChunk));
  EXPECT_FALSE(t.is_enabled(kStudyRun));
  enable_selection(t, "study.run, campaign.task_running", Export::kSpans);
  EXPECT_TRUE(t.is_enabled(kStudyRun));
  EXPECT_TRUE(t.is_enabled(kCampaignTaskRunning));
  EXPECT_FALSE(t.is_enabled(kCampaignTaskQueued));
  enable_selection(t, "none", Export::kSpans);
  EXPECT_FALSE(t.any_enabled());
  enable_selection(t, "all", Export::kSpans);
  for (MetricId id = 0; id < kNumProbes; ++id) {
    EXPECT_EQ(t.is_enabled(id), is_span(metric_defs()[id].kind));
  }
  EXPECT_THROW(enable_selection(t, "exec.bogus", Export::kSpans),
               std::invalid_argument);
  EXPECT_THROW(enable_selection(t, "tracing", Export::kSpans),
               std::invalid_argument);
}

TEST(TracerTest, TakeEventsSortsDeterministicallyAndResetsSequence) {
  Sink t;
  t.enable(kExecRegion);
  t.emit(kExecRegion, 5, /*start_ns=*/200, /*dur_ns=*/10);
  t.emit(kExecRegion, 4, /*start_ns=*/100, /*dur_ns=*/10);
  t.emit(kExecRegion, 3, /*start_ns=*/100, /*dur_ns=*/5);
  EXPECT_EQ(t.next_sequence(), 0u);
  EXPECT_EQ(t.next_sequence(), 1u);
  const auto events = t.take_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ident, 3u);  // (100, region, 3) < (100, region, 4)
  EXPECT_EQ(events[1].ident, 4u);
  EXPECT_EQ(events[2].ident, 5u);
  // take_events resets the sequence so every flushed trace numbers from 0.
  EXPECT_EQ(t.next_sequence(), 0u);
}

TEST(TracerTest, ParallelForEmitsRegionAndChunkSpans) {
  Sink t;
  enable_selection(t, "exec", Export::kSpans);
  exec::ExecContext ctx{2};
  ctx.metrics = &t;
  std::vector<double> out(64, 0.0);
  exec::parallel_for(ctx, 0, out.size(), [&](std::size_t i) {
    out[i] = static_cast<double>(i);
  });
  const auto events = t.take_events();
  std::size_t regions = 0;
  std::size_t chunks = 0;
  std::uint64_t region_ident = 0;
  for (const SpanEvent& e : events) {
    if (e.span == kExecRegion) {
      ++regions;
      region_ident = e.ident;
      EXPECT_GT(e.dur_ns, 0u);
    }
    if (e.span == kExecChunk) ++chunks;
  }
  EXPECT_EQ(regions, 1u);
  EXPECT_GE(chunks, 1u);
  // Chunk idents pack (region sequence << 32) | chunk index.
  for (const SpanEvent& e : events) {
    if (e.span == kExecChunk) {
      EXPECT_EQ(e.ident >> 32, region_ident);
    }
  }
  EXPECT_EQ(out[63], 63.0);
}

// ------------------------------------------------------------ trace file

TraceFile sample_file() {
  TraceFile f;
  f.process = "worker-s0-0of2";
  f.dropped = 2;
  f.spans = {SpanEvent{kExecRegion, 0, 0, 100, 50},
             SpanEvent{kExecChunk, 0, 1, 110, 20},
             SpanEvent{kCampaignTaskQueued, 77, 0, 90, 0}};
  std::sort(f.spans.begin(), f.spans.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return a.start_ns < b.start_ns;
            });
  f.labels = {{77, "s0-0of2"}};
  return f;
}

TEST(TraceFileTest, JsonRoundTripIsLossless) {
  const TraceFile f = sample_file();
  const std::string text = to_json_text(f);
  EXPECT_NE(text.find("varbench.trace.v1"), std::string::npos);
  EXPECT_NE(text.find("campaign.task_queued"), std::string::npos);
  const TraceFile back = parse_trace_file(text, "mem");
  EXPECT_EQ(back, f);
}

TEST(TraceFileTest, ParseErrorsAreActionableAndNamePath) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    try {
      (void)parse_trace_file(text, "traces/x.trace.json");
      FAIL() << "expected io::JsonError";
    } catch (const io::JsonError& e) {
      EXPECT_NE(std::string{e.what()}.find("traces/x.trace.json"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("{", "x.trace.json");
  expect_error(R"({"schema": "other.v9"})", "schema");
  std::string text = to_json_text(sample_file());
  const std::string from = "exec.region";
  text.replace(text.find(from), from.size(), "exec.nopes");
  expect_error(text, "exec.nopes");
  // A metric is not a span, even though both share the one registry.
  text.replace(text.find("exec.nopes"), 10, "exec.chunks");
  expect_error(text, "unknown span name 'exec.chunks'");
  // Well-formed JSON with the right schema but a missing or mistyped field.
  expect_error(R"({"schema": "varbench.trace.v1", "spans": [], "labels": []})",
               "missing key 'process'");
  expect_error(R"({"schema": "varbench.trace.v1", "process": "p", "spans": )"
               R"([{"span": "exec.region", "ident": -1, "tid": 0, )"
               R"("start_ns": 0, "dur_ns": 0}], "labels": []})",
               "negative -1");
  expect_error(R"({"schema": "varbench.trace.v1", "process": "p", )"
               R"("spans": {}, "labels": []})",
               "expected array");
}

TEST(TraceFileTest, DrainEmptiesTheTracer) {
  Sink t;
  t.enable(kStudyRun);
  t.emit(kStudyRun, 1, 10, 5);
  t.set_label(1, "variance:cifar10_vgg11");
  const TraceFile f = drain(t, "proc");
  EXPECT_EQ(f.process, "proc");
  ASSERT_EQ(f.spans.size(), 1u);
  ASSERT_EQ(f.labels.size(), 1u);
  EXPECT_EQ(f.labels[0].second, "variance:cifar10_vgg11");
  EXPECT_TRUE(t.take_events().empty());
  EXPECT_TRUE(t.take_labels().empty());
}

TEST(TraceFileTest, AppendMergesSortsAndDedupsLabels) {
  TraceFile a = sample_file();
  TraceFile b;
  b.process = a.process;
  b.dropped = 1;
  b.spans = {SpanEvent{kExecRegion, 9, 0, 10, 1}};
  b.labels = {{77, "s0-0of2"}, {5, "other"}};
  append(a, std::move(b));
  EXPECT_EQ(a.dropped, 3u);
  ASSERT_EQ(a.spans.size(), 4u);
  EXPECT_EQ(a.spans.front().ident, 9u);  // earliest start first
  ASSERT_EQ(a.labels.size(), 2u);
  EXPECT_EQ(a.labels[0].first, 5u);  // sorted, duplicate 77 dropped
  EXPECT_EQ(a.labels[1].first, 77u);
}

// --------------------------------------------------------------- stitch

TEST(StitchTest, MissingTracesAreActionable) {
  const TempDir dir{"nodir"};
  try {
    (void)stitch_state_dir(dir.str() + "/nope");
    FAIL() << "expected io::JsonError";
  } catch (const io::JsonError& e) {
    EXPECT_NE(std::string{e.what()}.find("--trace"), std::string::npos);
  }
  // traces/ exists but is empty: same actionable hint.
  fs::create_directories(fs::path{dir.str()} / "traces");
  EXPECT_THROW((void)stitch_state_dir(dir.str()), io::JsonError);
}

TEST(StitchTest, StitchesLexicographicallyAndExportsChrome) {
  const TempDir dir{"stitch"};
  fs::create_directories(fs::path{dir.str()} / "traces");
  TraceFile worker = sample_file();
  TraceFile coord;
  coord.process = "coordinator";
  coord.spans = {SpanEvent{kCampaignStudyMerged, 0, 0, 1'000, 300}};
  write_trace_file(dir.str() + "/traces/worker-s0-0of2.trace.json", worker);
  write_trace_file(dir.str() + "/traces/coordinator.trace.json", coord);

  const StitchedTrace stitched = stitch_state_dir(dir.str());
  ASSERT_EQ(stitched.processes.size(), 2u);
  // Lexicographic by file name: coordinator.trace.json sorts first.
  EXPECT_EQ(stitched.processes[0].process, "coordinator");
  EXPECT_EQ(stitched.processes[1].process, "worker-s0-0of2");
  EXPECT_EQ(stitched.total_spans(), 4u);

  const io::Json doc = chrome_trace_json(stitched);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  // 2 process_name metadata rows + 4 span events.
  ASSERT_EQ(events.size(), 6u);
  std::size_t metas = 0;
  std::size_t durations = 0;
  std::size_t instants = 0;
  double min_ts = 1e300;
  for (const io::Json& e : events) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") {
      ++metas;
      EXPECT_EQ(e.at("name").as_string(), "process_name");
      continue;
    }
    EXPECT_GE(e.at("pid").as_uint64(), 1u);  // pid 0 is reserved
    min_ts = std::min(min_ts, e.at("ts").as_double());
    if (ph == "X") {
      ++durations;
      EXPECT_GE(e.at("dur").as_double(), 0.0);
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(e.at("s").as_string(), "t");
    }
  }
  EXPECT_EQ(metas, 2u);
  EXPECT_EQ(durations, 3u);
  EXPECT_EQ(instants, 1u);
  // Each process timeline is normalized to its own earliest event.
  EXPECT_EQ(min_ts, 0.0);
  // The labeled ident surfaces as args.label on its events.
  bool labeled = false;
  for (const io::Json& e : events) {
    const io::Json* args = e.find("args");
    if (args == nullptr) continue;
    const io::Json* label = args->find("label");
    labeled = labeled || (label != nullptr && label->as_string() == "s0-0of2");
  }
  EXPECT_TRUE(labeled);
}

TEST(StitchTest, SummaryTableAggregatesPerSpan) {
  StitchedTrace stitched;
  stitched.processes.push_back(sample_file());
  const study::ResultTable table = summary_table(stitched);
  EXPECT_EQ(table.name, "trace:summary");
  const std::vector<std::string> want{"seq",   "span",     "subsystem",
                                      "kind",  "count",    "total_ms",
                                      "mean_ms", "max_ms"};
  EXPECT_EQ(table.columns, want);
  ASSERT_EQ(table.rows.size(), 3u);  // region, chunk, queued — id order
  EXPECT_EQ(table.rows[0][1].as_string(), "exec.region");
  EXPECT_EQ(table.rows[0][4].as_uint64(), 1u);
  EXPECT_DOUBLE_EQ(table.rows[0][5].as_double(), 50.0 / 1e6);  // 50 ns in ms
  EXPECT_EQ(table.rows[2][1].as_string(), "campaign.task_queued");
  EXPECT_EQ(table.rows[2][3].as_string(), "instant");
}

// ----------------------------------------------- campaign determinism

study::StudySpec tiny_compare_spec() {
  study::StudySpec spec;
  spec.kind = study::StudyKind::kCompare;
  spec.case_study = "cifar10_vgg11";
  spec.scale = 0.08;
  spec.seed = 20260809;
  spec.repetitions = 5;
  spec.compare.num_resamples = 50;
  return spec;
}

campaign::CampaignConfig traced_config(const std::string& dir,
                                       std::size_t workers) {
  campaign::CampaignConfig cfg;
  cfg.dir = dir;
  cfg.shards = 2;
  cfg.workers = workers;
  cfg.stale_after = std::chrono::minutes{10};
  cfg.poll_interval = std::chrono::milliseconds{1};
  cfg.trace = true;
  return cfg;
}

TEST(CampaignTrace, ShapeIsWorkerCountInvariantAndArtifactsUnchanged) {
  const auto spec = tiny_compare_spec();

  // Baseline: the same campaign with tracing off.
  const TempDir plain_dir{"plain"};
  std::string plain_merged;
  {
    auto cfg = traced_config(plain_dir.str(), 1);
    cfg.trace = false;
    const auto report = campaign::run_campaign(
        cfg, {spec}, campaign::in_process_launcher());
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report.merged_outputs.size(), 1u);
    plain_merged = io::read_file(report.merged_outputs[0]);
  }
  ASSERT_FALSE(plain_merged.empty());

  const TempDir one_dir{"w1"};
  const TempDir four_dir{"w4"};
  std::vector<std::string> merged_texts;
  for (const auto& [dir, workers] :
       {std::pair<const TempDir*, std::size_t>{&one_dir, 1},
        std::pair<const TempDir*, std::size_t>{&four_dir, 4}}) {
    const auto report = campaign::run_campaign(
        traced_config(dir->str(), workers), {spec},
        campaign::in_process_launcher(/*trace=*/true));
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report.merged_outputs.size(), 1u);
    merged_texts.push_back(io::read_file(report.merged_outputs[0]));
    // Every worker left its trace, and the coordinator left its own.
    EXPECT_TRUE(fs::exists(fs::path{dir->str()} / "traces" /
                           "worker-s0-0of2.trace.json"));
    EXPECT_TRUE(fs::exists(fs::path{dir->str()} / "traces" /
                           "coordinator.trace.json"));
  }
  // in_process_launcher(true) enabled the global sink's spans; put it
  // back so later tests in this binary see the all-disabled default.
  global_sink().disable_all();
  global_sink().reset();

  // Traces are provenance, never identity: tracing on (at any worker
  // count) changes no artifact bytes.
  EXPECT_EQ(merged_texts[0], plain_merged);
  EXPECT_EQ(merged_texts[1], plain_merged);

  const StitchedTrace one = stitch_state_dir(one_dir.str());
  const StitchedTrace four = stitch_state_dir(four_dir.str());
  // Identity-derived idents: after stripping timestamps, the 1-worker and
  // 4-worker runs recorded the same (span, ident) multiset.
  EXPECT_EQ(span_shape(one), span_shape(four));

  // The trace covers all three instrumented layers of this campaign:
  // campaign lifecycle, study runs, exec regions.
  std::set<std::string_view> subsystems;
  for (const TraceFile& file : one.processes) {
    for (const SpanEvent& e : file.spans) {
      subsystems.insert(metric_defs()[e.span].subsystem);
    }
  }
  EXPECT_TRUE(subsystems.count("campaign"));
  EXPECT_TRUE(subsystems.count("study"));
  EXPECT_TRUE(subsystems.count("exec"));
  // Lifecycle completeness: each task was queued, claimed, run, promoted.
  const auto count = [&](MetricId id) {
    std::size_t n = 0;
    for (const TraceFile& f : one.processes) {
      for (const SpanEvent& e : f.spans) n += e.span == id ? 1 : 0;
    }
    return n;
  };
  EXPECT_EQ(count(kCampaignTaskQueued), 2u);
  EXPECT_EQ(count(kCampaignTaskClaimed), 2u);
  EXPECT_EQ(count(kCampaignTaskRunning), 2u);
  EXPECT_EQ(count(kCampaignTaskPromoted), 2u);
  EXPECT_EQ(count(kCampaignTaskRetried), 0u);
  EXPECT_EQ(count(kCampaignStudyMerged), 1u);
  EXPECT_EQ(count(kStudyRun), 2u);  // one per worker task
}

#ifdef VARBENCH_CLI_PATH
/// The (span, ident) multiset of a traced 3-shard binary campaign's
/// coordinator.trace.json, with every span on the global sink (the
/// coordinator's own io spans from artifact validation and merges).
std::vector<std::pair<MetricId, std::uint64_t>> coordinator_shape(
    const std::string& dir, const campaign::WorkerLauncher& launcher) {
  auto cfg = traced_config(dir, 1);
  cfg.shards = 3;
  cfg.format = study::ArtifactFormat::kBinary;
  global_sink().reset();
  enable_selection(global_sink(), "all", Export::kSpans);
  const auto report = campaign::run_campaign(cfg, {tiny_compare_spec()},
                                             launcher);
  global_sink().disable_all();
  global_sink().reset();
  EXPECT_TRUE(report.ok());
  StitchedTrace stitched;
  stitched.processes.push_back(read_trace_file(
      (fs::path{dir} / "traces" / "coordinator.trace.json").string()));
  return span_shape(stitched);
}

TEST(CampaignTrace, CoordinatorSpansAreTheSameForBothLaunchers) {
  const TempDir in_dir{"coord_inproc"};
  const TempDir sub_dir{"coord_subproc"};
  const auto in_process = coordinator_shape(
      in_dir.str(), campaign::in_process_launcher(/*trace=*/true));
  const auto subprocess = coordinator_shape(
      sub_dir.str(), campaign::subprocess_launcher(VARBENCH_CLI_PATH,
                                                   /*trace=*/true));
  EXPECT_EQ(in_process, subprocess);
  // Each of the 3 shard artifacts is mapped and materialized once to be
  // validated, and mapped once more by the streaming merge.
  const auto count = [&](MetricId id) {
    return std::count_if(in_process.begin(), in_process.end(),
                         [id](const auto& e) { return e.first == id; });
  };
  EXPECT_EQ(count(kIoVbtMap), 6);
  EXPECT_EQ(count(kIoVbtMaterialize), 3);
}
#endif

}  // namespace
}  // namespace varbench::trace
