// The one instrumentation layer (docs/metrics.md), in the style of
// dismec++'s stats collection.
//
// Design contract:
//   - Every probe — counter, timer, histogram, span or instant — is
//     declared once, at compile time, in VARBENCH_BUILTIN_METRICS; its id
//     is its index in that list, so ids are small dense integers that are
//     stable across runs and builds (append-only list).
//   - `Sink::is_enabled(id)` is an inlined byte load: a disabled probe
//     costs ~one predictable branch, no locks, no clock reads, no
//     allocation. Everything expensive — clock reads (ScopedTimer),
//     derived values (observe_lazy), ident hashes — sits behind that
//     branch.
//   - Metrics (counters, timers, histograms) go to per-thread-slot relaxed
//     atomic u64 cells. Because every cell is an integer accumulator
//     (count / sum / log2 histogram bins) and integer addition commutes,
//     `snapshot()` merges slots deterministically: the same multiset of
//     events yields the same snapshot regardless of thread count or
//     interleaving.
//   - Spans and instants append POD SpanEvents to a bounded buffer in the
//     same per-slot store. Every event carries an *identity-derived* ident
//     (a task-id hash, a region sequence number, a chunk index) — never a
//     pointer, tid, or clock value — so the same campaign traced at any
//     worker or thread split yields the same (span, ident) multiset once
//     timestamps are normalized away.
//   - Nothing a sink records may flow into canonical_text() bytes: metrics
//     and spans are provenance, never identity (docs/determinism.md).
//
// This header is io-free and exec-free so that ExecContext can include it;
// the trace-file export lives in src/trace/.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace varbench::metrics {

using MetricId = std::uint32_t;

enum class MetricKind : std::uint8_t {
  kCounter,    // monotonic sum of deltas (count = number of increments)
  kTimer,      // nanosecond durations, histogrammed
  kHistogram,  // arbitrary non-negative integer values, histogrammed
  kSpan,       // a duration event: start + dur (Chrome "ph":"X")
  kInstant,    // a point event: start only, dur = 0 (Chrome "ph":"i")
};

[[nodiscard]] std::string_view kind_name(MetricKind kind);

/// Spans and instants are kept as events; the other kinds fold into cells.
[[nodiscard]] constexpr bool is_span(MetricKind kind) {
  return kind == MetricKind::kSpan || kind == MetricKind::kInstant;
}

struct MetricDef {
  std::string_view name;       // "exec.queue_wait_ns" — "<subsystem>.<name>"
  std::string_view subsystem;  // "exec" | "campaign" | "io" | ...
  std::string_view unit;       // "ns", "count", "bytes", "indices", ...
  MetricKind kind = MetricKind::kCounter;
  std::string_view help;       // spans: what the ident derives from
};

// The compile-time probe list. Ids are indices into this list; append
// only — never reorder or remove — so ids stay stable across versions.
// X(symbol, name, subsystem, unit, kind, help)
#define VARBENCH_BUILTIN_METRICS(X)                                          \
  X(ExecRegions, "exec.parallel_regions", "exec", "count", kCounter,         \
    "parallel_for regions that actually fanned out to the pool")             \
  X(ExecTasksSubmitted, "exec.tasks_submitted", "exec", "count", kCounter,   \
    "helper tasks enqueued on the global ThreadPool")                        \
  X(ExecChunks, "exec.chunks", "exec", "count", kCounter,                    \
    "self-scheduled chunks claimed across all parallel_for regions")         \
  X(ExecChunkSize, "exec.chunk_size", "exec", "indices", kHistogram,         \
    "indices per claimed chunk (the effective grain)")                       \
  X(ExecChunkRunNs, "exec.chunk_run_ns", "exec", "ns", kTimer,               \
    "wall time spent running one chunk's body calls")                        \
  X(ExecQueueWaitNs, "exec.queue_wait_ns", "exec", "ns", kTimer,             \
    "submit-to-start latency of pool helper tasks")                          \
  X(ExecRegionThreads, "exec.region_threads", "exec", "threads", kHistogram, \
    "resolved worker count per parallel region (pool utilization)")          \
  X(CampaignClaimToStartNs, "campaign.claim_to_start_ns", "campaign", "ns",  \
    kTimer, "ticket claim to worker launch latency per task")                \
  X(CampaignTaskRetries, "campaign.task_retries", "campaign", "count",       \
    kCounter, "failed attempts that were requeued for retry")                \
  X(CampaignHeartbeatJitterNs, "campaign.heartbeat_jitter_ns", "campaign",   \
    "ns", kTimer,                                                            \
    "absolute deviation of the reap loop period from poll_interval")         \
  X(CampaignTasksLaunched, "campaign.tasks_launched", "campaign", "count",   \
    kCounter, "worker launches, including retries")                          \
  X(IoBytesMapped, "io.vbt_bytes_mapped", "io", "bytes", kCounter,           \
    "bytes of VBT1 artifacts mapped (or buffered) by MappedTable::open")     \
  X(IoTablesMapped, "io.vbt_tables_mapped", "io", "count", kCounter,         \
    "VBT1 artifacts opened")                                                 \
  X(IoMaterializeNs, "io.vbt_materialize_ns", "io", "ns", kTimer,            \
    "wall time of full VBT1-to-ResultTable materialization")                 \
  X(RngxStreamsDerived, "rngx.streams_derived", "rngx", "count", kCounter,   \
    "Rng streams created — constructions, reseeds, and tag splits")          \
  X(RngxDraws, "rngx.draws", "rngx", "count", kCounter,                      \
    "raw 64-bit draws from the xoshiro core (every distribution bottoms "    \
    "out here)")                                                             \
  X(StatsResamples, "stats.resamples", "stats", "count", kCounter,           \
    "bootstrap resamples and permutation replicates evaluated by the "       \
    "fused resampling kernels")                                              \
  X(IoStreamChunks, "io.stream_chunks", "io", "count", kCounter,             \
    "row-group chunks flushed by the streaming VBT writer")                  \
  X(StudyRun, "study.run", "study", "ns", kSpan,                             \
    "one run_study() execution; ident = hash of '<kind>:<case_study>'")      \
  X(ExecRegion, "exec.region", "exec", "ns", kSpan,                          \
    "one parallel_for region; ident = per-sink region sequence number")      \
  X(ExecChunk, "exec.chunk", "exec", "ns", kSpan,                            \
    "one self-scheduled chunk; ident = (region sequence << 32) | chunk")     \
  X(IoVbtMap, "io.vbt_map", "io", "ns", kSpan,                               \
    "MappedTable::open of one VBT1 artifact; ident = hash of the file name") \
  X(IoVbtMaterialize, "io.vbt_materialize", "io", "ns", kSpan,               \
    "full VBT1-to-ResultTable materialization; ident = hash of the file "    \
    "name")                                                                  \
  X(CampaignTaskQueued, "campaign.task_queued", "campaign", "ns", kInstant,  \
    "task ticket entered the work queue; ident = hash of the task id")       \
  X(CampaignTaskClaimed, "campaign.task_claimed", "campaign", "ns",          \
    kInstant, "coordinator claimed the ticket; ident = hash of the task id") \
  X(CampaignTaskRunning, "campaign.task_running", "campaign", "ns", kSpan,   \
    "worker launch to reap for one attempt; ident = hash of the task id")    \
  X(CampaignTaskPromoted, "campaign.task_promoted", "campaign", "ns",        \
    kInstant,                                                                \
    "validated artifact promoted to artifacts/; ident = hash of the task "   \
    "id")                                                                    \
  X(CampaignTaskRetried, "campaign.task_retried", "campaign", "ns",          \
    kInstant, "failed attempt requeued for retry; ident = hash of the task " \
    "id")                                                                    \
  X(CampaignStudyMerged, "campaign.study_merged", "campaign", "ns", kSpan,   \
    "per-study incremental merge of all landed shards; ident = study index") \
  X(CoreFits, "core.fits", "core", "count", kCounter,                        \
    "fits trained: every train_and_evaluate call made through core::fit")    \
  X(CoreFitsReused, "core.fits_reused", "core", "count", kCounter,           \
    "measures filled from an identical earlier fit instead of training")

enum : MetricId {
#define VARBENCH_METRIC_ENUM(sym, name, subsystem, unit, kind, help) k##sym,
  VARBENCH_BUILTIN_METRICS(VARBENCH_METRIC_ENUM)
#undef VARBENCH_METRIC_ENUM
      kNumProbes
};

/// Every probe, id order.
inline constexpr std::array<MetricDef, kNumProbes> kMetricDefs = {{
#define VARBENCH_METRIC_DEF(sym, name, subsystem, unit, kind, help) \
  MetricDef{name, subsystem, unit, MetricKind::kind, help},
    VARBENCH_BUILTIN_METRICS(VARBENCH_METRIC_DEF)
#undef VARBENCH_METRIC_DEF
}};

/// How many probes are metrics (counters, timers, histograms) — the rows
/// `varbench metrics --list` prints.
inline constexpr std::size_t kNumBuiltinMetrics = static_cast<std::size_t>(
    std::count_if(kMetricDefs.begin(), kMetricDefs.end(),
                  [](const MetricDef& d) { return !is_span(d.kind); }));

[[nodiscard]] inline const std::array<MetricDef, kNumProbes>& metric_defs() {
  return kMetricDefs;
}

/// Id for `name`; throws std::invalid_argument for unknown names.
[[nodiscard]] MetricId metric_id(std::string_view name);

/// Histogram geometry: integer log2 bins. Bin 0 holds value 0; bin i>=1
/// holds [2^(i-1), 2^i). Integer bin edges are part of the deterministic
/// merge contract — no floating-point bucketing.
inline constexpr std::size_t kNumBins = 64;

[[nodiscard]] constexpr std::size_t bin_index(std::uint64_t value) {
  const std::size_t w = static_cast<std::size_t>(std::bit_width(value));
  return w < kNumBins ? w : kNumBins - 1;
}

/// Inclusive upper bound of bin `i` (the value reported for percentiles).
[[nodiscard]] constexpr std::uint64_t bin_upper(std::size_t i) {
  if (i == 0) return 0;
  if (i >= kNumBins - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << i) - 1;
}

/// Deterministically merged totals for one metric.
struct MetricSnapshot {
  MetricId id = 0;
  std::uint64_t count = 0;  // events recorded
  std::uint64_t sum = 0;    // sum of recorded values / counter deltas
  std::array<std::uint64_t, kNumBins> bins{};  // timers/histograms only

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Upper bound of the bin containing the p-quantile (p in [0, 1]).
  /// Integer-exact: no interpolation, so snapshots merge/compare bytewise.
  [[nodiscard]] std::uint64_t percentile_upper(double p) const;
};

/// One enabled-metric-per-entry view of a Sink, fixed id order.
struct Snapshot {
  std::vector<MetricSnapshot> metrics;

  [[nodiscard]] const MetricSnapshot* find(MetricId id) const;
  [[nodiscard]] bool empty() const { return metrics.empty(); }
};

/// One recorded span or instant. POD on purpose: the hot path copies 40
/// bytes into a per-slot buffer and nothing else. `tid` is the recording
/// thread's slot ordinal — presentation only (Chrome "tid"), never
/// identity.
struct SpanEvent {
  MetricId span = 0;
  std::uint64_t ident = 0;     // identity-derived (see the span's help text)
  std::uint64_t tid = 0;       // slot of the recording thread
  std::uint64_t start_ns = 0;  // monotonic, process-local
  std::uint64_t dur_ns = 0;    // 0 for kInstant events

  friend bool operator==(const SpanEvent&, const SpanEvent&) = default;
};

/// The one event order: (start_ns, span, ident, tid, dur_ns). A drained or
/// appended trace sorted by it is a function of its multiset of events,
/// not of which slot each thread landed on.
[[nodiscard]] bool event_before(const SpanEvent& a, const SpanEvent& b);

/// A sink: the object instrumented code records into. Default state is
/// all-disabled, in which every record call is a branch on a byte load.
///
/// Thread model: add/observe/emit/next_sequence/set_label are safe from
/// any thread; enable/disable/reset/snapshot/take_* are coordinator-side
/// operations and must not race with recorders.
class Sink {
 public:
  Sink() = default;
  ~Sink();
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  /// Hot-path gate. Inlined: a byte load (the bounds check folds away for
  /// the constant ids call sites pass).
  [[nodiscard]] bool is_enabled(MetricId id) const {
    return id < kNumProbes && enabled_[id] != 0;
  }

  [[nodiscard]] bool any_enabled() const { return num_enabled_ > 0; }

  void enable(MetricId id);
  void disable(MetricId id);
  void enable_all();
  void disable_all();

  /// Counter increment: sum += delta, count += 1. No-op when disabled.
  void add(MetricId id, std::uint64_t delta = 1) {
    if (!is_enabled(id)) return;
    record(id, delta);
  }

  /// n unit counter increments at once: the same totals (sum += n,
  /// count += n) as n add(id) calls, for block draws. No-op when disabled.
  void add_n(MetricId id, std::uint64_t n) {
    if (n == 0 || !is_enabled(id)) return;
    record(id, n, n);
  }

  /// Histogram/timer observation: sum += value, count += 1,
  /// bins[bin_index(value)] += 1. No-op when disabled.
  void observe(MetricId id, std::uint64_t value) {
    if (!is_enabled(id)) return;
    record(id, value);
  }

  /// Defer an expensive-to-compute value behind the enabled check: `fn`
  /// is only invoked when the metric is live.
  template <typename Fn>
  void observe_lazy(MetricId id, Fn&& fn) {
    if (!is_enabled(id)) return;
    record(id, static_cast<std::uint64_t>(std::forward<Fn>(fn)()));
  }

  /// Append one span/instant event (timestamps already taken by the caller
  /// — see src/metrics/stopwatch.h, the only clock site). No-op when the
  /// span is disabled; `tid` is filled in from the recording thread's
  /// slot. Buffers are bounded (kMaxEventsPerSlot); overflow increments
  /// dropped() instead of growing without limit.
  void emit(MetricId id, std::uint64_t ident, std::uint64_t start_ns,
            std::uint64_t dur_ns) {
    if (!is_enabled(id)) return;
    record_event(id, ident, start_ns, dur_ns);
  }

  /// Next value of the sink-wide sequence counter — the identity source
  /// for ordered-by-construction idents (exec region numbers). Reset by
  /// take_events()/reset(), so every flushed trace numbers from 0.
  [[nodiscard]] std::uint64_t next_sequence() {
    return sequence_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Attach a human-readable label to an ident (e.g. the task id behind
  /// its hash) for the exported trace. Cold path; last writer wins.
  void set_label(std::uint64_t ident, std::string label);

  /// Merge all metric cells, fixed id order. Only enabled metrics appear
  /// (with zero counts if nothing was recorded); spans never do.
  /// Deterministic for a given multiset of recorded events, independent of
  /// thread count.
  [[nodiscard]] Snapshot snapshot() const;

  /// Drain every span buffer into one vector sorted by event_before and
  /// reset the sequence counter — the flush-to-file primitive. Metric
  /// cells are untouched.
  [[nodiscard]] std::vector<SpanEvent> take_events();

  /// Drain the ident → label table, sorted by ident.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::string>>
  take_labels();

  /// Span events discarded because a slot's buffer hit kMaxEventsPerSlot.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Zero every metric cell and discard all span data (enabled set kept).
  void reset();

  /// Discard buffered events, labels, the dropped count and the sequence
  /// counter; metric cells are kept.
  void reset_spans();

  /// Slots allocated so far — 0 until the first enabled-probe record from
  /// some thread slot. Exposed so tests can pin the disabled path's
  /// zero-allocation guarantee.
  [[nodiscard]] std::size_t allocated_shards() const;

  /// Backstop against runaway span volume per thread slot (~40 MB/slot).
  static constexpr std::size_t kMaxEventsPerSlot = std::size_t{1} << 20;

 private:
  // Threads hash onto kShardSlots slots; two threads sharing a slot is
  // correct (atomic adds, a mutex around the span buffer), just contended.
  static constexpr std::size_t kShardSlots = 16;
  static constexpr std::size_t kCellsPerMetric = 2 + kNumBins;  // count, sum, bins

  struct Shard {
    std::array<std::atomic<std::uint64_t>, kNumProbes * kCellsPerMetric>
        cells{};
    std::mutex mu;  // guards events
    std::vector<SpanEvent> events;
  };

  // count += events, sum += value; timers/histograms bin `value` once
  // (they always record one event).
  void record(MetricId id, std::uint64_t value, std::uint64_t events = 1);
  void record_event(MetricId id, std::uint64_t ident, std::uint64_t start_ns,
                    std::uint64_t dur_ns);
  [[nodiscard]] Shard& shard_at(std::size_t slot);

  std::array<std::uint8_t, kNumProbes> enabled_{};
  std::size_t num_enabled_ = 0;
  std::array<std::atomic<Shard*>, kShardSlots> shards_{};
  std::atomic<std::uint64_t> sequence_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::mutex labels_mu_;
  std::vector<std::pair<std::uint64_t, std::string>> labels_;
};

/// The process-wide default sink (everything disabled until a CLI flag or
/// test enables it). ExecContext falls back to it when no explicit sink
/// is attached.
[[nodiscard]] Sink& global_sink();

/// Which half of the registry a selection reaches: `--metrics` names
/// counters, timers and histograms; `--trace-out` and `campaign --trace`
/// name spans and instants. So `--metrics all` starts no span, and the
/// reverse.
enum class Export : std::uint8_t { kMetrics, kSpans };

/// Enable a comma-separated selection on `sink`, within `scope`: "all",
/// "none", a subsystem ("exec"), or a full probe name
/// ("exec.queue_wait_ns"). Throws std::invalid_argument for selectors
/// matching nothing in scope.
void enable_selection(Sink& sink, std::string_view selection,
                      Export scope = Export::kMetrics);

}  // namespace varbench::metrics
