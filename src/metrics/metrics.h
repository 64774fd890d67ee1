// Zero-overhead metrics registry (ROADMAP item 3, in the style of
// dismec++'s stats collection).
//
// Design contract (docs/metrics.md):
//   - Metrics are registered at compile time in VARBENCH_BUILTIN_METRICS;
//     a metric's id is its index in that list, so ids are small dense
//     integers that are stable across runs and builds (append-only list).
//   - `Sink::is_enabled(id)` is an inlined lookup into a flat byte vector:
//     a disabled metric costs ~one predictable branch, no locks, no clock
//     reads, no allocation. Everything expensive — clock reads
//     (ScopedTimer), derived values (observe_lazy) — sits behind that
//     branch.
//   - Recording goes to per-thread shards of relaxed atomic u64 cells.
//     Because every cell is an integer accumulator (count / sum / log2
//     histogram bins) and integer addition commutes, `snapshot()` merges
//     shards deterministically: the same multiset of events yields the
//     same snapshot regardless of thread count or interleaving. Enabling
//     metrics therefore never perturbs result bytes — metrics are pure
//     provenance, never identity (docs/determinism.md).
//
// This header is io-free and exec-free so that ExecContext can include it.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
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
};

[[nodiscard]] std::string_view kind_name(MetricKind kind);

struct MetricDef {
  std::string name;       // "exec.queue_wait_ns" — "<subsystem>.<metric>"
  std::string subsystem;  // "exec" | "campaign" | "io" | ...
  std::string unit;       // "ns", "count", "bytes", "indices", "threads"
  MetricKind kind = MetricKind::kCounter;
  std::string help;
};

// The compile-time metric list. Ids are indices into this list; append
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
    "row-group chunks flushed by the streaming VBT writer")

enum : MetricId {
#define VARBENCH_METRIC_ENUM(sym, name, subsystem, unit, kind, help) k##sym,
  VARBENCH_BUILTIN_METRICS(VARBENCH_METRIC_ENUM)
#undef VARBENCH_METRIC_ENUM
      kNumBuiltinMetrics
};

/// All registered metrics, id order: the builtin list above plus any
/// runtime `register_metric` extensions. Thread-safe snapshot-by-copy is
/// not needed — registration happens at startup, reads are id-indexed.
[[nodiscard]] const std::vector<MetricDef>& metric_defs();

[[nodiscard]] std::size_t num_metrics();

/// Id for `name`; throws std::invalid_argument for unknown names.
[[nodiscard]] MetricId metric_id(std::string_view name);

/// Register an extension metric (tests, out-of-tree subsystems). The new
/// id is `num_metrics() - 1` at return. Throws std::invalid_argument on a
/// name collision with any existing metric — ids must stay unambiguous.
/// Sinks constructed before the call do not track the new metric.
MetricId register_metric(MetricDef def);

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

/// A metrics sink: the object recording code talks to. Default state is
/// all-disabled, in which every record call is a branch on a byte load.
///
/// Thread model: add/observe/record are safe from any thread (relaxed
/// atomics on per-thread-slot shards); enable/disable/reset/snapshot are
/// coordinator-side operations and must not race with recorders.
class Sink {
 public:
  Sink();
  ~Sink();
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  /// Hot-path gate. Inlined: bounds check + byte load.
  [[nodiscard]] bool is_enabled(MetricId id) const {
    return id < enabled_.size() && enabled_[id] != 0;
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

  /// Merge all shards, fixed id order. Only enabled metrics appear (with
  /// zero counts if nothing was recorded). Deterministic for a given
  /// multiset of recorded events, independent of thread count.
  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every cell (enabled set is kept).
  void reset();

  /// Shards allocated so far — 0 until the first enabled-metric record
  /// from some thread slot. Exposed so tests can pin the disabled path's
  /// zero-allocation guarantee.
  [[nodiscard]] std::size_t allocated_shards() const;

 private:
  // Threads hash onto kShardSlots slots; two threads sharing a slot is
  // correct (atomic adds), just contended.
  static constexpr std::size_t kShardSlots = 16;
  static constexpr std::size_t kCellsPerMetric = 2 + kNumBins;  // count, sum, bins

  struct Shard {
    explicit Shard(std::size_t num_cells)
        : cells(new std::atomic<std::uint64_t>[num_cells]{}) {}
    std::unique_ptr<std::atomic<std::uint64_t>[]> cells;
  };

  // count += events, sum += value; timers/histograms bin `value` once
  // (they always record one event).
  void record(MetricId id, std::uint64_t value, std::uint64_t events = 1);
  [[nodiscard]] Shard& shard_for_this_thread();

  std::vector<std::uint8_t> enabled_;
  std::size_t num_enabled_ = 0;
  std::array<std::atomic<Shard*>, kShardSlots> shards_{};
};

/// The process-wide default sink (all metrics disabled until a CLI flag
/// or test enables them). ExecContext falls back to it when no explicit
/// sink is attached.
[[nodiscard]] Sink& global_sink();

/// Enable a comma-separated selection on `sink`: "all", "none", a
/// subsystem ("exec"), or a full metric name ("exec.queue_wait_ns").
/// Throws std::invalid_argument for selectors matching nothing.
void enable_selection(Sink& sink, std::string_view selection);

}  // namespace varbench::metrics
