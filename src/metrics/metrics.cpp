#include "src/metrics/metrics.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>

namespace varbench::metrics {

namespace {

std::vector<MetricDef> builtin_defs() {
  std::vector<MetricDef> defs;
  defs.reserve(static_cast<std::size_t>(kNumBuiltinMetrics));
#define VARBENCH_METRIC_DEF(sym, name, subsystem, unit, kind, help) \
  defs.push_back(MetricDef{name, subsystem, unit, MetricKind::kind, help});
  VARBENCH_BUILTIN_METRICS(VARBENCH_METRIC_DEF)
#undef VARBENCH_METRIC_DEF
  return defs;
}

struct Registry {
  std::vector<MetricDef> defs = builtin_defs();
  std::mutex mu;  // guards registration; id-indexed reads never resize away
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

std::string_view kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kTimer:
      return "timer";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "counter";
}

const std::vector<MetricDef>& metric_defs() { return registry().defs; }

std::size_t num_metrics() { return registry().defs.size(); }

MetricId metric_id(std::string_view name) {
  const auto& defs = registry().defs;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (defs[i].name == name) return static_cast<MetricId>(i);
  }
  throw std::invalid_argument{"metrics: unknown metric name '" +
                              std::string{name} + "'"};
}

MetricId register_metric(MetricDef def) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock{r.mu};
  for (const MetricDef& existing : r.defs) {
    if (existing.name == def.name) {
      throw std::invalid_argument{"metrics: metric name '" + def.name +
                                  "' is already registered"};
    }
  }
  r.defs.push_back(std::move(def));
  return static_cast<MetricId>(r.defs.size() - 1);
}

std::uint64_t MetricSnapshot::percentile_upper(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Smallest rank whose cumulative bin count reaches ceil(p * count).
  const auto target = static_cast<std::uint64_t>(
      p * static_cast<double>(count) + 0.999999999999);
  const std::uint64_t rank = std::max<std::uint64_t>(1, target);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kNumBins; ++i) {
    cumulative += bins[i];
    if (cumulative >= rank) return bin_upper(i);
  }
  return bin_upper(kNumBins - 1);
}

const MetricSnapshot* Snapshot::find(MetricId id) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.id == id) return &m;
  }
  return nullptr;
}

Sink::Sink() : enabled_(num_metrics(), 0) {}

Sink::~Sink() {
  for (auto& slot : shards_) {
    delete slot.load(std::memory_order_acquire);
  }
}

void Sink::enable(MetricId id) {
  if (id >= enabled_.size()) {
    throw std::invalid_argument{
        "metrics: enable() id out of range (metric registered after this "
        "Sink was constructed?)"};
  }
  if (enabled_[id] == 0) {
    enabled_[id] = 1;
    ++num_enabled_;
  }
}

void Sink::disable(MetricId id) {
  if (id < enabled_.size() && enabled_[id] != 0) {
    enabled_[id] = 0;
    --num_enabled_;
  }
}

void Sink::enable_all() {
  for (MetricId id = 0; id < enabled_.size(); ++id) enable(id);
}

void Sink::disable_all() {
  std::fill(enabled_.begin(), enabled_.end(), std::uint8_t{0});
  num_enabled_ = 0;
}

namespace {

/// Stable per-thread shard slot: threads round-robin onto slots in the
/// order they first record. (Slot choice only affects contention, never
/// snapshot values — integer adds commute across shards.)
std::size_t this_thread_slot(std::size_t num_slots) {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot % num_slots;
}

}  // namespace

Sink::Shard& Sink::shard_for_this_thread() {
  std::atomic<Shard*>& slot = shards_[this_thread_slot(kShardSlots)];
  Shard* existing = slot.load(std::memory_order_acquire);
  if (existing != nullptr) return *existing;
  auto fresh = std::make_unique<Shard>(enabled_.size() * kCellsPerMetric);
  Shard* expected = nullptr;
  if (slot.compare_exchange_strong(expected, fresh.get(),
                                   std::memory_order_acq_rel)) {
    return *fresh.release();
  }
  return *expected;  // another thread on this slot won the race
}

void Sink::record(MetricId id, std::uint64_t value, std::uint64_t events) {
  Shard& shard = shard_for_this_thread();
  std::atomic<std::uint64_t>* cells = shard.cells.get() + id * kCellsPerMetric;
  cells[0].fetch_add(events, std::memory_order_relaxed);
  cells[1].fetch_add(value, std::memory_order_relaxed);
  const MetricKind kind = metric_defs()[id].kind;
  if (kind != MetricKind::kCounter) {
    cells[2 + bin_index(value)].fetch_add(1, std::memory_order_relaxed);
  }
}

Snapshot Sink::snapshot() const {
  Snapshot snap;
  snap.metrics.reserve(num_enabled_);
  for (MetricId id = 0; id < enabled_.size(); ++id) {
    if (enabled_[id] == 0) continue;
    MetricSnapshot m;
    m.id = id;
    for (const auto& slot : shards_) {
      const Shard* shard = slot.load(std::memory_order_acquire);
      if (shard == nullptr) continue;
      const std::atomic<std::uint64_t>* cells =
          shard->cells.get() + id * kCellsPerMetric;
      m.count += cells[0].load(std::memory_order_relaxed);
      m.sum += cells[1].load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kNumBins; ++b) {
        m.bins[b] += cells[2 + b].load(std::memory_order_relaxed);
      }
    }
    snap.metrics.push_back(m);
  }
  return snap;
}

void Sink::reset() {
  for (auto& slot : shards_) {
    Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    const std::size_t n = enabled_.size() * kCellsPerMetric;
    for (std::size_t i = 0; i < n; ++i) {
      shard->cells[i].store(0, std::memory_order_relaxed);
    }
  }
}

std::size_t Sink::allocated_shards() const {
  std::size_t n = 0;
  for (const auto& slot : shards_) {
    if (slot.load(std::memory_order_acquire) != nullptr) ++n;
  }
  return n;
}

Sink& global_sink() {
  static Sink sink;
  return sink;
}

void enable_selection(Sink& sink, std::string_view selection) {
  std::size_t pos = 0;
  while (pos <= selection.size()) {
    std::size_t comma = selection.find(',', pos);
    if (comma == std::string_view::npos) comma = selection.size();
    std::string_view token = selection.substr(pos, comma - pos);
    pos = comma + 1;
    while (!token.empty() && token.front() == ' ') token.remove_prefix(1);
    while (!token.empty() && token.back() == ' ') token.remove_suffix(1);
    if (token.empty()) continue;
    if (token == "all") {
      sink.enable_all();
      continue;
    }
    if (token == "none") {
      sink.disable_all();
      continue;
    }
    const auto& defs = metric_defs();
    bool matched = false;
    for (std::size_t i = 0; i < defs.size(); ++i) {
      if (defs[i].name == token || defs[i].subsystem == token) {
        sink.enable(static_cast<MetricId>(i));
        matched = true;
      }
    }
    if (!matched) {
      throw std::invalid_argument{
          "metrics: selection '" + std::string{token} +
          "' matches no metric name or subsystem (try `varbench metrics "
          "--list`)"};
    }
  }
}

}  // namespace varbench::metrics
