#include "src/metrics/metrics.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <tuple>

namespace varbench::metrics {

std::string_view kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kTimer:
      return "timer";
    case MetricKind::kHistogram:
      return "histogram";
    case MetricKind::kSpan:
      return "span";
    case MetricKind::kInstant:
      return "instant";
  }
  return "counter";
}

MetricId metric_id(std::string_view name) {
  for (std::size_t i = 0; i < kMetricDefs.size(); ++i) {
    if (kMetricDefs[i].name == name) return static_cast<MetricId>(i);
  }
  throw std::invalid_argument{"metrics: unknown metric name '" +
                              std::string{name} + "'"};
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

bool event_before(const SpanEvent& a, const SpanEvent& b) {
  return std::tie(a.start_ns, a.span, a.ident, a.tid, a.dur_ns) <
         std::tie(b.start_ns, b.span, b.ident, b.tid, b.dur_ns);
}

Sink::~Sink() {
  for (auto& slot : shards_) {
    delete slot.load(std::memory_order_acquire);
  }
}

void Sink::enable(MetricId id) {
  if (id >= kNumProbes) {
    throw std::invalid_argument{"metrics: enable() id out of range"};
  }
  if (enabled_[id] == 0) {
    enabled_[id] = 1;
    ++num_enabled_;
  }
}

void Sink::disable(MetricId id) {
  if (id < kNumProbes && enabled_[id] != 0) {
    enabled_[id] = 0;
    --num_enabled_;
  }
}

void Sink::enable_all() {
  for (MetricId id = 0; id < kNumProbes; ++id) enable(id);
}

void Sink::disable_all() {
  enabled_.fill(0);
  num_enabled_ = 0;
}

namespace {

/// Stable per-thread slot: threads round-robin onto slots in the order
/// they first record. The slot only affects contention and the events'
/// presentation-only `tid`, never snapshot values (integer adds commute)
/// or drained event order (event_before).
std::size_t this_thread_slot(std::size_t num_slots) {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot % num_slots;
}

}  // namespace

Sink::Shard& Sink::shard_at(std::size_t slot_index) {
  std::atomic<Shard*>& slot = shards_[slot_index];
  Shard* existing = slot.load(std::memory_order_acquire);
  if (existing != nullptr) return *existing;
  auto fresh = std::make_unique<Shard>();
  Shard* expected = nullptr;
  if (slot.compare_exchange_strong(expected, fresh.get(),
                                   std::memory_order_acq_rel)) {
    return *fresh.release();
  }
  return *expected;  // another thread on this slot won the race
}

void Sink::record(MetricId id, std::uint64_t value, std::uint64_t events) {
  Shard& shard = shard_at(this_thread_slot(kShardSlots));
  std::atomic<std::uint64_t>* cells = &shard.cells[id * kCellsPerMetric];
  cells[0].fetch_add(events, std::memory_order_relaxed);
  cells[1].fetch_add(value, std::memory_order_relaxed);
  if (kMetricDefs[id].kind != MetricKind::kCounter) {
    cells[2 + bin_index(value)].fetch_add(1, std::memory_order_relaxed);
  }
}

void Sink::record_event(MetricId id, std::uint64_t ident,
                        std::uint64_t start_ns, std::uint64_t dur_ns) {
  const std::size_t slot = this_thread_slot(kShardSlots);
  Shard& shard = shard_at(slot);
  const std::lock_guard<std::mutex> lock{shard.mu};
  if (shard.events.size() >= kMaxEventsPerSlot) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  shard.events.push_back(SpanEvent{id, ident, slot, start_ns, dur_ns});
}

void Sink::set_label(std::uint64_t ident, std::string label) {
  const std::lock_guard<std::mutex> lock{labels_mu_};
  for (auto& [known, text] : labels_) {
    if (known == ident) {
      text = std::move(label);
      return;
    }
  }
  labels_.emplace_back(ident, std::move(label));
}

Snapshot Sink::snapshot() const {
  Snapshot snap;
  for (MetricId id = 0; id < kNumProbes; ++id) {
    if (enabled_[id] == 0 || is_span(kMetricDefs[id].kind)) continue;
    MetricSnapshot m;
    m.id = id;
    for (const auto& slot : shards_) {
      const Shard* shard = slot.load(std::memory_order_acquire);
      if (shard == nullptr) continue;
      const std::atomic<std::uint64_t>* cells =
          &shard->cells[id * kCellsPerMetric];
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

std::vector<SpanEvent> Sink::take_events() {
  std::vector<SpanEvent> out;
  for (auto& slot : shards_) {
    Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    const std::lock_guard<std::mutex> lock{shard->mu};
    out.insert(out.end(), shard->events.begin(), shard->events.end());
    shard->events.clear();
  }
  std::sort(out.begin(), out.end(), event_before);
  sequence_.store(0, std::memory_order_relaxed);
  return out;
}

std::vector<std::pair<std::uint64_t, std::string>> Sink::take_labels() {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  {
    const std::lock_guard<std::mutex> lock{labels_mu_};
    out.swap(labels_);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void Sink::reset() {
  for (auto& slot : shards_) {
    Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    for (auto& cell : shard->cells) cell.store(0, std::memory_order_relaxed);
  }
  reset_spans();
}

void Sink::reset_spans() {
  (void)take_events();
  (void)take_labels();
  dropped_.store(0, std::memory_order_relaxed);
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

void enable_selection(Sink& sink, std::string_view selection, Export scope) {
  const auto in_scope = [scope](const MetricDef& def) {
    return is_span(def.kind) == (scope == Export::kSpans);
  };
  std::size_t pos = 0;
  while (pos <= selection.size()) {
    std::size_t comma = selection.find(',', pos);
    if (comma == std::string_view::npos) comma = selection.size();
    std::string_view token = selection.substr(pos, comma - pos);
    pos = comma + 1;
    while (!token.empty() && token.front() == ' ') token.remove_prefix(1);
    while (!token.empty() && token.back() == ' ') token.remove_suffix(1);
    if (token.empty()) continue;
    bool matched = false;
    for (MetricId id = 0; id < kNumProbes; ++id) {
      const MetricDef& def = kMetricDefs[id];
      if (!in_scope(def)) continue;
      if (token == "none") {
        sink.disable(id);
      } else if (token == "all" || def.name == token ||
                 def.subsystem == token) {
        sink.enable(id);
      } else {
        continue;
      }
      matched = true;
    }
    if (!matched) {
      const bool spans = scope == Export::kSpans;
      throw std::invalid_argument{
          std::string{spans ? "trace" : "metrics"} + ": selection '" +
          std::string{token} + "' matches no " +
          (spans ? "span name or subsystem (docs/metrics.md lists them)"
                 : "metric name or subsystem (try `varbench metrics "
                   "--list`)")};
    }
  }
}

}  // namespace varbench::metrics
