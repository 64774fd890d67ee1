// The one clock of the instrumentation layer. Instrumented subsystems get
// wall time only from this header: varlint's no-wallclock rule whitelists
// src/metrics/ (docs/static_analysis.md), so callers elsewhere use
// ScopedTimer/Stopwatch/instant instead of reading clocks — and the enabled
// check happens BEFORE any clock read, keeping the disabled path free of
// syscalls.
//
// Timings are provenance, never identity: nothing here may flow into
// canonical_text() bytes (docs/determinism.md).
#pragma once

#include <chrono>
#include <cstdint>

#include "src/metrics/metrics.h"

namespace varbench::metrics {

/// Nanoseconds on the monotonic clock. Only meaningful as a difference
/// within one process — trace export normalizes per-process timelines.
[[nodiscard]] inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Manual start/stop timer for code that can't use RAII scoping.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(monotonic_ns()) {}

  [[nodiscard]] std::uint64_t elapsed_ns() const {
    return monotonic_ns() - start_ns_;
  }

  void restart() { start_ns_ = monotonic_ns(); }

 private:
  std::uint64_t start_ns_;
};

/// The one scoped probe: times its scope into a timer, a span, or both at
/// once. The clock is read only when one of them is enabled — a disabled
/// probe costs one branch per id at each end — and a timer and a span over
/// the same scope share one pair of clock reads.
class ScopedTimer {
 public:
  /// Observe the scope's duration under the timer `timer`.
  ScopedTimer(Sink& sink, MetricId timer)
      : ScopedTimer(sink, kNumProbes, 0, timer) {}

  /// Emit the scope as one `span` event carrying `ident`, and observe its
  /// duration under `timer` if one is given.
  ScopedTimer(Sink& sink, MetricId span, std::uint64_t ident,
              MetricId timer = kNumProbes)
      : sink_(sink),
        span_(span),
        timer_(timer),
        ident_(ident),
        live_(sink.is_enabled(span) || sink.is_enabled(timer)),
        start_ns_(live_ ? monotonic_ns() : 0) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (!live_) return;
    const std::uint64_t dur_ns = monotonic_ns() - start_ns_;
    sink_.observe(timer_, dur_ns);
    sink_.emit(span_, ident_, start_ns_, dur_ns);
  }

 private:
  Sink& sink_;
  MetricId span_;
  MetricId timer_;
  std::uint64_t ident_;
  bool live_;
  std::uint64_t start_ns_;
};

/// Record a point event. One branch when disabled.
inline void instant(Sink& sink, MetricId id, std::uint64_t ident) {
  if (!sink.is_enabled(id)) return;
  sink.emit(id, ident, monotonic_ns(), 0);
}

/// Manual begin/end pair for spans that cannot use RAII scoping (the
/// campaign coordinator opens a task's span at launch and closes it at
/// reap, across loop iterations). span_begin returns 0 when the span is
/// disabled; span_end is then a no-op.
[[nodiscard]] inline std::uint64_t span_begin(Sink& sink, MetricId id) {
  return sink.is_enabled(id) ? monotonic_ns() : 0;
}

inline void span_end(Sink& sink, MetricId id, std::uint64_t ident,
                     std::uint64_t begin_ns) {
  if (begin_ns == 0 || !sink.is_enabled(id)) return;
  sink.emit(id, ident, begin_ns, monotonic_ns() - begin_ns);
}

}  // namespace varbench::metrics
