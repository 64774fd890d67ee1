// On-disk form of one process's trace: the `traces/*.trace.json` files a
// campaign state directory accumulates (docs/metrics.md) — the span export
// of a metrics::Sink. One file per
// producing process — worker or coordinator — so flushing never needs
// cross-process coordination; the stitcher (src/trace/stitch.h) merges
// them deterministically afterwards.
//
// Schema "varbench.trace.v1":
//   {
//     "schema": "varbench.trace.v1",
//     "process": "worker-s0-0of2",
//     "dropped": 0,
//     "spans": [{"span": "exec.chunk", "ident": ..., "tid": ...,
//                "start_ns": ..., "dur_ns": ...}, ...],
//     "labels": [{"ident": ..., "label": "s0-0of2"}, ...]
//   }
// Timestamps are process-local monotonic nanoseconds (only differences are
// meaningful); span names — not raw probe ids — are serialized, so files
// stay readable across builds as the registry grows.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/metrics.h"

namespace varbench::trace {

using metrics::SpanEvent;

struct TraceFile {
  std::string process;  // producing-process label, e.g. "worker-s0-0of2"
  std::uint64_t dropped = 0;  // events lost to the per-buffer cap
  std::vector<SpanEvent> spans;
  std::vector<std::pair<std::uint64_t, std::string>> labels;

  friend bool operator==(const TraceFile&, const TraceFile&) = default;
};

/// Drain the spans of `sink` (events and labels, emptying both buffers;
/// the dropped count is copied) into a TraceFile labeled `process`. Metric
/// cells are untouched.
[[nodiscard]] TraceFile drain(metrics::Sink& sink, std::string process);

/// Fold `extra`'s spans, labels, and dropped count into `into` (same
/// process), restoring the deterministic event order.
void append(TraceFile& into, TraceFile&& extra);

[[nodiscard]] std::string to_json_text(const TraceFile& file);

/// Parse one trace file document. Throws io::JsonError naming `path` on
/// malformed JSON, a wrong schema, a missing or mistyped field, or a name
/// that is not a span.
[[nodiscard]] TraceFile parse_trace_file(const std::string& text,
                                         const std::string& path);

/// write = serialize + io::write_file; read = io::read_file + parse.
void write_trace_file(const std::string& path, const TraceFile& file);
[[nodiscard]] TraceFile read_trace_file(const std::string& path);

/// The per-worker trace file name inside a state dir's traces/ directory:
/// "worker-<task_id>.trace.json".
[[nodiscard]] std::string worker_trace_name(const std::string& task_id);

}  // namespace varbench::trace
