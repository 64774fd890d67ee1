// Merging per-process trace files into one timeline, and exporting it.
//
// A campaign run leaves one trace file per producing process under
// `<state-dir>/traces/` (src/trace/file.h). The stitcher reads them in
// lexicographic file-name order — a deterministic function of the on-disk
// set, independent of scan order — and assigns each file a stable Chrome
// pid (index + 1). Timestamps are process-local monotonic clocks, so the
// exporter normalizes each process's timeline to start at 0 rather than
// pretending the clocks are comparable across processes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/io/json.h"
#include "src/study/result_table.h"
#include "src/trace/file.h"

namespace varbench::trace {

struct StitchedTrace {
  /// One entry per trace file, lexicographic by file name; Chrome pid is
  /// index + 1 (pid 0 is reserved by the trace-event format).
  std::vector<TraceFile> processes;

  [[nodiscard]] std::size_t total_spans() const;
};

/// Read every `<dir>/traces/*.trace.json`. Throws io::JsonError when the
/// traces/ directory is missing/empty (the actionable "did you pass
/// --trace?" case) or any file is malformed.
[[nodiscard]] StitchedTrace stitch_state_dir(const std::string& state_dir);

/// Chrome trace-event JSON (chrome://tracing, Perfetto): "X" duration
/// events for kSpan, "i" instants for kInstant, plus "M" process_name
/// metadata rows. ts/dur are microseconds, each process normalized to its
/// own earliest event. Ident hashes render as hex strings in args (JSON
/// doubles cannot hold them); labels recorded via Sink::set_label are
/// joined in as args.label.
[[nodiscard]] io::Json chrome_trace_json(const StitchedTrace& stitched);

/// Per-span aggregate across all processes, id order: count, total/mean/max
/// duration. A spec-less ResultTable so the report machinery renders it.
[[nodiscard]] study::ResultTable summary_table(const StitchedTrace& stitched);

/// The timestamp-free shape of a trace: every (span, ident) pair across all
/// processes, sorted. Two runs of the same campaign — at any worker or
/// thread split — must produce equal shapes (pinned by tests).
[[nodiscard]] std::vector<std::pair<metrics::MetricId, std::uint64_t>>
span_shape(
    const StitchedTrace& stitched);

}  // namespace varbench::trace
