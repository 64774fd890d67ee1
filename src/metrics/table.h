// Metrics-as-data: export a Sink snapshot as a canonical study::ResultTable
// so `varbench report` renders metrics with the exact estimator/CI
// machinery used for study artifacts (one row per metric, "seq" first so
// merge/report treat it like any other table), plus the registry
// introspection payload behind `varbench metrics --list --json`.
#pragma once

#include <string>

#include "src/io/json.h"
#include "src/metrics/metrics.h"
#include "src/study/result_table.h"

namespace varbench::metrics {

/// One row per snapshot entry, id order. Columns: seq, metric, subsystem,
/// kind, unit, count, sum, mean, p50, p90, p99 (percentiles are integer
/// log2-bin upper bounds; 0 for counters). The table is spec-less (bench
/// provenance, not a study) but schema-valid: it saves, loads, merges and
/// reports like any artifact.
[[nodiscard]] study::ResultTable to_result_table(const Snapshot& snapshot,
                                                 std::string name = "metrics");

/// The metric half of the registry (spans are not listed) as a JSON array
/// (id order): one object per metric with {"id", "name", "subsystem",
/// "kind", "unit", "help"}. Callers wrap it in the CLI's {"tool",
/// "version", ...} envelope.
[[nodiscard]] io::Json registry_json();

/// Human-readable registry table (the `varbench metrics --list` body).
[[nodiscard]] std::string registry_text();

}  // namespace varbench::metrics
