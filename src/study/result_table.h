// The canonical result artifact: one named-column table of raw,
// per-repetition values plus the metadata needed to reproduce and merge it
// (spec, seed, shard, threads, wall time). Tables hold raw measures — not
// aggregates — so that merging shard tables reconstructs the unsharded
// result exactly and every summary statistic is derivable downstream.
//
// Identity vs provenance: columns, rows, spec, seed, and shard define WHAT
// was computed and are bit-stable under the determinism contract; threads
// and wall time describe HOW it was computed and can never be (wall time is
// wall time). `to_json(false)` / `canonical_text()` serialize identity
// only — that is the form the shard/merge equality check and the CI diff
// operate on (docs/study_api.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/io/json.h"
#include "src/study/study_spec.h"

namespace varbench::io::columnar {
class MappedTable;
}  // namespace varbench::io::columnar

namespace varbench::study {

/// On-disk artifact encodings. kJson is the human-readable interchange and
/// debug format; kBinary is the VBT1 columnar format (src/io/columnar/,
/// docs/artifacts.md) — lossless in both directions. kAuto resolves from
/// the file name: a ".vbt" extension (also behind a trailing ".part")
/// means binary, anything else JSON.
enum class ArtifactFormat { kAuto, kJson, kBinary };

/// The kAuto resolution rule, shared by save(), the CLI, and the campaign
/// launchers. Never returns kAuto.
[[nodiscard]] ArtifactFormat infer_artifact_format(std::string_view path);

/// Cells are scalar JSON values (numbers keep their kind, strings stay
/// strings), so serialization is exact in both directions.
using Cell = io::Json;
using Row = std::vector<Cell>;

class ResultTable {
 public:
  /// Artifact name, e.g. "variance:cifar10_vgg11" or a bench figure id.
  std::string name;
  /// The producing spec, in execution-normal form: shard cleared (the
  /// artifact's own slice lives in `shard`) and threads reset to 1 — both
  /// are execution details results are invariant to; `provenance` records
  /// the actual values. Absent for tables emitted by bench harnesses that
  /// are not spec-driven.
  std::optional<StudySpec> spec;
  ShardSpec shard;             // which slice of the study this table holds
  std::uint64_t seed = 0;      // identity metadata (== spec->seed when set)
  std::size_t threads = 1;     // provenance
  double wall_time_ms = 0.0;   // provenance

  std::vector<std::string> columns;
  std::vector<Row> rows;

  /// When this table was materialized from a VBT1 binary artifact, the
  /// live mapping it was decoded from. column_span/column_values read
  /// column payloads straight off it instead of unpacking io::Json cells.
  /// Not part of the table's value (operator== ignores it) and dropped by
  /// merge; spans into it are valid only while `rows` is unmodified since
  /// materialization (column_span re-checks the row count).
  std::shared_ptr<const io::columnar::MappedTable> backing;

  /// Append with arity check; the first column is conventionally "seq", the
  /// row's global position in the unsharded enumeration (merge sorts on it).
  void add_row(Row row);

  [[nodiscard]] std::size_t column_index(std::string_view column) const;
  [[nodiscard]] bool has_column(std::string_view column) const;

  /// All values of one column as doubles (throws on non-numeric cells).
  /// Columnar-backed f64 columns copy contiguously from the mapping.
  [[nodiscard]] std::vector<double> column_values(
      std::string_view column) const;

  /// Zero-copy view of an f64 column when this table is columnar-backed
  /// and the column is stored as contiguous doubles; std::nullopt
  /// otherwise (callers fall back to column_values). The span points into
  /// the backing mapping — keep the table (or its `backing`) alive.
  [[nodiscard]] std::optional<std::span<const double>> column_span(
      std::string_view column) const;

  [[nodiscard]] bool is_complete() const { return shard.is_unsharded(); }

  /// Value equality over identity + provenance fields; the columnar
  /// backing is a load-path detail and is deliberately not compared.
  friend bool operator==(const ResultTable& a, const ResultTable& b) {
    return a.name == b.name && a.spec == b.spec && a.shard == b.shard &&
           a.seed == b.seed && a.threads == b.threads &&
           a.wall_time_ms == b.wall_time_ms && a.columns == b.columns &&
           a.rows == b.rows;
  }

  [[nodiscard]] io::Json to_json(bool include_provenance = true) const;
  /// The to_json document without its "rows" — the metadata block a VBT1
  /// binary artifact embeds verbatim (src/io/columnar/).
  [[nodiscard]] io::Json meta_json(bool include_provenance = true) const;
  [[nodiscard]] std::string to_json_text(bool include_provenance = true) const;
  /// Identity-only serialization — byte-comparable across shard/merge runs
  /// and thread counts.
  [[nodiscard]] std::string canonical_text() const {
    return to_json_text(/*include_provenance=*/false);
  }

  /// RFC-4180-style CSV of the data (header + rows; metadata is JSON-only).
  [[nodiscard]] std::string to_csv() const;

  [[nodiscard]] static ResultTable from_json(const io::Json& doc);
  [[nodiscard]] static ResultTable from_json_text(std::string_view text);

  /// Serialize to `path` in the given format (kAuto: see
  /// infer_artifact_format). Binary saves carry provenance unless told
  /// otherwise, same as to_json_text.
  void save(const std::string& path, ArtifactFormat format = ArtifactFormat::kAuto,
            bool include_provenance = true) const;

  /// Read + parse + validate an artifact file in one step, dispatching on
  /// content: files opening with the VBT1 magic load through the
  /// mmap-backed columnar reader (and come back columnar-backed), anything
  /// else parses as JSON — whatever the extension says. Every failure —
  /// unreadable file, malformed JSON, unknown schema, corrupt binary
  /// block, shape violation — is an io::JsonError naming the path, so
  /// batch consumers (report, merge, campaign) can say exactly which file
  /// is bad.
  [[nodiscard]] static ResultTable load(const std::string& path);
};

/// Join shard tables into the exact unsharded table: validates that all
/// shards share one spec/columns/seed and form a complete partition
/// 0..count-1, concatenates the rows, and restores canonical row order by
/// the "seq" column (which must come out as exactly 0..n-1). The merged
/// provenance is threads = 0 (mixed) and wall_time_ms = Σ shard wall times.
/// Throws io::JsonError on incompatible, missing, or overlapping shards.
[[nodiscard]] ResultTable merge_result_tables(std::vector<ResultTable> shards);

/// The one merge validator, called by merge_result_tables and by the
/// streamed VBT merge (io::columnar::stream_merge_vbt) so both fail with
/// the same messages. Checks that `shards` (rows ignored) hold every shard
/// of one study exactly once, with matching name, spec, seed and columns;
/// sorts them by shard index; and returns the merged table's metadata with
/// no rows: unsharded, threads = 0, wall_time_ms = Σ shard wall times.
[[nodiscard]] ResultTable validate_merge(std::vector<ResultTable>& shards);

/// Throws the merge's sequence-break error unless the row merged at
/// `position` carries seq == position (both merge paths call it).
void check_merge_seq(std::size_t position, std::uint64_t seq);

/// A merged table's metadata (rows left empty) and its row count: enough
/// to describe a merged artifact without reading its rows back.
struct MergedShape {
  ResultTable meta;
  std::size_t num_rows = 0;
};

/// Merge shard artifact files into one canonical (identity-only) artifact
/// at `out_path` (kAuto: see infer_artifact_format). When every input opens
/// with the VBT1 magic and the output is binary, the shards stream through
/// io::columnar::stream_merge_vbt: peak memory is the mapped inputs plus
/// one row-group chunk. Otherwise (JSON or mixed inputs, JSON output) they
/// load and go through merge_result_tables. The bytes are the same either
/// way. Both write `<out_path>.tmp-merge` and rename it into place, so
/// `out_path` may name one of the (mapped) inputs.
MergedShape merge_artifacts(const std::vector<std::string>& shard_paths,
                            const std::string& out_path,
                            ArtifactFormat format = ArtifactFormat::kAuto);

}  // namespace varbench::study
