// VBT1 binary columnar artifacts: a deterministic writer and an
// mmap-backed zero-copy reader for study::ResultTable (docs/artifacts.md).
//
// The writer (`encode_vbt`) is lossless against the JSON artifact: for any
// table, materializing the encoded bytes back (`MappedTable::open` +
// `materialize`) reproduces `canonical_text()` byte for byte, because the
// metadata block *is* the canonical JSON document minus its "rows" and the
// column blocks preserve every cell's exact value and JSON number kind.
//
// The reader maps the file read-only and validates the whole block layout
// up front (magic, version, bounds, 64-byte alignment, overlap, dictionary
// indices, mixed-cell tags) — every failure is an io::JsonError naming the
// path and the byte offset of the offending structure. After open(),
// homogeneous f64 columns surface as std::span<const double> straight off
// the mapping: no parsing, no io::Json cells, no copies.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/io/columnar/format.h"
#include "src/io/json.h"

namespace varbench::study {
class ResultTable;
}  // namespace varbench::study

namespace varbench::io::columnar {

/// Serialize `table` to VBT1 bytes. `include_provenance` mirrors
/// ResultTable::to_json: identity-only bytes (false) are the canonical,
/// byte-comparable form merged artifacts are written in.
[[nodiscard]] std::string encode_vbt(const study::ResultTable& table,
                                     bool include_provenance = true);

/// encode_vbt + io::write_file.
void write_vbt(const std::string& path, const study::ResultTable& table,
               bool include_provenance = true);

/// True when the first bytes of `data` carry the VBT1 magic — the sniff
/// ResultTable::load uses to dispatch between JSON and binary.
[[nodiscard]] bool has_vbt_magic(std::span<const unsigned char> data);

/// A validated, read-only view of a VBT1 file. The file stays mapped (or
/// buffered, on platforms without mmap) for the lifetime of the object;
/// spans returned by the accessors point into that mapping and share its
/// lifetime — hold the MappedTable (e.g. via ResultTable::backing) while
/// using them.
class MappedTable {
 public:
  /// Map + validate. Throws io::JsonError naming `path` and a byte offset
  /// on any structural defect (bad magic, unsupported version, truncation,
  /// misaligned or overlapping blocks, dangling dictionary index, unknown
  /// mixed-cell tag, metadata that is not a valid artifact document).
  [[nodiscard]] static std::shared_ptr<const MappedTable> open(
      const std::string& path);

  ~MappedTable();
  MappedTable(const MappedTable&) = delete;
  MappedTable& operator=(const MappedTable&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t num_rows() const { return rows_; }
  [[nodiscard]] std::size_t num_columns() const { return columns_.size(); }
  [[nodiscard]] const std::vector<std::string>& column_names() const {
    return names_;
  }
  [[nodiscard]] ColumnType column_type(std::size_t ci) const;

  /// The artifact metadata document (canonical JSON minus "rows"):
  /// schema, name, optional spec, meta.seed/shard, optional provenance.
  [[nodiscard]] const Json& metadata() const { return meta_; }

  /// Zero-copy payloads. Each throws io::JsonError unless the column has
  /// the matching type; f64_column is the stats-kernel fast path.
  [[nodiscard]] std::span<const double> f64_column(std::size_t ci) const;
  [[nodiscard]] std::span<const std::int64_t> i64_column(std::size_t ci) const;
  [[nodiscard]] std::span<const std::uint64_t> u64_column(
      std::size_t ci) const;
  [[nodiscard]] std::span<const std::uint32_t> dict_indices(
      std::size_t ci) const;
  /// kMixed accessors: one CellTag per row, one u64 payload per row.
  [[nodiscard]] std::span<const std::uint8_t> mixed_tags(std::size_t ci) const;
  [[nodiscard]] std::span<const std::uint64_t> mixed_payload(
      std::size_t ci) const;

  /// The file dictionary (empty when no column stores strings).
  [[nodiscard]] const std::vector<std::string>& dictionary() const {
    return dict_;
  }

  /// Decode one cell to its exact io::Json value (the materialization
  /// primitive; per-cell, so prefer the span accessors on hot paths).
  [[nodiscard]] Json cell(std::size_t row, std::size_t ci) const;

 private:
  MappedTable() = default;

  struct Column {
    ColumnType type = ColumnType::kF64;
    const unsigned char* data = nullptr;
    const unsigned char* aux = nullptr;  // kMixed tags
  };

  [[nodiscard]] const Column& column_at(std::size_t ci,
                                        ColumnType wanted) const;

  std::string path_;
  const unsigned char* base_ = nullptr;  // mapping (or fallback buffer)
  std::size_t size_ = 0;
  bool mmapped_ = false;
  std::size_t rows_ = 0;
  Json meta_;
  std::vector<std::string> names_;
  std::vector<std::string> dict_;
  std::vector<Column> columns_;
};

/// The table `mapped` holds, minus its rows: the metadata block parsed
/// through ResultTable::from_json (errors name the path), with `mapped`
/// attached as its backing.
[[nodiscard]] study::ResultTable read_metadata(
    std::shared_ptr<const MappedTable> mapped);

/// Build the in-memory ResultTable for `mapped`, reusing the JSON reader's
/// validation (the metadata block plus decoded rows go through
/// ResultTable::from_json), and attach `mapped` as the table's backing so
/// column_values/column_span take the zero-copy path.
[[nodiscard]] study::ResultTable materialize(
    std::shared_ptr<const MappedTable> mapped);

}  // namespace varbench::io::columnar
