// Streaming chunked VBT1 writer (ROADMAP item 1 follow-up).
//
// write_vbt holds the whole ResultTable plus the encoded file in memory —
// fine for figure studies, hopeless for 10^8-row campaign merges. The
// StreamWriter instead accepts rows one at a time, buffers a fixed-size
// row-group chunk, and spills full chunks to a temp file beside the
// output; finish() then elects column types, builds the dictionary, and
// streams the final file out chunk by chunk. Peak memory is bounded by
// one chunk (ncols x chunk_rows x 9 bytes) plus the string intern table —
// never by the row count.
//
// Byte-exactness contract: for the same metadata and row sequence,
// finish() produces exactly the bytes encode_vbt/write_vbt produce —
// same type election (accumulated as order-independent flags), same
// first-appearance column-major dictionary (provisional row-order intern
// ids are remapped in a column-major scan at finish), same block layout
// and zero padding. tests/test_resample_kernels.cpp pins this at several
// chunk sizes including non-divisor tails.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/study/result_table.h"

namespace varbench::io::columnar {

class StreamWriter {
 public:
  /// 64Ki rows x 9 bytes per cell ≈ 0.6 MB per column per chunk.
  static constexpr std::size_t kDefaultChunkRows = 65536;

  /// `prototype` supplies everything but the rows: name, spec, seed,
  /// shard, columns, and (when `include_provenance`) threads/wall time.
  /// Its own rows are ignored. Throws when it has no columns.
  StreamWriter(std::string path, const study::ResultTable& prototype,
               bool include_provenance = true,
               std::size_t chunk_rows = kDefaultChunkRows);

  /// Aborts (removes the spill and any partial output) unless finish()
  /// completed.
  ~StreamWriter();

  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  /// Append one row (arity-checked, scalar cells only). Spills a chunk to
  /// the temp file whenever `chunk_rows` rows have accumulated.
  void append(const study::Row& row);

  /// Elect types, build the dictionary, write the final byte-exact VBT
  /// file, and remove the spill. Must be called exactly once.
  void finish();

  [[nodiscard]] std::size_t rows_appended() const { return total_rows_; }

 private:
  struct ColumnState {
    // Chunk-local cell buffers: CellTag + 8-byte payload per cell
    // (strings carry a provisional intern id until finish()).
    std::vector<std::uint8_t> tags;
    std::vector<std::uint64_t> payloads;
    // Order-independent type-election flags, accumulated per cell —
    // the same booleans encode_vbt's elect_type derives from a full scan.
    bool has_double = false;
    bool has_uint = false;
    bool has_int = false;
    bool has_wide_uint = false;
    bool has_string = false;
    bool has_other = false;
  };

  void spill_chunk();
  void read_chunk_column(std::size_t chunk, std::size_t ci,
                         std::vector<std::uint8_t>& tags,
                         std::vector<std::uint64_t>& payloads);
  void abort_cleanup() noexcept;

  std::string path_;
  std::string spill_path_;
  study::ResultTable meta_;  // prototype minus rows
  bool include_provenance_;
  std::size_t chunk_rows_;
  std::size_t total_rows_ = 0;
  bool finished_ = false;

  std::vector<ColumnState> cols_;
  // Provisional string intern table, appearance order of append() calls.
  std::unordered_map<std::string, std::uint32_t> intern_;
  std::vector<std::string> strings_;

  std::FILE* spill_ = nullptr;              // write handle while appending
  std::vector<std::size_t> chunk_sizes_;    // rows per spilled chunk
  std::vector<std::uint64_t> chunk_offsets_;  // spill-file offsets
};

/// K-way streaming merge of VBT shard artifacts into one merged VBT file,
/// without materializing any table: shards are mmap'd, checked by
/// study::validate_merge (the validator merge_result_tables uses), and
/// their rows are merged in ascending "seq" order straight into a
/// StreamWriter. Byte-exact with encode_vbt(merge_result_tables(shards))
/// for the same inputs. Shards whose rows are not seq-sorted fall back to
/// the in-memory merge path (study runners always emit sorted shards).
/// Most callers want study::merge_artifacts, which picks this path.
study::MergedShape stream_merge_vbt(
    const std::vector<std::string>& shard_paths, const std::string& out_path,
    bool include_provenance = true,
    std::size_t chunk_rows = StreamWriter::kDefaultChunkRows);

}  // namespace varbench::io::columnar
