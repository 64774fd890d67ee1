#include "src/io/columnar/stream_writer.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>

#include "src/io/columnar/format.h"
#include "src/io/columnar/vbt.h"
#include "src/metrics/metrics.h"

namespace varbench::io::columnar {

namespace fs = std::filesystem;

namespace {

using study::ResultTable;
using study::Row;

std::size_t element_bytes(ColumnType type) {
  switch (type) {
    case ColumnType::kF64:
    case ColumnType::kI64:
    case ColumnType::kU64:
    case ColumnType::kMixed:
      return 8;
    case ColumnType::kStringDict:
      return 4;
  }
  return 0;
}

/// A buffered sequential writer that tracks the absolute offset and can
/// zero-pad forward — how the streaming path reproduces encode_vbt's
/// deterministic inter-block padding without a full in-memory image.
class PaddedFile {
 public:
  PaddedFile(std::FILE* f, const std::string& path) : f_(f), path_(path) {}

  void write(const void* data, std::size_t bytes) {
    if (bytes == 0) return;
    if (std::fwrite(data, 1, bytes, f_) != bytes) {
      throw JsonError("cannot write '" + path_ + "': " + std::strerror(errno));
    }
    pos_ += bytes;
  }

  /// Zero-fill up to `offset` (the next block's aligned start).
  void pad_to(std::uint64_t offset) {
    static constexpr char kZeros[kBlockAlign] = {};
    while (pos_ < offset) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(offset - pos_, sizeof kZeros));
      write(kZeros, n);
    }
  }

  [[nodiscard]] std::uint64_t pos() const { return pos_; }

 private:
  std::FILE* f_;
  const std::string& path_;
  std::uint64_t pos_ = 0;
};

/// A shard's "seq" column read off its mapping: integer encodings through
/// their typed spans, anything else through cell(). Values and errors are
/// those of the in-memory merge's Json::as_uint64().
class SeqColumn {
 public:
  SeqColumn(const MappedTable& m, std::size_t ci) : m_(m), ci_(ci) {
    if (m.column_type(ci) == ColumnType::kU64) u64_ = m.u64_column(ci);
    if (m.column_type(ci) == ColumnType::kI64) i64_ = m.i64_column(ci);
  }

  [[nodiscard]] std::uint64_t at(std::size_t r) const {
    if (!u64_.empty()) return u64_[r];
    if (!i64_.empty() && i64_[r] >= 0) {
      return static_cast<std::uint64_t>(i64_[r]);
    }
    return m_.cell(r, ci_).as_uint64();  // throws on negatives
  }

 private:
  const MappedTable& m_;
  std::size_t ci_;
  std::span<const std::uint64_t> u64_;
  std::span<const std::int64_t> i64_;
};

}  // namespace

StreamWriter::StreamWriter(std::string path,
                           const study::ResultTable& prototype,
                           bool include_provenance, std::size_t chunk_rows)
    : path_(std::move(path)),
      spill_path_(path_ + ".spill"),
      include_provenance_(include_provenance),
      chunk_rows_(chunk_rows == 0 ? 1 : chunk_rows) {
  if (prototype.columns.empty()) {
    throw JsonError("columnar stream '" + path_ + "': table '" +
                    prototype.name + "' has no columns");
  }
  meta_.name = prototype.name;
  meta_.spec = prototype.spec;
  meta_.shard = prototype.shard;
  meta_.seed = prototype.seed;
  meta_.threads = prototype.threads;
  meta_.wall_time_ms = prototype.wall_time_ms;
  meta_.columns = prototype.columns;
  cols_.resize(meta_.columns.size());
  for (ColumnState& c : cols_) {
    c.tags.reserve(chunk_rows_);
    c.payloads.reserve(chunk_rows_);
  }
}

StreamWriter::~StreamWriter() {
  if (!finished_) abort_cleanup();
}

void StreamWriter::abort_cleanup() noexcept {
  if (spill_ != nullptr) {
    std::fclose(spill_);
    spill_ = nullptr;
  }
  std::error_code ec;
  fs::remove(spill_path_, ec);
  fs::remove(path_, ec);
}

void StreamWriter::append(const study::Row& row) {
  if (finished_) {
    throw JsonError("columnar stream '" + path_ +
                    "': append after finish()");
  }
  if (row.size() != cols_.size()) {
    throw JsonError("columnar stream '" + path_ + "': row " +
                    std::to_string(total_rows_) + " has " +
                    std::to_string(row.size()) + " cell(s), table '" +
                    meta_.name + "' has " + std::to_string(cols_.size()) +
                    " column(s)");
  }
  for (std::size_t ci = 0; ci < cols_.size(); ++ci) {
    ColumnState& col = cols_[ci];
    const Json& cell = row[ci];
    CellTag tag = CellTag::kNull;
    std::uint64_t payload = 0;
    switch (cell.type()) {
      case Json::Type::kNull:
        col.has_other = true;
        break;
      case Json::Type::kBool:
        col.has_other = true;
        tag = cell.as_bool() ? CellTag::kTrue : CellTag::kFalse;
        break;
      case Json::Type::kNumber:
        switch (cell.number_kind()) {
          case Json::NumKind::kDouble: {
            col.has_double = true;
            tag = CellTag::kF64;
            const double d = cell.as_double();
            std::memcpy(&payload, &d, 8);
            break;
          }
          case Json::NumKind::kUint:
            col.has_uint = true;
            col.has_wide_uint |=
                cell.as_uint64() > static_cast<std::uint64_t>(INT64_MAX);
            tag = CellTag::kU64;
            payload = cell.as_uint64();
            break;
          case Json::NumKind::kInt: {
            col.has_int = true;
            tag = CellTag::kI64;
            const std::int64_t i = cell.as_int64();
            std::memcpy(&payload, &i, 8);
            break;
          }
        }
        break;
      case Json::Type::kString: {
        col.has_string = true;
        tag = CellTag::kString;
        const std::string& s = cell.as_string();
        const auto it = intern_.find(s);
        if (it != intern_.end()) {
          payload = it->second;
        } else {
          if (strings_.size() >= UINT32_MAX) {
            throw JsonError("columnar stream '" + path_ +
                            "': more than 2^32-1 distinct strings");
          }
          const auto id = static_cast<std::uint32_t>(strings_.size());
          strings_.push_back(s);
          intern_.emplace(s, id);
          payload = id;
        }
        break;
      }
      default:
        throw JsonError("columnar stream '" + path_ +
                        "': cells must be scalars, got " + cell.dump() +
                        " at row " + std::to_string(total_rows_) +
                        " of column '" + meta_.columns[ci] + "'");
    }
    col.tags.push_back(static_cast<std::uint8_t>(tag));
    col.payloads.push_back(payload);
  }
  ++total_rows_;
  if (cols_.front().tags.size() >= chunk_rows_) spill_chunk();
}

void StreamWriter::spill_chunk() {
  const std::size_t rows = cols_.front().tags.size();
  if (rows == 0) return;
  if (spill_ == nullptr) {
    spill_ = std::fopen(spill_path_.c_str(), "wb+");
    if (spill_ == nullptr) {
      throw JsonError("cannot open spill '" + spill_path_ +
                      "': " + std::strerror(errno));
    }
  }
  std::uint64_t offset = chunk_offsets_.empty()
                             ? 0
                             : chunk_offsets_.back() +
                                   static_cast<std::uint64_t>(
                                       chunk_sizes_.back() * 9 * cols_.size());
  chunk_offsets_.push_back(offset);
  chunk_sizes_.push_back(rows);
  for (ColumnState& col : cols_) {
    if (std::fwrite(col.tags.data(), 1, rows, spill_) != rows ||
        std::fwrite(col.payloads.data(), 8, rows, spill_) != rows) {
      throw JsonError("cannot write spill '" + spill_path_ +
                      "': " + std::strerror(errno));
    }
    col.tags.clear();
    col.payloads.clear();
  }
  metrics::global_sink().add(metrics::kIoStreamChunks);
}

void StreamWriter::read_chunk_column(std::size_t chunk, std::size_t ci,
                                     std::vector<std::uint8_t>& tags,
                                     std::vector<std::uint64_t>& payloads) {
  if (chunk < chunk_sizes_.size()) {
    const std::size_t rows = chunk_sizes_[chunk];
    tags.resize(rows);
    payloads.resize(rows);
    const std::uint64_t at =
        chunk_offsets_[chunk] + static_cast<std::uint64_t>(ci * rows * 9);
    if (std::fseek(spill_, static_cast<long>(at), SEEK_SET) != 0 ||
        std::fread(tags.data(), 1, rows, spill_) != rows ||
        std::fread(payloads.data(), 8, rows, spill_) != rows) {
      throw JsonError("cannot read spill '" + spill_path_ + "' at offset " +
                      std::to_string(at) + ": " + std::strerror(errno));
    }
    return;
  }
  // The final partial chunk never hits the spill; copy from live buffers.
  tags = cols_[ci].tags;
  payloads = cols_[ci].payloads;
}

void StreamWriter::finish() {
  if (finished_) {
    throw JsonError("columnar stream '" + path_ + "': finish() called twice");
  }
  const std::size_t ncols = cols_.size();
  const bool have_tail = !cols_.front().tags.empty();
  const std::size_t num_chunks = chunk_sizes_.size() + (have_tail ? 1 : 0);
  if (have_tail) {
    // Count the tail as a flushed row group too — io.stream_chunks equals
    // the number of row groups the file passed through.
    metrics::global_sink().add(metrics::kIoStreamChunks);
  }
  if (spill_ != nullptr && std::fflush(spill_) != 0) {
    throw JsonError("cannot flush spill '" + spill_path_ +
                    "': " + std::strerror(errno));
  }

  // Type election from the accumulated flags — the same decision table as
  // encode_vbt's elect_type, which scans the cells it no longer has.
  std::vector<ColumnType> types(ncols);
  for (std::size_t ci = 0; ci < ncols; ++ci) {
    const ColumnState& c = cols_[ci];
    const bool has_integer = c.has_uint || c.has_int;
    if (c.has_other || (c.has_string && (c.has_double || has_integer)) ||
        (c.has_double && has_integer) || (c.has_wide_uint && c.has_int)) {
      types[ci] = ColumnType::kMixed;
    } else if (c.has_string) {
      types[ci] = ColumnType::kStringDict;
    } else if (c.has_wide_uint) {
      types[ci] = ColumnType::kU64;
    } else if (has_integer) {
      types[ci] = ColumnType::kI64;
    } else {
      types[ci] = ColumnType::kF64;  // all doubles — and the empty default
    }
  }

  // Final dictionary: first appearance in column-major order (outer loop
  // dictionary-bearing columns, inner loop rows) — exactly the order
  // encode_vbt interns in. Provisional ids (append order) remap to it.
  std::vector<std::uint32_t> remap(strings_.size(), 0);
  std::vector<std::uint8_t> seen(strings_.size(), 0);
  std::vector<std::uint32_t> final_order;
  std::uint64_t dict_bytes = 0;
  std::vector<std::uint8_t> tags;
  std::vector<std::uint64_t> payloads;
  for (std::size_t ci = 0; ci < ncols; ++ci) {
    if (types[ci] != ColumnType::kStringDict &&
        types[ci] != ColumnType::kMixed) {
      continue;
    }
    for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
      read_chunk_column(chunk, ci, tags, payloads);
      for (std::size_t r = 0; r < tags.size(); ++r) {
        if (tags[r] != static_cast<std::uint8_t>(CellTag::kString)) continue;
        const auto prov = static_cast<std::uint32_t>(payloads[r]);
        if (seen[prov] != 0) continue;
        seen[prov] = 1;
        remap[prov] = static_cast<std::uint32_t>(final_order.size());
        final_order.push_back(prov);
      }
    }
  }
  if (!final_order.empty()) {
    dict_bytes = 8 + 4 * static_cast<std::uint64_t>(final_order.size());
    for (const std::uint32_t prov : final_order) {
      dict_bytes += strings_[prov].size();
    }
  }

  const std::string meta_text = meta_.meta_json(include_provenance_).dump();

  // ---- block layout: identical arithmetic to encode_vbt ----
  Header h;
  h.header_bytes = sizeof(Header);
  h.row_count = total_rows_;
  h.column_count = static_cast<std::uint32_t>(ncols);
  std::uint64_t pos = kHeaderEnd;
  h.coldir_offset = align_up(pos);
  pos = h.coldir_offset + sizeof(ColumnEntry) * ncols;
  h.meta_offset = align_up(pos);
  h.meta_bytes = meta_text.size();
  pos = h.meta_offset + h.meta_bytes;
  h.dict_bytes = dict_bytes;
  if (h.dict_bytes > 0) {
    h.dict_offset = align_up(pos);
    pos = h.dict_offset + h.dict_bytes;
  }
  std::vector<ColumnEntry> entries(ncols);
  for (std::size_t ci = 0; ci < ncols; ++ci) {
    ColumnEntry& e = entries[ci];
    e.type = static_cast<std::uint32_t>(types[ci]);
    if (types[ci] == ColumnType::kMixed) {
      e.aux_offset = align_up(pos);
      e.aux_bytes = total_rows_;
      pos = e.aux_offset + e.aux_bytes;
    }
    e.data_offset = align_up(pos);
    e.data_bytes = total_rows_ * element_bytes(types[ci]);
    pos = e.data_offset + e.data_bytes;
  }
  h.file_bytes = pos;

  // ---- stream the file out ----
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  if (f == nullptr) {
    throw JsonError("cannot open '" + path_ + "': " + std::strerror(errno));
  }
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> closer{f, &std::fclose};
  PaddedFile out{f, path_};
  out.write(kMagic, sizeof kMagic);
  out.write(&h, sizeof h);
  out.pad_to(h.coldir_offset);
  out.write(entries.data(), sizeof(ColumnEntry) * ncols);
  out.pad_to(h.meta_offset);
  out.write(meta_text.data(), meta_text.size());
  if (h.dict_bytes > 0) {
    out.pad_to(h.dict_offset);
    const std::uint64_t count = final_order.size();
    out.write(&count, 8);
    for (const std::uint32_t prov : final_order) {
      const auto len = static_cast<std::uint32_t>(strings_[prov].size());
      out.write(&len, 4);
    }
    for (const std::uint32_t prov : final_order) {
      out.write(strings_[prov].data(), strings_[prov].size());
    }
  }
  std::vector<std::uint32_t> u32_cells;
  for (std::size_t ci = 0; ci < ncols; ++ci) {
    if (types[ci] == ColumnType::kMixed) {
      out.pad_to(entries[ci].aux_offset);
      for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
        read_chunk_column(chunk, ci, tags, payloads);
        out.write(tags.data(), tags.size());
      }
    }
    out.pad_to(entries[ci].data_offset);
    for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
      read_chunk_column(chunk, ci, tags, payloads);
      switch (types[ci]) {
        case ColumnType::kF64:
        case ColumnType::kI64:
        case ColumnType::kU64:
          // Homogeneous numeric payloads were stored as their exact
          // on-disk bits at append time (u64 values <= INT64_MAX share
          // bits with their int64 encoding).
          out.write(payloads.data(), 8 * payloads.size());
          break;
        case ColumnType::kStringDict:
          u32_cells.resize(payloads.size());
          for (std::size_t r = 0; r < payloads.size(); ++r) {
            u32_cells[r] = remap[static_cast<std::uint32_t>(payloads[r])];
          }
          out.write(u32_cells.data(), 4 * u32_cells.size());
          break;
        case ColumnType::kMixed:
          for (std::size_t r = 0; r < payloads.size(); ++r) {
            if (tags[r] == static_cast<std::uint8_t>(CellTag::kString)) {
              payloads[r] = remap[static_cast<std::uint32_t>(payloads[r])];
            }
          }
          out.write(payloads.data(), 8 * payloads.size());
          break;
      }
    }
  }
  if (out.pos() != h.file_bytes) {
    throw JsonError("columnar stream '" + path_ + "': wrote " +
                    std::to_string(out.pos()) + " byte(s), layout computed " +
                    std::to_string(h.file_bytes));
  }
  if (std::fflush(f) != 0) {
    throw JsonError("cannot flush '" + path_ + "': " + std::strerror(errno));
  }

  if (spill_ != nullptr) {
    std::fclose(spill_);
    spill_ = nullptr;
    std::error_code ec;
    fs::remove(spill_path_, ec);
  }
  finished_ = true;
}

study::MergedShape stream_merge_vbt(const std::vector<std::string>& shard_paths,
                                    const std::string& out_path,
                                    bool include_provenance,
                                    std::size_t chunk_rows) {
  // Metadata only: each shard's rows stay on its mapping (the backing).
  std::vector<ResultTable> shards;
  shards.reserve(shard_paths.size());
  for (const std::string& path : shard_paths) {
    shards.push_back(read_metadata(MappedTable::open(path)));
  }
  study::MergedShape shape{study::validate_merge(shards), 0};
  const std::size_t ncols = shape.meta.columns.size();
  const std::size_t seq_col = shape.meta.column_index("seq");

  std::vector<SeqColumn> seqs;
  seqs.reserve(shards.size());
  bool all_sorted = true;
  for (const ResultTable& s : shards) {
    const SeqColumn& seq = seqs.emplace_back(*s.backing, seq_col);
    const std::size_t nrows = s.backing->num_rows();
    shape.num_rows += nrows;
    for (std::size_t r = 0; r + 1 < nrows && all_sorted; ++r) {
      all_sorted = seq.at(r) <= seq.at(r + 1);
    }
  }
  if (!all_sorted) {
    // Hand-assembled artifacts with shuffled rows: bounded memory is off
    // the table anyway (the sort needs them all), so defer to the
    // in-memory merge and stream its output.
    std::vector<ResultTable> tables;
    tables.reserve(shards.size());
    for (const ResultTable& s : shards) tables.push_back(materialize(s.backing));
    const ResultTable merged = study::merge_result_tables(std::move(tables));
    StreamWriter writer{out_path, merged, include_provenance, chunk_rows};
    for (const Row& row : merged.rows) writer.append(row);
    writer.finish();
    return shape;
  }

  StreamWriter writer{out_path, shape.meta, include_provenance, chunk_rows};
  std::vector<std::size_t> head(shards.size(), 0);
  Row row;
  for (std::size_t position = 0; position < shape.num_rows; ++position) {
    std::size_t best = shards.size();
    std::uint64_t best_seq = 0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (head[s] >= shards[s].backing->num_rows()) continue;
      const std::uint64_t seq = seqs[s].at(head[s]);
      if (best == shards.size() || seq < best_seq) {
        best = s;
        best_seq = seq;
      }
    }
    study::check_merge_seq(position, best_seq);
    const MappedTable& m = *shards[best].backing;
    row.clear();
    row.reserve(ncols);
    for (std::size_t ci = 0; ci < ncols; ++ci) {
      row.push_back(m.cell(head[best], ci));
    }
    ++head[best];
    writer.append(row);
  }
  writer.finish();
  return shape;
}

}  // namespace varbench::io::columnar
