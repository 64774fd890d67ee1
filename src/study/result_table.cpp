#include "src/study/result_table.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "src/io/columnar/stream_writer.h"
#include "src/io/columnar/vbt.h"
#include "src/io/spec_reader.h"

namespace varbench::study {

namespace {

// Schema evolution (docs/study_api.md): writers emit v1, the lowest schema
// every deployed reader understands; readers accept v1 (as always) and the
// reserved-forward v2, whose contract is *strict tolerance* — the same
// layout, but any field this build does not know is rejected with a
// message naming the offending JSON path instead of being silently
// dropped. A v3 (or unknown) schema stays a hard "unsupported schema"
// error listing both readable versions.
constexpr std::string_view kTableSchema = "varbench.result_table.v1";
constexpr std::string_view kTableSchemaV2 = "varbench.result_table.v2";

/// v2 strictness: every key of `obj` must be known; violations name the
/// JSON path ("$.meta.frobnicate") via the shared io:: helper.
void reject_unknown_fields(const io::Json& obj, std::string_view path,
                           std::initializer_list<std::string_view> known) {
  io::reject_unknown_fields(obj, "result table", kTableSchemaV2, path,
                            known);
}

void require_scalar(const Cell& cell) {
  if (cell.is_array() || cell.is_object()) {
    throw io::JsonError("result table: cells must be scalars, got " +
                        std::string{io::to_string(cell.type())});
  }
}

/// Content sniff for load(): does the file open with the VBT1 magic?
/// Unreadable files answer false so the JSON path reports the I/O error.
bool file_has_vbt_magic(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  unsigned char buf[8];
  const std::size_t n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  return io::columnar::has_vbt_magic({buf, n});
}

}  // namespace

ArtifactFormat infer_artifact_format(std::string_view path) {
  if (path.ends_with(".part")) path.remove_suffix(5);
  return path.ends_with(".vbt") ? ArtifactFormat::kBinary
                                : ArtifactFormat::kJson;
}

void ResultTable::add_row(Row row) {
  if (row.size() != columns.size()) {
    throw io::JsonError("result table '" + name + "': row arity " +
                        std::to_string(row.size()) + " != " +
                        std::to_string(columns.size()) + " columns");
  }
  for (const Cell& cell : row) require_scalar(cell);
  rows.push_back(std::move(row));
}

std::size_t ResultTable::column_index(std::string_view column) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == column) return i;
  }
  std::string have;
  for (const auto& c : columns) {
    if (!have.empty()) have += ", ";
    have += "'" + c + "'";
  }
  throw io::JsonError("result table '" + name + "': no column '" +
                      std::string{column} + "' (columns: " + have + ")");
}

bool ResultTable::has_column(std::string_view column) const {
  return std::find(columns.begin(), columns.end(), column) != columns.end();
}

std::vector<double> ResultTable::column_values(std::string_view column) const {
  if (const auto span = column_span(column)) {
    return {span->begin(), span->end()};
  }
  const std::size_t ci = column_index(column);
  std::vector<double> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(row[ci].as_double());
  return out;
}

std::optional<std::span<const double>> ResultTable::column_span(
    std::string_view column) const {
  if (backing == nullptr || backing->num_rows() != rows.size()) {
    return std::nullopt;
  }
  const std::size_t ci = column_index(column);
  if (backing->column_type(ci) != io::columnar::ColumnType::kF64) {
    return std::nullopt;
  }
  return backing->f64_column(ci);
}

io::Json ResultTable::to_json(bool include_provenance) const {
  // Composed from meta_json so the JSON and binary artifacts share one
  // metadata rendering; "rows" is re-inserted before "provenance" to keep
  // the historical key order (canonical_text bytes must not move).
  io::Json doc = meta_json(/*include_provenance=*/false);
  io::Json data = io::Json::array();
  for (const Row& row : rows) {
    io::Json r = io::Json::array();
    for (const Cell& cell : row) r.push_back(cell);
    data.push_back(std::move(r));
  }
  doc.set("rows", std::move(data));
  if (include_provenance) {
    io::Json prov = io::Json::object();
    prov.set("threads", io::Json{threads});
    prov.set("wall_time_ms", io::Json{wall_time_ms});
    doc.set("provenance", std::move(prov));
  }
  return doc;
}

io::Json ResultTable::meta_json(bool include_provenance) const {
  io::Json doc = io::Json::object();
  doc.set("schema", io::Json{kTableSchema});
  doc.set("name", io::Json{name});
  if (spec.has_value()) doc.set("spec", spec->to_json());
  io::Json meta = io::Json::object();
  meta.set("seed", io::Json{seed});
  io::Json s = io::Json::object();
  s.set("index", io::Json{shard.index});
  s.set("count", io::Json{shard.count});
  meta.set("shard", std::move(s));
  doc.set("meta", std::move(meta));
  io::Json cols = io::Json::array();
  for (const auto& c : columns) cols.push_back(io::Json{c});
  doc.set("columns", std::move(cols));
  if (include_provenance) {
    io::Json prov = io::Json::object();
    prov.set("threads", io::Json{threads});
    prov.set("wall_time_ms", io::Json{wall_time_ms});
    doc.set("provenance", std::move(prov));
  }
  return doc;
}

std::string ResultTable::to_json_text(bool include_provenance) const {
  return to_json(include_provenance).dump(2) + "\n";
}

std::string ResultTable::to_csv() const {
  const auto field = [](const Cell& cell) -> std::string {
    if (cell.is_null()) return "";  // RFC-4180 convention for missing data
    std::string raw = cell.is_string() ? cell.as_string() : cell.dump();
    if (raw.find_first_of(",\"\n") == std::string::npos) return raw;
    std::string quoted = "\"";
    for (const char c : raw) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += '"';
    return quoted;
  };
  std::string out;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ',';
    out += field(Cell{columns[i]});
  }
  out += '\n';
  for (const Row& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      out += field(row[i]);
    }
    out += '\n';
  }
  return out;
}

ResultTable ResultTable::from_json(const io::Json& doc) {
  if (!doc.is_object()) {
    throw io::JsonError("result table: document must be a JSON object");
  }
  const std::string& schema = doc.at("schema").as_string();
  if (schema != kTableSchema && schema != kTableSchemaV2) {
    throw io::JsonError("result table: unsupported schema '" + schema +
                        "' (this build reads '" + std::string{kTableSchema} +
                        "' and '" + std::string{kTableSchemaV2} + "')");
  }
  if (schema == kTableSchemaV2) {
    reject_unknown_fields(
        doc, "$", {"schema", "name", "spec", "meta", "columns", "rows",
                   "provenance"});
    reject_unknown_fields(doc.at("meta"), "$.meta", {"seed", "shard"});
    reject_unknown_fields(doc.at("meta").at("shard"), "$.meta.shard",
                          {"index", "count"});
    if (const io::Json* prov = doc.find("provenance")) {
      reject_unknown_fields(*prov, "$.provenance",
                            {"threads", "wall_time_ms"});
    }
  }
  ResultTable t;
  t.name = doc.at("name").as_string();
  if (const io::Json* spec = doc.find("spec")) {
    t.spec = StudySpec::from_json(*spec);
  }
  const io::Json& meta = doc.at("meta");
  t.seed = meta.at("seed").as_uint64();
  const io::Json& shard = meta.at("shard");
  t.shard.index = static_cast<std::size_t>(shard.at("index").as_uint64());
  t.shard.count = static_cast<std::size_t>(shard.at("count").as_uint64());
  if (t.shard.count == 0 || t.shard.index >= t.shard.count) {
    throw io::JsonError("result table: invalid shard " + t.shard.label());
  }
  for (const io::Json& c : doc.at("columns").as_array()) {
    t.columns.push_back(c.as_string());
  }
  if (t.columns.empty()) {
    throw io::JsonError("result table: no columns");
  }
  for (const io::Json& row : doc.at("rows").as_array()) {
    Row r;
    for (const io::Json& cell : row.as_array()) r.push_back(cell);
    t.add_row(std::move(r));
  }
  if (const io::Json* prov = doc.find("provenance")) {
    if (const io::Json* v = prov->find("threads")) {
      t.threads = static_cast<std::size_t>(v->as_uint64());
    }
    if (const io::Json* v = prov->find("wall_time_ms")) {
      t.wall_time_ms = v->as_double();
    }
  }
  return t;
}

ResultTable ResultTable::from_json_text(std::string_view text) {
  return from_json(io::Json::parse(text));
}

void ResultTable::save(const std::string& path, ArtifactFormat format,
                       bool include_provenance) const {
  if (format == ArtifactFormat::kAuto) format = infer_artifact_format(path);
  if (format == ArtifactFormat::kBinary) {
    io::columnar::write_vbt(path, *this, include_provenance);
  } else {
    io::write_file(path, to_json_text(include_provenance));
  }
}

ResultTable ResultTable::load(const std::string& path) {
  if (file_has_vbt_magic(path)) {
    // The columnar layer's own errors already name the path and offset.
    return io::columnar::materialize(io::columnar::MappedTable::open(path));
  }
  const std::string text = io::read_file(path);  // names the path itself
  try {
    return from_json_text(text);
  } catch (const io::JsonError& e) {
    throw io::JsonError("artifact '" + path + "': " + e.what());
  }
}

ResultTable validate_merge(std::vector<ResultTable>& shards) {
  if (shards.empty()) {
    throw io::JsonError("merge: no shard tables given");
  }
  const std::size_t count = shards.front().shard.count;
  if (shards.size() != count) {
    throw io::JsonError("merge: got " + std::to_string(shards.size()) +
                        " tables for a " + std::to_string(count) +
                        "-shard study (need every shard exactly once)");
  }
  std::stable_sort(shards.begin(), shards.end(),
                   [](const ResultTable& a, const ResultTable& b) {
                     return a.shard.index < b.shard.index;
                   });
  const ResultTable& first = shards.front();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ResultTable& t = shards[i];
    if (t.shard.count != count) {
      throw io::JsonError("merge: shard counts disagree (" + t.shard.label() +
                          " vs ../" + std::to_string(count) + ")");
    }
    if (t.shard.index != i) {
      throw io::JsonError(
          "merge: shard " + std::to_string(i) + " is " +
          (t.shard.index < i ? "duplicated" : "missing") +
          " (have shard " + t.shard.label() + " instead)");
    }
    if (t.name != first.name || t.spec != first.spec ||
        t.seed != first.seed || t.columns != first.columns) {
      throw io::JsonError("merge: table " + std::to_string(i) +
                          " ('" + t.name + "', seed " +
                          std::to_string(t.seed) +
                          ") does not belong to the same study as shard 0 ('" +
                          first.name + "', seed " +
                          std::to_string(first.seed) +
                          ") — name, spec, seed, and columns must all match");
    }
  }

  ResultTable merged;
  merged.name = first.name;
  merged.spec = first.spec;
  merged.seed = first.seed;
  merged.shard = ShardSpec{};  // unsharded normal form
  merged.threads = 0;          // mixed; provenance only
  merged.columns = first.columns;
  for (const ResultTable& t : shards) merged.wall_time_ms += t.wall_time_ms;
  return merged;
}

void check_merge_seq(std::size_t position, std::uint64_t seq) {
  if (seq != position) {
    throw io::JsonError(
        "merge: row sequence broken at position " + std::to_string(position) +
        " (seq " + std::to_string(seq) + ") — a shard is missing rows or " +
        "two shards overlap");
  }
}

ResultTable merge_result_tables(std::vector<ResultTable> shards) {
  ResultTable merged = validate_merge(shards);
  const std::size_t seq_col = merged.column_index("seq");
  std::size_t total = 0;
  bool all_sorted = true;
  for (const ResultTable& t : shards) {
    total += t.rows.size();
    for (std::size_t r = 0; r + 1 < t.rows.size() && all_sorted; ++r) {
      all_sorted = t.rows[r][seq_col].as_uint64() <=
                   t.rows[r + 1][seq_col].as_uint64();
    }
  }
  merged.rows.reserve(total);
  // Restore the canonical (unsharded) row order: ascending "seq". Study
  // runners emit each shard seq-sorted, so the common case is a k-way
  // merge that touches every row exactly once; arbitrarily ordered rows
  // (hand-assembled artifacts) take the sort path instead.
  if (all_sorted) {
    std::vector<std::size_t> head(shards.size(), 0);
    while (merged.rows.size() < total) {
      std::size_t best = shards.size();
      std::uint64_t best_seq = 0;
      for (std::size_t s = 0; s < shards.size(); ++s) {
        if (head[s] >= shards[s].rows.size()) continue;
        const std::uint64_t seq =
            shards[s].rows[head[s]][seq_col].as_uint64();
        if (best == shards.size() || seq < best_seq) {
          best = s;
          best_seq = seq;
        }
      }
      merged.rows.push_back(std::move(shards[best].rows[head[best]++]));
    }
  } else {
    for (ResultTable& t : shards) {
      for (Row& row : t.rows) merged.rows.push_back(std::move(row));
    }
    std::stable_sort(merged.rows.begin(), merged.rows.end(),
                     [seq_col](const Row& a, const Row& b) {
                       return a[seq_col].as_uint64() < b[seq_col].as_uint64();
                     });
  }
  for (std::size_t i = 0; i < merged.rows.size(); ++i) {
    check_merge_seq(i, merged.rows[i][seq_col].as_uint64());
  }
  return merged;
}

MergedShape merge_artifacts(const std::vector<std::string>& shard_paths,
                            const std::string& out_path,
                            ArtifactFormat format) {
  if (format == ArtifactFormat::kAuto) format = infer_artifact_format(out_path);
  // The inputs stay open (mapped) until the merge is done, so the output
  // goes to a side file first: out_path may be one of them.
  const std::string tmp = out_path + ".tmp-merge";
  MergedShape shape;
  if (format == ArtifactFormat::kBinary &&
      std::all_of(shard_paths.begin(), shard_paths.end(),
                  file_has_vbt_magic)) {
    shape = io::columnar::stream_merge_vbt(shard_paths, tmp,
                                           /*include_provenance=*/false);
  } else {
    std::vector<ResultTable> shards;
    shards.reserve(shard_paths.size());
    for (const std::string& path : shard_paths) {
      shards.push_back(ResultTable::load(path));
    }
    ResultTable merged = merge_result_tables(std::move(shards));
    merged.save(tmp, format, /*include_provenance=*/false);
    shape.num_rows = merged.rows.size();
    merged.rows = std::vector<Row>{};  // free them; callers get metadata
    shape.meta = std::move(merged);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, out_path, ec);
  if (ec) {
    throw io::JsonError("merge: cannot move '" + tmp + "' to '" + out_path +
                        "': " + ec.message());
  }
  return shape;
}

}  // namespace varbench::study
