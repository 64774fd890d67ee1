#include "src/metrics/trajectory.h"

#include <filesystem>
#include <utility>

#include "src/io/json.h"

namespace varbench::metrics {

namespace {

constexpr std::string_view kSchema = "varbench.bench_trajectory.v1";

const io::Json& field(const io::Json& row, const char* key) {
  const io::Json* v = row.find(key);
  if (v == nullptr) {
    throw io::JsonError{"trajectory row missing '" + std::string{key} + "'"};
  }
  return *v;
}

}  // namespace

Trajectory Trajectory::load(const std::string& path) {
  Trajectory traj;
  if (!std::filesystem::exists(path)) return traj;
  const std::string text = io::read_file(path);
  // An empty (or whitespace-only) file is the same first-run state as a
  // missing one — `touch`ed by a wrapper script, or left by an interrupted
  // write. The gate records a baseline instead of failing to parse.
  if (text.find_first_not_of(" \t\r\n") == std::string::npos) return traj;
  // Every rejection — bad JSON, a missing or mistyped field — names the
  // file it came from.
  try {
    const io::Json doc = io::Json::parse(text);
    const io::Json* schema = doc.find("schema");
    if (schema == nullptr || schema->as_string() != kSchema) {
      throw io::JsonError{"not a " + std::string{kSchema} +
                          " trajectory file"};
    }
    const io::Json* rows = doc.find("rows");
    if (rows == nullptr || !rows->is_array()) {
      throw io::JsonError{"trajectory file has no \"rows\" array"};
    }
    for (const io::Json& r : rows->as_array()) {
      TrajectoryRow row;
      row.bench = field(r, "bench").as_string();
      row.unit = field(r, "unit").as_string();
      row.min_ns = field(r, "min_ns").as_uint64();
      row.repeats = field(r, "repeats").as_uint64();
      row.version = field(r, "version").as_string();
      if (const io::Json* label = r.find("label")) {
        row.label = label->as_string();
      }
      traj.rows_.push_back(std::move(row));
    }
  } catch (const io::JsonError& e) {
    throw io::JsonError{path + ": " + e.what()};
  }
  return traj;
}

std::string Trajectory::to_json_text() const {
  io::Json doc = io::Json::object();
  doc.set("schema", std::string{kSchema});
  io::Json rows = io::Json::array();
  for (const TrajectoryRow& row : rows_) {
    io::Json r = io::Json::object();
    r.set("bench", row.bench);
    r.set("unit", row.unit);
    r.set("min_ns", row.min_ns);
    r.set("repeats", row.repeats);
    r.set("version", row.version);
    r.set("label", row.label);
    rows.push_back(std::move(r));
  }
  doc.set("rows", std::move(rows));
  return doc.dump(2) + "\n";
}

void Trajectory::save(const std::string& path) const {
  io::write_file(path, to_json_text());
}

std::uint64_t Trajectory::best_ns(const std::string& bench) const {
  std::uint64_t best = 0;
  for (const TrajectoryRow& row : rows_) {
    if (row.bench != bench) continue;
    if (best == 0 || row.min_ns < best) best = row.min_ns;
  }
  return best;
}

std::vector<GateCheck> gate_checks(const Trajectory& prior,
                                   const std::vector<TrajectoryRow>& fresh,
                                   double threshold,
                                   std::uint64_t min_abs_ns) {
  std::vector<GateCheck> checks;
  checks.reserve(fresh.size());
  for (const TrajectoryRow& row : fresh) {
    GateCheck check;
    check.row = row;
    check.best_ns = prior.best_ns(row.bench);
    if (check.best_ns > 0) {
      check.ratio =
          static_cast<double>(row.min_ns) / static_cast<double>(check.best_ns);
      check.regressed =
          check.ratio > threshold && row.min_ns > check.best_ns + min_abs_ns;
    }
    checks.push_back(std::move(check));
  }
  return checks;
}

}  // namespace varbench::metrics
