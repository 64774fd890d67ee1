#include "src/metrics/table.h"

#include <cstdio>
#include <utility>

namespace varbench::metrics {

study::ResultTable to_result_table(const Snapshot& snapshot,
                                   std::string name) {
  study::ResultTable table;
  table.name = std::move(name);
  table.columns = {"seq",  "metric", "subsystem", "kind", "unit", "count",
                   "sum",  "mean",   "p50",       "p90",  "p99"};
  const auto& defs = metric_defs();
  std::uint64_t seq = 0;
  for (const MetricSnapshot& m : snapshot.metrics) {
    const MetricDef& def = defs[m.id];
    const bool binned = def.kind != MetricKind::kCounter;
    study::Row row;
    row.reserve(table.columns.size());
    row.push_back(io::Json{seq++});
    row.push_back(io::Json{def.name});
    row.push_back(io::Json{def.subsystem});
    row.push_back(io::Json{kind_name(def.kind)});
    row.push_back(io::Json{def.unit});
    row.push_back(io::Json{m.count});
    row.push_back(io::Json{m.sum});
    row.push_back(io::Json{m.mean()});
    row.push_back(io::Json{binned ? m.percentile_upper(0.50) : 0});
    row.push_back(io::Json{binned ? m.percentile_upper(0.90) : 0});
    row.push_back(io::Json{binned ? m.percentile_upper(0.99) : 0});
    table.add_row(std::move(row));
  }
  return table;
}

io::Json registry_json() {
  io::Json items = io::Json::array();
  const auto& defs = metric_defs();
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (is_span(defs[i].kind)) continue;
    io::Json item = io::Json::object();
    item.set("id", static_cast<std::uint64_t>(i));
    item.set("name", defs[i].name);
    item.set("subsystem", defs[i].subsystem);
    item.set("kind", kind_name(defs[i].kind));
    item.set("unit", defs[i].unit);
    item.set("help", defs[i].help);
    items.push_back(std::move(item));
  }
  return items;
}

std::string registry_text() {
  std::string out = "registered metrics (id order is stable; append-only):\n";
  const auto& defs = metric_defs();
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (is_span(defs[i].kind)) continue;
    char line[256];
    std::snprintf(line, sizeof(line), "  %3zu  %-28s %-9s %-9s %s\n", i,
                  std::string{defs[i].name}.c_str(),
                  std::string{kind_name(defs[i].kind)}.c_str(),
                  std::string{defs[i].unit}.c_str(),
                  std::string{defs[i].help}.c_str());
    out += line;
  }
  return out;
}

}  // namespace varbench::metrics
