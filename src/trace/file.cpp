#include "src/trace/file.h"

#include <algorithm>
#include <utility>

#include "src/io/json.h"

namespace varbench::trace {

namespace {

constexpr std::string_view kSchema = "varbench.trace.v1";

}  // namespace

TraceFile drain(metrics::Sink& sink, std::string process) {
  TraceFile out;
  out.process = std::move(process);
  out.spans = sink.take_events();
  out.labels = sink.take_labels();
  out.dropped = sink.dropped();
  return out;
}

void append(TraceFile& into, TraceFile&& extra) {
  into.dropped += extra.dropped;
  into.spans.insert(into.spans.end(), extra.spans.begin(), extra.spans.end());
  std::sort(into.spans.begin(), into.spans.end(), metrics::event_before);
  for (auto& [ident, label] : extra.labels) {
    bool known = false;
    for (const auto& [have, unused] : into.labels) known |= have == ident;
    if (!known) into.labels.emplace_back(ident, std::move(label));
  }
  std::sort(into.labels.begin(), into.labels.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

std::string to_json_text(const TraceFile& file) {
  const auto& defs = metrics::metric_defs();
  io::Json doc = io::Json::object();
  doc.set("schema", io::Json{std::string{kSchema}});
  doc.set("process", io::Json{file.process});
  doc.set("dropped", io::Json{file.dropped});
  io::Json spans = io::Json::array();
  for (const SpanEvent& e : file.spans) {
    io::Json row = io::Json::object();
    row.set("span", io::Json{defs[e.span].name});
    row.set("ident", io::Json{e.ident});
    row.set("tid", io::Json{e.tid});
    row.set("start_ns", io::Json{e.start_ns});
    row.set("dur_ns", io::Json{e.dur_ns});
    spans.push_back(std::move(row));
  }
  doc.set("spans", std::move(spans));
  io::Json labels = io::Json::array();
  for (const auto& [ident, label] : file.labels) {
    io::Json row = io::Json::object();
    row.set("ident", io::Json{ident});
    row.set("label", io::Json{label});
    labels.push_back(std::move(row));
  }
  doc.set("labels", std::move(labels));
  return doc.dump(2) + "\n";
}

TraceFile parse_trace_file(const std::string& text, const std::string& path) {
  // Every rejection — bad JSON, a missing or mistyped field, an unknown
  // span — names the file it came from.
  try {
    const io::Json doc = io::Json::parse(text);
    if (!doc.is_object()) throw io::JsonError{"top level is not an object"};
    const io::Json* schema = doc.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != kSchema) {
      throw io::JsonError{"missing or unsupported schema (want '" +
                          std::string{kSchema} + "')"};
    }
    const auto& defs = metrics::metric_defs();
    TraceFile out;
    out.process = doc.at("process").as_string();
    if (const io::Json* dropped = doc.find("dropped"); dropped != nullptr) {
      out.dropped = dropped->as_uint64();
    }
    for (const io::Json& row : doc.at("spans").as_array()) {
      const std::string& name = row.at("span").as_string();
      const auto def = std::find_if(
          defs.begin(), defs.end(), [&](const metrics::MetricDef& d) {
            return d.name == name && metrics::is_span(d.kind);
          });
      if (def == defs.end()) {
        throw io::JsonError{"unknown span name '" + name + "'"};
      }
      SpanEvent e;
      e.span = static_cast<metrics::MetricId>(def - defs.begin());
      e.ident = row.at("ident").as_uint64();
      e.tid = row.at("tid").as_uint64();
      e.start_ns = row.at("start_ns").as_uint64();
      e.dur_ns = row.at("dur_ns").as_uint64();
      out.spans.push_back(e);
    }
    for (const io::Json& row : doc.at("labels").as_array()) {
      out.labels.emplace_back(row.at("ident").as_uint64(),
                              row.at("label").as_string());
    }
    return out;
  } catch (const io::JsonError& e) {
    throw io::JsonError{"trace file '" + path + "': " + e.what()};
  }
}

void write_trace_file(const std::string& path, const TraceFile& file) {
  io::write_file(path, to_json_text(file));
}

TraceFile read_trace_file(const std::string& path) {
  return parse_trace_file(io::read_file(path), path);
}

std::string worker_trace_name(const std::string& task_id) {
  return "worker-" + task_id + ".trace.json";
}

}  // namespace varbench::trace
