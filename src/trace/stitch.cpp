#include "src/trace/stitch.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <utility>

namespace varbench::trace {

namespace {

std::string hex_ident(std::uint64_t ident) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(ident));
  return std::string{buf};
}

const std::string* find_label(const TraceFile& file, std::uint64_t ident) {
  for (const auto& [known, label] : file.labels) {
    if (known == ident) return &label;
  }
  return nullptr;
}

}  // namespace

std::size_t StitchedTrace::total_spans() const {
  std::size_t n = 0;
  for (const TraceFile& file : processes) n += file.spans.size();
  return n;
}

StitchedTrace stitch_state_dir(const std::string& state_dir) {
  namespace fs = std::filesystem;
  const fs::path traces_dir = fs::path{state_dir} / "traces";
  if (!fs::is_directory(traces_dir)) {
    throw io::JsonError{"trace: no traces/ directory under '" + state_dir +
                        "' — was the campaign run with --trace?"};
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator{traces_dir}) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kSuffix = ".trace.json";
    if (name.size() > kSuffix.size() &&
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) ==
            0) {
      paths.push_back(entry.path().string());
    }
  }
  if (paths.empty()) {
    throw io::JsonError{"trace: '" + traces_dir.string() +
                        "' contains no *.trace.json files — was the campaign "
                        "run with --trace?"};
  }
  std::sort(paths.begin(), paths.end());
  StitchedTrace out;
  out.processes.reserve(paths.size());
  for (const std::string& path : paths) {
    out.processes.push_back(read_trace_file(path));
  }
  return out;
}

io::Json chrome_trace_json(const StitchedTrace& stitched) {
  const auto& defs = metrics::metric_defs();
  io::Json events = io::Json::array();
  for (std::size_t i = 0; i < stitched.processes.size(); ++i) {
    const TraceFile& file = stitched.processes[i];
    const std::uint64_t pid = static_cast<std::uint64_t>(i) + 1;
    {
      io::Json meta = io::Json::object();
      meta.set("name", io::Json{"process_name"});
      meta.set("ph", io::Json{"M"});
      meta.set("pid", io::Json{pid});
      meta.set("tid", io::Json{std::uint64_t{0}});
      io::Json args = io::Json::object();
      args.set("name", io::Json{file.process});
      meta.set("args", std::move(args));
      events.push_back(std::move(meta));
    }
    // Each process gets its own t=0: monotonic clocks are process-local,
    // so cross-process offsets would be noise presented as signal.
    std::uint64_t base = std::numeric_limits<std::uint64_t>::max();
    for (const SpanEvent& e : file.spans) base = std::min(base, e.start_ns);
    for (const SpanEvent& e : file.spans) {
      const metrics::MetricDef& def = defs[e.span];
      io::Json row = io::Json::object();
      row.set("name", io::Json{def.name});
      row.set("cat", io::Json{def.subsystem});
      if (def.kind == metrics::MetricKind::kSpan) {
        row.set("ph", io::Json{"X"});
      } else {
        row.set("ph", io::Json{"i"});
        row.set("s", io::Json{"t"});  // instant scope: thread
      }
      row.set("ts", io::Json{static_cast<double>(e.start_ns - base) / 1e3});
      if (def.kind == metrics::MetricKind::kSpan) {
        row.set("dur", io::Json{static_cast<double>(e.dur_ns) / 1e3});
      }
      row.set("pid", io::Json{pid});
      row.set("tid", io::Json{e.tid});
      io::Json args = io::Json::object();
      args.set("ident", io::Json{hex_ident(e.ident)});
      if (const std::string* label = find_label(file, e.ident);
          label != nullptr) {
        args.set("label", io::Json{*label});
      }
      row.set("args", std::move(args));
      events.push_back(std::move(row));
    }
  }
  io::Json doc = io::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", io::Json{"ms"});
  return doc;
}

study::ResultTable summary_table(const StitchedTrace& stitched) {
  const auto& defs = metrics::metric_defs();
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
  };
  std::array<Agg, metrics::kNumProbes> aggs{};
  for (const TraceFile& file : stitched.processes) {
    for (const SpanEvent& e : file.spans) {
      Agg& a = aggs[e.span];
      ++a.count;
      a.total_ns += e.dur_ns;
      a.max_ns = std::max(a.max_ns, e.dur_ns);
    }
  }
  study::ResultTable table;
  table.name = "trace:summary";
  table.columns = {"seq",   "span",     "subsystem", "kind",
                   "count", "total_ms", "mean_ms",   "max_ms"};
  std::uint64_t seq = 0;
  for (metrics::MetricId id = 0; id < metrics::kNumProbes; ++id) {
    const Agg& a = aggs[id];
    if (a.count == 0) continue;
    const metrics::MetricDef& def = defs[id];
    study::Row row;
    row.reserve(table.columns.size());
    row.push_back(io::Json{seq++});
    row.push_back(io::Json{def.name});
    row.push_back(io::Json{def.subsystem});
    row.push_back(io::Json{metrics::kind_name(def.kind)});
    row.push_back(io::Json{a.count});
    row.push_back(io::Json{static_cast<double>(a.total_ns) / 1e6});
    row.push_back(io::Json{static_cast<double>(a.total_ns) / 1e6 /
                           static_cast<double>(a.count)});
    row.push_back(io::Json{static_cast<double>(a.max_ns) / 1e6});
    table.add_row(std::move(row));
  }
  return table;
}

std::vector<std::pair<metrics::MetricId, std::uint64_t>> span_shape(
    const StitchedTrace& stitched) {
  std::vector<std::pair<metrics::MetricId, std::uint64_t>> out;
  out.reserve(stitched.total_spans());
  for (const TraceFile& file : stitched.processes) {
    for (const SpanEvent& e : file.spans) {
      out.emplace_back(e.span, e.ident);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace varbench::trace
