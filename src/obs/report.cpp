#include "obs/report.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace snntest::obs {
namespace {

struct ReportState {
  std::mutex mutex;
  std::map<std::string, std::string> fields;  // pre-rendered JSON values
  std::string metrics_path;
  std::string trace_path;
  bool exit_installed = false;
};

ReportState& state() {
  // Leaked: the atexit handler below reads it during shutdown.
  static ReportState* s = new ReportState;
  return *s;
}

/// Appends `"<escaped key>":` to `out`. Built with append rather than a
/// chained operator+ on a string literal, which GCC 12 flags with a false
/// -Wrestrict.
void append_key(std::string& out, const std::string& key) {
  out.append(1, '"').append(util::json_escape(key)).append("\":");
}

/// JSON number rendering; non-finite values are not valid JSON -> null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void exit_writer() {
  ReportState& s = state();
  std::string metrics_path, trace_path;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    metrics_path = s.metrics_path;
    trace_path = s.trace_path;
  }
  if (!trace_path.empty()) write_chrome_trace(trace_path);
  if (!metrics_path.empty()) write_metrics_report(metrics_path);
}

}  // namespace

void set_report_field(const std::string& key, const std::string& value) {
  const std::string escaped = util::json_escape(value);
  std::string quoted;
  quoted.reserve(escaped.size() + 2);
  quoted.append(1, '"').append(escaped).append(1, '"');  // no operator+: see append_key
  ReportState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.fields[key] = std::move(quoted);
}

void set_report_field(const std::string& key, double value) {
  ReportState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.fields[key] = json_number(value);
}

void set_report_field(const std::string& key, uint64_t value) {
  ReportState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.fields[key] = std::to_string(value);
}

void set_report_field(const std::string& key, bool value) {
  ReportState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.fields[key] = value ? "true" : "false";
}

std::string metrics_report_json() {
  const Registry::Snapshot snap = Registry::instance().snapshot();
  std::string out = "{\"schema\":\"snntest-metrics-v1\",\"fields\":{";
  {
    ReportState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    // Environment provenance every report carries: filled at render time so
    // it can never be forgotten, but an explicit set_report_field wins.
    std::map<std::string, std::string> fields = s.fields;
    fields.emplace("hardware_threads",
                   std::to_string(std::thread::hardware_concurrency()));
    bool first = true;
    for (const auto& [key, rendered] : fields) {
      if (!first) out += ",";
      first = false;
      append_key(out, key);
      out += rendered;
    }
  }
  out += "},\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out += ",";
    first = false;
    append_key(out, name);
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out += ",";
    first = false;
    append_key(out, name);
    out += json_number(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ",";
    first = false;
    append_key(out, name);
    out += "{\"count\":" + std::to_string(h.count) + ",\"sum\":" + json_number(h.sum) +
           ",\"bounds\":[";
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) out += ",";
      out += json_number(h.bounds[i]);
    }
    out += "],\"buckets\":[";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

bool write_metrics_report(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    SNNTEST_LOG_WARN("cannot write metrics report to %s", path.c_str());
    return false;
  }
  out << metrics_report_json() << "\n";
  return static_cast<bool>(out);
}

void install_exit_writer(const std::string& metrics_path, const std::string& trace_path) {
  ReportState& s = state();
  bool install = false;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.metrics_path = metrics_path;
    s.trace_path = trace_path;
    install = !s.exit_installed;
    s.exit_installed = true;
  }
  if (install) std::atexit(exit_writer);
}

void configure(const std::string& trace_out, const std::string& metrics_out) {
  std::string trace_path = trace_out;
  if (trace_path.empty()) {
    if (const char* env = std::getenv("SNNTEST_TRACE")) trace_path = env;
  }
  if (trace_path.empty() && metrics_out.empty()) return;
  set_telemetry_enabled(true);
  install_exit_writer(metrics_out, trace_path);
}

}  // namespace snntest::obs
