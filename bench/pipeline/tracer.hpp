// Benchmark-owned span tracer for bench_pipeline.
//
// Spans are recorded from the benchmark's own files around calls into the
// library's public functions; the library's telemetry (obs) stays off. A
// span has a name, start and end (steady clock, microseconds since the
// tracer was created), the span open around it (its parent) and the
// workload it belongs to. Spans live in memory until the run ends, then go
// out as Chrome trace JSON (chrome://tracing, Perfetto) and as a self-time
// table. Single-threaded by design: every span is opened on the main
// thread, around calls that may fan out to worker threads inside.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace snntest::bench {

/// Median of a sample (0 for an empty one). Takes a copy: callers keep order.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// The highest of p50/p75/p90/p95/p99/p99.9 that still has at least ten
/// samples above it, as {percentile, value}; {0, 0} when n < 20.
inline std::pair<double, double> tail_percentile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(n));
    if (rank < n && n - rank - 1 >= 10) return {p, v[rank]};
  }
  return {0.0, 0.0};
}

class Tracer {
  using Clock = std::chrono::steady_clock;

 public:
  struct Span {
    std::string name;
    int64_t start_us = 0;
    int64_t end_us = 0;
    int parent = -1;  // index of the enclosing span, -1 for a root span
    int workload = 0;
  };

  /// RAII span: opens on construction when the tracer is enabled, closes on
  /// destruction. close() returns the duration whether or not tracing is
  /// on, so the same object times an untraced call.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name)
        : tracer_(tracer), start_(Clock::now()),
          index_(tracer.enabled_ ? tracer.open(std::move(name), start_) : -1) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Close now (idempotent) and return the span's duration in seconds.
    double close() {
      if (!closed_) {
        end_ = Clock::now();
        closed_ = true;
        if (index_ >= 0) tracer_.finish(index_, end_);
      }
      return std::chrono::duration<double>(end_ - start_).count();
    }

   private:
    Tracer& tracer_;
    Clock::time_point start_;
    Clock::time_point end_;
    int index_;
    bool closed_ = false;
  };

  void set_enabled(bool on) { enabled_ = on; }
  void set_workload(int workload) { workload_ = workload; }

  /// Write every span as a Chrome trace "X" event; false when the file
  /// cannot be written. `workload_names` labels the workload ids.
  bool write_chrome(const std::string& path, const std::vector<std::string>& workload_names) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string& workload =
          static_cast<size_t>(s.workload) < workload_names.size() ? workload_names[s.workload] : "";
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":%lld,\"dur\":%lld,"
                   "\"pid\":1,\"tid\":%d,\"args\":{\"id\":%zu,\"parent\":%d,\"workload\":\"%s\"}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), static_cast<long long>(s.start_us),
                   static_cast<long long>(s.end_us - s.start_us), s.workload + 1, i, s.parent,
                   workload.c_str());
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

  struct NameStats {
    size_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;           // total minus the time child spans cover
    std::vector<double> call_s;    // per-call durations
  };

  /// Per-name aggregate over every closed span.
  std::map<std::string, NameStats> by_name() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_s[s.parent] += seconds(s);
    }
    std::map<std::string, NameStats> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      NameStats& st = out[spans_[i].name];
      const double d = seconds(spans_[i]);
      ++st.calls;
      st.total_s += d;
      st.self_s += d - child_s[i];
      st.call_s.push_back(d);
    }
    return out;
  }

 private:
  int64_t micros(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_).count();
  }
  static double seconds(const Span& s) { return static_cast<double>(s.end_us - s.start_us) * 1e-6; }

  int open(std::string name, Clock::time_point start) {
    Span span;
    span.name = std::move(name);
    span.start_us = micros(start);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.workload = workload_;
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void finish(int index, Clock::time_point end) {
    spans_[index].end_us = micros(end);
    // Spans close in LIFO order (RAII scopes on one thread).
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  Clock::time_point epoch_ = Clock::now();
  bool enabled_ = false;
  int workload_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace snntest::bench
