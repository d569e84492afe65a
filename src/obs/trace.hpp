// Scoped trace spans with Chrome trace-event JSON export (DESIGN.md §11).
//
// OBS_SPAN("campaign/fault_sim"); opens an RAII span: when telemetry is
// enabled it reads the steady clock at entry and exit and records one
// complete ("ph":"X") event on the calling thread's ring buffer; when
// disabled the constructor is a single relaxed bool load and a branch.
//
// Each thread owns a fixed-capacity ring (kRingCapacity completed spans);
// when it fills, the oldest events are overwritten and counted as dropped,
// so a long campaign keeps its most recent activity instead of aborting or
// allocating unboundedly. Export serializes every ring into the Chrome
// trace-event format, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// Span names must be string literals (or otherwise process-lifetime
// pointers): the ring stores the pointer, not a copy.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace snntest::obs {

/// Completed spans a thread ring holds before overwriting the oldest.
inline constexpr size_t kRingCapacity = 1 << 16;

/// Microseconds since the process trace epoch (steady clock, first use).
int64_t trace_now_us();

/// Record a completed span on the calling thread's ring buffer. `name` must
/// outlive the trace (string literal). Called by SpanScope; direct use is
/// for spans whose begin/end don't nest lexically.
void record_span(const char* name, int64_t begin_us, int64_t end_us);

class SpanScope {
 public:
  explicit SpanScope(const char* name) {
    if (telemetry_enabled()) {
      name_ = name;
      begin_us_ = trace_now_us();
    }
  }
  ~SpanScope() {
    if (name_ != nullptr) record_span(name_, begin_us_, trace_now_us());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_ = nullptr;
  int64_t begin_us_ = 0;
};

#define SNNTEST_OBS_CONCAT_INNER(a, b) a##b
#define SNNTEST_OBS_CONCAT(a, b) SNNTEST_OBS_CONCAT_INNER(a, b)
/// Open a scoped span covering the rest of the enclosing block.
#define OBS_SPAN(name) \
  ::snntest::obs::SpanScope SNNTEST_OBS_CONCAT(obs_span_, __COUNTER__)(name)

/// Serialize every thread ring as Chrome trace-event JSON
/// ({"traceEvents":[...]}, ts/dur in microseconds).
std::string chrome_trace_json();

/// Write chrome_trace_json() to `path`; false (with a warning) on I/O error.
bool write_chrome_trace(const std::string& path);

/// Spans currently held in ring buffers / overwritten because a ring was
/// full, summed over all threads.
size_t spans_recorded();
size_t spans_dropped();

/// Clear every ring buffer (test isolation; thread registrations survive).
void reset_trace();

}  // namespace snntest::obs
