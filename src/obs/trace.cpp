#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "util/json.hpp"
#include "util/logging.hpp"

namespace snntest::obs {
namespace {

struct SpanEvent {
  const char* name;
  int64_t ts_us;
  int64_t dur_us;
};

/// Per-thread span storage. The owning thread appends; export (and test
/// reset) reads from other threads — the per-ring mutex keeps that
/// TSan-clean. It is uncontended in steady state (one owner, export once),
/// so a span end costs a cheap lock + vector write. The ring outlives its
/// thread via the shared_ptr held in the global list, so spans of
/// short-lived pool threads survive into the export.
struct ThreadRing {
  std::mutex mutex;
  uint32_t tid = 0;
  std::vector<SpanEvent> events;
  size_t next = 0;  // overwrite position once full
  size_t dropped = 0;

  void push(const SpanEvent& e) {
    std::lock_guard<std::mutex> lock(mutex);
    if (events.size() < kRingCapacity) {
      events.push_back(e);
    } else {
      events[next] = e;
      next = (next + 1) % kRingCapacity;
      ++dropped;
    }
  }
};

struct RingList {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  uint32_t next_tid = 0;
};

RingList& ring_list() {
  // Leaked: the atexit trace writer may run after static destruction begins.
  static RingList* list = new RingList;
  return *list;
}

ThreadRing& thread_ring() {
  static thread_local std::shared_ptr<ThreadRing> ring = [] {
    auto r = std::make_shared<ThreadRing>();
    RingList& list = ring_list();
    std::lock_guard<std::mutex> lock(list.mutex);
    r->tid = list.next_tid++;
    list.rings.push_back(r);
    return r;
  }();
  return *ring;
}

std::vector<std::shared_ptr<ThreadRing>> snapshot_rings() {
  RingList& list = ring_list();
  std::lock_guard<std::mutex> lock(list.mutex);
  return list.rings;
}

}  // namespace

int64_t trace_now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                               epoch)
      .count();
}

void record_span(const char* name, int64_t begin_us, int64_t end_us) {
  thread_ring().push({name, begin_us, end_us - begin_us});
}

std::string chrome_trace_json() {
  struct Row {
    SpanEvent event;
    uint32_t tid;
  };
  std::vector<Row> rows;
  size_t dropped = 0;
  for (const auto& ring : snapshot_rings()) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    // Oldest first: a full ring wraps at `next`.
    const size_t n = ring->events.size();
    const size_t start = n < kRingCapacity ? 0 : ring->next;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back({ring->events[(start + i) % n], ring->tid});
    }
    dropped += ring->dropped;
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.event.ts_us < b.event.ts_us; });

  std::string out = "{\"traceEvents\":[";
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"snntest\"}}";
  char buf[160];
  for (const Row& row : rows) {
    std::snprintf(buf, sizeof(buf),
                  ",{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"cat\":\"snntest\",\"ts\":%lld,"
                  "\"dur\":%lld,\"name\":\"",
                  row.tid, static_cast<long long>(row.event.ts_us),
                  static_cast<long long>(row.event.dur_us));
    out += buf;
    out += util::json_escape(row.event.name);
    out += "\"}";
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":";
  out += std::to_string(rows.size());
  out += ",\"dropped_spans\":";
  out += std::to_string(dropped);
  out += "}}";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    SNNTEST_LOG_WARN("cannot write Chrome trace to %s", path.c_str());
    return false;
  }
  out << chrome_trace_json() << "\n";
  return static_cast<bool>(out);
}

size_t spans_recorded() {
  size_t n = 0;
  for (const auto& ring : snapshot_rings()) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    n += ring->events.size();
  }
  return n;
}

size_t spans_dropped() {
  size_t n = 0;
  for (const auto& ring : snapshot_rings()) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    n += ring->dropped;
  }
  return n;
}

void reset_trace() {
  for (const auto& ring : snapshot_rings()) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    ring->events.clear();
    ring->next = 0;
    ring->dropped = 0;
  }
}

}  // namespace snntest::obs
