#include "coverage/minimize.hpp"

#include <algorithm>
#include <queue>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace snntest::coverage {
namespace {

/// Newly-covered detected faults of stimulus `s` given the covered mask.
size_t marginal_gain(const std::vector<std::vector<size_t>>& detected, size_t s,
                     const std::vector<char>& covered) {
  size_t gain = 0;
  for (size_t f : detected[s]) gain += covered[f] == 0;
  return gain;
}

struct HeapEntry {
  size_t gain = 0;
  uint64_t cost = 1;
  size_t stimulus = 0;
};

/// Max-heap order on gain/cost via exact integer cross-multiplication
/// (gains and frame costs both fit comfortably in 64 bits; the product
/// uses 128-bit arithmetic so no real matrix can overflow it). Ties:
/// larger gain first (fewer scheduled tests for the same rate), then the
/// smaller stimulus index — fully deterministic.
struct WorseRatio {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    const auto lhs = static_cast<unsigned __int128>(a.gain) * b.cost;
    const auto rhs = static_cast<unsigned __int128>(b.gain) * a.cost;
    if (lhs != rhs) return lhs < rhs;
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.stimulus > b.stimulus;
  }
};

}  // namespace

TestSchedule minimize_schedule(const FaultDictionary& dict) {
  OBS_SPAN("coverage/minimize");
  TestSchedule schedule;
  schedule.num_faults = dict.num_faults();
  const size_t S = dict.num_stimuli();

  std::vector<std::vector<size_t>> detected(S);
  std::vector<uint64_t> cost(S, 1);
  for (size_t s = 0; s < S; ++s) {
    detected[s] = dict.detected_faults(s);
    // A zero-length stimulus still occupies at least one comparator frame.
    cost[s] = std::max<uint64_t>(dict.stimulus(s).duration_frames, 1);
    schedule.all_stimuli_frames += cost[s];
    schedule.pairs_recorded += dict.records_for(s);
  }
  schedule.detectable_faults = dict.detectable_count();

  std::vector<char> covered(dict.num_faults(), 0);
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, WorseRatio> heap;
  for (size_t s = 0; s < S; ++s) {
    if (!detected[s].empty()) heap.push({detected[s].size(), cost[s], s});
  }

  while (!heap.empty() && schedule.covered_faults < schedule.detectable_faults) {
    HeapEntry top = heap.top();
    heap.pop();
    const size_t fresh = marginal_gain(detected, top.stimulus, covered);
    if (fresh == 0) continue;  // fully shadowed by earlier picks — never useful again
    if (fresh != top.gain) {
      // Stale score: re-insert with the true gain. Gains only shrink, so
      // the entry sinks and is re-examined exactly when it matters.
      top.gain = fresh;
      heap.push(top);
      continue;
    }
    // The top entry's score is current => it maximizes gain/cost now.
    for (size_t f : detected[top.stimulus]) covered[f] = 1;
    schedule.covered_faults += fresh;
    schedule.scheduled_frames += top.cost;
    schedule.steps.push_back({top.stimulus, fresh, schedule.covered_faults, top.cost,
                              schedule.scheduled_frames});
  }

  obs::Registry& reg = obs::Registry::instance();
  reg.counter("coverage/minimize_runs").add(1);
  reg.gauge("coverage/schedule_stimuli").set(static_cast<double>(schedule.steps.size()));
  reg.gauge("coverage/schedule_frames").set(static_cast<double>(schedule.scheduled_frames));
  if (schedule.all_stimuli_frames > 0) {
    reg.gauge("coverage/schedule_time_fraction")
        .set(static_cast<double>(schedule.scheduled_frames) /
             static_cast<double>(schedule.all_stimuli_frames));
  }
  return schedule;
}

FaultDictionary schedule_as_dictionary(const FaultDictionary& dict,
                                       const TestSchedule& schedule) {
  FaultDictionary out(dict.faults());
  out.model_fingerprint = dict.model_fingerprint;
  out.detection_threshold = dict.detection_threshold;
  out.detect_only = dict.detect_only;
  out.schedule_ordered = true;
  for (const ScheduleStep& step : schedule.steps) {
    const size_t s = out.add_stimulus(dict.stimulus(step.stimulus));
    for (size_t f = 0; f < dict.num_faults(); ++f) {
      if (const fault::DetectionResult* r = dict.lookup(step.stimulus, f)) {
        out.record(s, f, *r);
      }
    }
  }
  return out;
}

}  // namespace snntest::coverage
