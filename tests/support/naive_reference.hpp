// Test-support oracle for fault detection (paper Eq. (3)/(4)).
//
// naive_reference runs one full Network::forward per fault through
// ScopedFault and compares the output against a golden forward — no golden
// prefix, no lanes, no convergence pruning, no threads — in full or
// detect-only mode. Its only code in common with the campaign engine is the
// fault table (fault::resolve_lane_fault, which ScopedFault injects
// through); that table is pinned independently, against the formulas
// written out in InjectorKindTest (tests/test_fault.cpp). So every engine
// route (lane, the reference walk, dictionary-served or resumed)
// reproducing its results exactly is a meaningful identity check.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "fault/detection_result.hpp"
#include "fault/injector.hpp"
#include "fault/registry.hpp"
#include "snn/network.hpp"
#include "snn/spike_train.hpp"

namespace snntest::test_support {

/// One DetectionResult per fault in `faults`. Full results fill every
/// field. `detect_only` gives Eq. (3)'s bit alone, as
/// EngineConfig::detect_only defines it: the output L1 accumulates frame by
/// frame in element order and stops at the first frame whose cumulative L1
/// exceeds `threshold`, so output_l1 is that lower bound (the exact L1 when
/// no frame does) and the per-class fields stay empty.
inline std::vector<fault::DetectionResult> naive_reference(
    const snn::Network& net, const tensor::Tensor& stimulus,
    const std::vector<fault::FaultDescriptor>& faults, double threshold = 0.0,
    bool detect_only = false) {
  snn::Network golden_net(net);
  const auto golden = golden_net.forward(stimulus);
  const auto golden_counts = golden.output_counts();
  const auto stats = fault::compute_weight_stats(golden_net);
  snn::Network worker(net);
  fault::FaultInjector injector(worker, stats);
  std::vector<fault::DetectionResult> results(faults.size());
  for (size_t j = 0; j < faults.size(); ++j) {
    fault::ScopedFault scoped(injector, faults[j]);
    const auto faulty = worker.forward(stimulus);
    auto& r = results[j];
    // First frame whose cumulative output L1 exceeds the threshold, walked
    // independently of the engine's accumulation loop.
    r.first_detection_frame = -1;
    double acc = 0.0;
    {
      const auto& g = golden.output();
      const auto& f = faulty.output();
      const size_t T = g.shape().dim(0);
      const size_t C = g.shape().dim(1);
      for (size_t t = 0; t < T && r.first_detection_frame < 0; ++t) {
        for (size_t c = 0; c < C; ++c) {
          acc += std::abs(static_cast<double>(g[t * C + c]) - static_cast<double>(f[t * C + c]));
        }
        if (acc > threshold) r.first_detection_frame = static_cast<int64_t>(t);
      }
    }
    if (detect_only) {
      // The walk above stopped at the crossing frame, or ran to the end.
      r.output_l1 = acc;
      r.detected = r.first_detection_frame >= 0;
      continue;
    }
    r.output_l1 = snn::output_distance(golden.output(), faulty.output());
    r.detected = r.output_l1 > threshold;
    const auto counts = faulty.output_counts();
    r.class_count_diff.resize(counts.size());
    for (size_t c = 0; c < counts.size(); ++c) {
      r.class_count_diff[c] = static_cast<long>(counts[c]) - static_cast<long>(golden_counts[c]);
    }
    r.class_first_spike = faulty.output_first_spike_times();
  }
  return results;
}

}  // namespace snntest::test_support
