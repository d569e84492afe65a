// Internals shared by the fault-simulation routes: the reference walk
// (engine.cpp) and the lane batches (lane_sim.cpp). Both must emit
// identical DetectionResults, so the result-filling helpers live here in
// one audited place rather than being duplicated.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/golden_cache.hpp"
#include "obs/metrics.hpp"
#include "snn/spike_train.hpp"

namespace snntest::campaign::detail {

/// Per-class first spike frame of a time-major [T, n] train, T for a class
/// that never fires — exactly ForwardResult::output_first_spike_times.
inline void first_spike_frames(const float* train, size_t T, size_t n,
                               std::vector<size_t>& first) {
  first.assign(n, T);
  for (size_t t = 0; t < T; ++t) {
    const float* row = train + t * n;
    for (size_t i = 0; i < n; ++i) {
      if (first[i] == T && row[i] > 0.5f) first[i] = t;
    }
  }
}

/// Full Eq. (3) comparison: exact L1, per-class count differences and
/// first-spike frames, and the first frame whose cumulative L1 crosses the
/// threshold. The frame walk accumulates in the same element order as
/// tensor::l1_distance (flat time-major), so output_l1 is bit-identical to
/// the historical snn::output_distance result.
inline void fill_full_result(fault::DetectionResult& r, const tensor::Tensor& faulty_output,
                             const GoldenCache& cache, double threshold) {
  const tensor::Tensor& golden = cache.output();
  const size_t T = golden.shape().dim(0);
  const size_t n = golden.shape().dim(1);
  double acc = 0.0;
  int64_t first = -1;
  for (size_t t = 0; t < T; ++t) {
    const float* a = golden.data() + t * n;
    const float* b = faulty_output.data() + t * n;
    for (size_t i = 0; i < n; ++i) acc += std::abs(static_cast<double>(a[i]) - b[i]);
    if (first < 0 && acc > threshold) first = static_cast<int64_t>(t);
  }
  r.output_l1 = acc;
  r.detected = acc > threshold;
  r.first_detection_frame = first;
  const auto counts = snn::spike_counts(faulty_output);
  r.class_count_diff.resize(counts.size());
  for (size_t c = 0; c < counts.size(); ++c) {
    r.class_count_diff[c] =
        static_cast<long>(counts[c]) - static_cast<long>(cache.output_counts[c]);
  }
  first_spike_frames(faulty_output.data(), T, n, r.class_first_spike);
}

/// Detect-only comparison: accumulate the L1 mass timestep by timestep and
/// return as soon as it crosses the threshold (decisive — later timesteps
/// can only grow it). output_l1 is then a lower bound of the full L1; when
/// the train ends below the threshold it is the exact L1.
inline void fill_detect_only_result(fault::DetectionResult& r,
                                    const tensor::Tensor& faulty_output,
                                    const GoldenCache& cache, double threshold) {
  const tensor::Tensor& golden = cache.output();
  const size_t T = golden.shape().dim(0);
  const size_t n = golden.shape().dim(1);
  double acc = 0.0;
  for (size_t t = 0; t < T; ++t) {
    const float* a = golden.data() + t * n;
    const float* b = faulty_output.data() + t * n;
    for (size_t i = 0; i < n; ++i) acc += std::abs(static_cast<double>(a[i]) - b[i]);
    if (acc > threshold) {
      r.detected = true;
      r.output_l1 = acc;
      r.first_detection_frame = static_cast<int64_t>(t);
      if (obs::telemetry_enabled()) {
        static obs::Counter& early_exits =
            obs::Registry::instance().counter("campaign/detect_only_early_exits");
        early_exits.add(1);
      }
      return;
    }
  }
  r.detected = false;
  r.output_l1 = acc;
  r.first_detection_frame = -1;
}

/// Result for a fault whose layer output re-converged onto the golden
/// trajectory: every downstream train is bit-identical, so this is exactly
/// the naive result without running the remaining layers.
inline void fill_converged_result(fault::DetectionResult& r, const GoldenCache& cache,
                                  const EngineConfig& config) {
  r.output_l1 = 0.0;
  r.detected = 0.0 > config.detection_threshold;
  // A (pathological) negative threshold is crossed by the zero divergence at
  // the very first frame — exactly what the full frame walk would report.
  r.first_detection_frame = r.detected ? 0 : -1;
  if (!config.detect_only) {
    r.class_count_diff.assign(cache.output_counts.size(), 0);
    r.class_first_spike = cache.output_first_spike;
  }
}

/// One worker's tallies of the simulation routes. Each worker owns one and
/// run_campaign sums them into EngineStats after the run, so the hot loop
/// writes no shared cache line.
struct SimCounters {
  size_t simulated = 0;
  size_t pruned = 0;
  size_t layer_forwards = 0;
  // lane route
  size_t lane_batches = 0;
  size_t lane_batched_faults = 0;
  size_t lanes_retired_early = 0;
  size_t synaptic_frames_cached = 0;
  size_t synaptic_frames_computed = 0;
  size_t fault_rows_recomputed = 0;
  size_t fault_rows_skipped = 0;
  size_t lane_synaptic_adds = 0;
  size_t delta_rows_certified = 0;
  size_t delta_rows_uncertified = 0;
};

}  // namespace snntest::campaign::detail
