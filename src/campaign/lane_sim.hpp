// Lane-batched fault simulation: W same-layer faults per forward pass.
//
// simulate_fault_batch packs 1 to lane_width pending faults that share a
// fault layer into one multi-lane forward from the shared golden prefix
// (snn/lane_network.hpp): each downstream layer streams its weights once
// per frame for all lanes instead of once per fault. Every lane's
// DetectionResult is bit-identical to the naive walk (the fault written
// into the network, every layer run) — the lane kernels replay the ordered
// double accumulation of the single-fault kernels per lane, and retirement
// (convergence pruning, detect-only threshold crossing) only stops work
// whose outcome is already decided (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/golden_cache.hpp"
#include "campaign/sim_internal.hpp"
#include "fault/injector.hpp"
#include "snn/lane_network.hpp"

namespace snntest::campaign {

/// Per-worker scratch for the lane path — sized on first use, reused for
/// every batch the worker claims (no per-batch allocation at steady state).
struct LaneSimContext {
  std::vector<snn::LaneFault> lane_faults;  // resolved per-lane faults
  std::vector<size_t> result_index;         // lane -> fault index (compacted)
  std::vector<float> bufs[2];               // ping-pong lane trains [T, n, lanes]
  std::vector<float> frame;                 // detect-only per-frame output [n, lanes]
  std::vector<float> frame_in;              // input frame gathered to the live lanes
  std::vector<uint8_t> keep;                // retirement mask
  std::vector<double> l1_acc;               // detect-only per-lane L1
  tensor::Tensor slice;                     // per-lane [T, n] extraction
  snn::LaneLayerRun run;
};

/// Simulate the `count` faults `faults[batch[0..count)]` — all confined to
/// the same layer — in one lane-batched pass, writing `results[batch[i]]`.
/// Requires 1 <= count <= snn::kMaxLaneWidth; prefix_reuse is assumed (the
/// engine runs the reference walk instead when it is off). `net` is the fault-free
/// reference network and is never mutated, so workers share the caller's
/// instance; `stats` must come from compute_weight_stats on it.
void simulate_fault_batch(const snn::Network& net, const tensor::Tensor& stimulus,
                          const GoldenCache& cache, const EngineConfig& config,
                          const std::vector<fault::LayerWeightStats>& stats,
                          const std::vector<fault::FaultDescriptor>& faults,
                          const size_t* batch, size_t count,
                          std::vector<fault::DetectionResult>& results,
                          detail::SimCounters& counters, LaneSimContext& ctx);

}  // namespace snntest::campaign
