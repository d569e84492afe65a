// Divergence-frontier fault simulation (DESIGN.md §17).
//
// Downstream of the fault layer, a fault usually flips a handful of spikes
// per frame. The frontier simulator exploits that: each lane's layer output
// starts as a memcpy of the golden train, and per frame only the neurons
// reachable from the current divergence frontier (plus neurons whose LIF
// state still differs from golden — the persistent-state set) are
// re-simulated, with the exact per-neuron accumulation orders of the dense
// kernels (Layer::frontier_synapse) and the exact LifBank update
// (snn::lif_step_neuron), so every DetectionResult is bit-identical to the
// dense scalar/lane paths. A neuron whose (u, refrac) state re-matches the
// cached golden state traces retires from the dirty set; a layer whose
// frame frontier stays empty is a converged lane — exactly the engine's
// convergence pruning. When a frame's dirty fraction exceeds
// EngineConfig::frontier_threshold the frame falls back to the full dense
// frame kernel (Layer::frontier_synapse_frame), still bit-identical.
//
// One routine serves both the scalar path (count == 1) and lane batches
// (count up to snn::kMaxLaneWidth, all faults confined to the same layer):
// per-lane faults are resolved by the one fault table
// (fault::resolve_lane_fault) into snn::LaneFault PODs; neuron faults are
// applied as parameter overrides inside the shared LIF step, synapse faults
// are written into the worker's mutable clone around each lane's
// fault-layer recomputes by fault::apply_synapse_fault /
// restore_synapse_fault, the same write FaultInjector makes. Downstream
// layers iterate the union of the lanes' dirty sets so consecutive lanes
// reuse hot weight rows.
#pragma once

#include <cstdint>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/golden_cache.hpp"
#include "campaign/sim_internal.hpp"
#include "fault/injector.hpp"

namespace snntest::campaign {

/// Per-lane frontier walk state, reused across layers and batches.
struct FrontierLaneState {
  snn::LaneFault fault;
  size_t result_index = 0;
  bool active = false;
  bool full_frame = false;  // this frame fell back to the dense frame kernel
  std::vector<uint8_t> dirty;        // [n] membership flags of dirty_list
  std::vector<uint8_t> param_dirty;  // [n] fault-layer seeds, never retired
  std::vector<uint32_t> dirty_list;
  std::vector<float> u;    // [n] live membrane of dirty neurons
  std::vector<int> refrac; // [n] live refractory counters of dirty neurons
  std::vector<float> train;     // current layer's materialized output [T*n]
  std::vector<float> in_train;  // previous layer's materialized output
  std::vector<uint32_t> div_idx;  // current layer's divergence CSR (frames)
  std::vector<uint32_t> div_off;
  std::vector<uint32_t> in_div_idx;  // previous layer's divergence CSR
  std::vector<uint32_t> in_div_off;
  std::vector<float> syn;  // full-frame fallback scratch [n]
  // final-layer detection ledger (every divergent output element
  // contributes exactly 1.0 to the L1, so the sum is an exact integer and
  // order-independent — bit-identical to the dense frame walks)
  double l1 = 0.0;
  int64_t first_frame = -1;
  std::vector<long> class_diff;
};

/// Per-worker scratch — sized on first use, reused for every batch.
struct FrontierSimContext {
  std::vector<FrontierLaneState> lanes;
  std::vector<uint32_t> fanout;      // per-input fanout query scratch
  std::vector<uint16_t> union_mask;  // neuron -> bitmask of dirty lanes
  std::vector<uint32_t> union_list;
  // Full-frame batching scratch: when several lanes of one frame fall back
  // to the dense frame kernel, their frames are interleaved lane-strided
  // and run through the SIMD lane kernels (bit-identical per lane to the
  // scalar frame kernel) instead of one scalar pass per lane.
  std::vector<size_t> full_list;
  std::vector<float> in_lanes;    // [num_inputs * full lanes]
  std::vector<float> prev_lanes;  // recurrent feedback [n * full lanes]
  std::vector<float> syn_lanes;   // [n * full lanes]
  // Last batch's recompute tally (also added to the shared counters) — the
  // engine's adaptive routing reads these to estimate the fault layer's
  // frontier profitability.
  size_t last_updates = 0;
  size_t last_updates_dense = 0;
};

/// Simulate the `count` faults `faults[batch[0..count)]` — all confined to
/// the same layer — with the divergence-frontier walk, writing
/// `results[batch[i]]`. Requires config.prefix_reuse, golden state traces
/// (cache.has_state_traces) and frontier_supported() on every layer; the
/// engine checks all three before routing here. `net` is the WORKER's
/// mutable fault-free clone: synapse faults are poked in around each
/// lane's fault-layer recomputes and restored before return.
void simulate_fault_frontier(snn::Network& net, const tensor::Tensor& stimulus,
                             const GoldenCache& cache, const EngineConfig& config,
                             const std::vector<fault::LayerWeightStats>& stats,
                             const std::vector<fault::FaultDescriptor>& faults,
                             const size_t* batch, size_t count,
                             std::vector<fault::DetectionResult>& results,
                             detail::SimCounters& counters, FrontierSimContext& ctx);

}  // namespace snntest::campaign
