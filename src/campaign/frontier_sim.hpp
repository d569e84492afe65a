// Divergence-frontier fault simulation (DESIGN.md §17).
//
// Downstream of the fault layer, a fault usually flips a handful of spikes
// per frame. The frontier simulator exploits that: each lane's layer output
// starts as a memcpy of the golden train, and per frame only the neurons
// reachable from the current divergence frontier (plus neurons whose LIF
// state still differs from golden — the persistent-state set) are
// re-simulated, with the exact LifBank update (snn::lif_step_neuron), so
// every DetectionResult is bit-identical to the lane route and the naive
// forward. A dense or recurrent layer whose golden sums the cache keeps
// takes a dirty neuron's synaptic current as the golden sum plus the lane's
// divergent inputs, exact under the rows' certificate (DESIGN.md §12);
// other rows keep the dense kernels' ordered sweep (Layer::frontier_synapse).
// A neuron whose (u, refrac) state re-matches the cached golden state
// traces retires from the dirty set; a layer whose frame frontier stays
// empty is a converged lane — exactly the engine's convergence pruning —
// and a run of frames in which no lane has work is skipped. When a frame's
// dirty fraction exceeds kFrontierFallbackFraction the frame takes every
// neuron (the full frame kernel, Layer::frontier_synapse_frame, where no
// golden sums apply), still bit-identical.
//
// One routine serves a lone fault (count == 1) and lane batches (count up
// to snn::kMaxLaneWidth, all faults confined to the same layer): per-lane
// faults are resolved by the one fault table (fault::resolve_lane_fault)
// into snn::LaneFault PODs; neuron faults are applied as parameter
// overrides inside the shared LIF step, and the fault layer's neurons that
// a synapse fault reads take their synaptic current from snn::fault_row,
// as the lane kernels do, so the shared network is never written. Those
// neurons enter the walk only in frames where the fault's tap reads a
// nonzero input (snn::fault_tap_live). Each lane steps its own dirty set.
#pragma once

#include <cstdint>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/golden_cache.hpp"
#include "campaign/sim_internal.hpp"
#include "fault/injector.hpp"

namespace snntest::campaign {

/// The engine's frontier router (DESIGN.md §17): per fault layer, the first
/// kFrontierProbeBatches items run the walk; later items keep it only while
/// the layer's recompute fraction (frontier neuron updates over the dense
/// equivalent) stays under kFrontierCutoff, else they run lane batches. The
/// walk competes with a lane batch of the same faults (a lone fault's with
/// a batch of one), whose golden-plus-delta sums and SIMD-across-lanes
/// kernels are cheap even for one lane, so it only wins clearly sparse
/// cones (bench_campaign_engine's frontier sweep).
inline constexpr size_t kFrontierProbeBatches = 1;
inline constexpr double kFrontierCutoff = 0.10;
/// Dirty-fraction fallback: a frame in which more than this fraction of a
/// layer's neurons is dirty recomputes every neuron (counted in
/// EngineStats::frontier_fallback_frames).
inline constexpr double kFrontierFallbackFraction = 0.5;

/// Per-lane frontier walk state, reused across layers and batches.
struct FrontierLaneState {
  snn::LaneFault fault;
  size_t result_index = 0;
  bool active = false;
  bool full_frame = false;  // this frame fell back to the dense frame kernel
  std::vector<uint8_t> dirty;        // [n] membership flags of dirty_list
  std::vector<uint8_t> seeded;   // [n] fault-layer neurons the fault acts on
  std::vector<uint32_t> seeds;   // the same neurons, listed
  bool pinned = false;  // a neuron fault: its seed never retires
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
  std::vector<uint8_t> exact_rows;   // neuron -> its rows pass the certificate
  // Last batch's recompute tally (also added to the worker's counters) — the
  // engine's router reads these to estimate the fault layer's frontier
  // profitability.
  size_t last_updates = 0;
  size_t last_updates_dense = 0;
};

/// Simulate the `count` faults `faults[batch[0..count)]` — all confined to
/// the same layer — with the divergence-frontier walk, writing
/// `results[batch[i]]`. Requires config.prefix_reuse and golden state
/// traces (cache.has_state_traces); the engine checks both before routing
/// here. `net` is the fault-free reference network and is never mutated,
/// so workers share the caller's instance; `stats` must come from
/// compute_weight_stats on it.
void simulate_fault_frontier(const snn::Network& net, const tensor::Tensor& stimulus,
                             const GoldenCache& cache, const EngineConfig& config,
                             const std::vector<fault::LayerWeightStats>& stats,
                             const std::vector<fault::FaultDescriptor>& faults,
                             const size_t* batch, size_t count,
                             std::vector<fault::DetectionResult>& results,
                             detail::SimCounters& counters, FrontierSimContext& ctx);

}  // namespace snntest::campaign
