// Differential fault-simulation campaign engine.
//
// The naive campaign re-simulates every layer of the network for every
// fault. This engine exploits the structure of the problem instead:
//
//  * Prefix reuse — a fault is confined to one layer k (see
//    fault/injector.hpp), so the fault-free spike trains of layers 0..k-1
//    from the GoldenCache feed layer k directly; only layers k..L-1 run.
//  * Convergence pruning (exact early exit) — spike trains are binary, so
//    if the faulty output of any layer l >= k is bit-identical to the
//    golden train of layer l, every downstream layer is bit-identical too:
//    the fault is undetectable by this stimulus and simulation stops at
//    layer l. This decides `detected` without ever touching the remaining
//    layers, and the emitted DetectionResult is exactly what the naive
//    path would have produced.
//  * Detect-only early exit — when only Eq. (3)'s detected/undetected bit
//    is needed, the output comparison keeps accumulating the L1 mass
//    timestep by timestep and stops as soon as it crosses the detection
//    threshold (a decisive divergence — later timesteps can only grow it).
//    `output_l1` then holds a lower bound of the full L1 (exact when the
//    train ends below the threshold) and class_count_diff is left empty.
//  * Lane batching — every pending fault rides a lane batch of 1 to
//    `lane_width` faults confined to the same layer, one multi-lane forward
//    from the golden prefix: each layer streams its weights once per frame
//    for all lanes (per-lane membrane state, per-lane spike trains), and
//    retired lanes (converged or decisively divergent in detect-only mode)
//    are compacted away so the remaining frames run narrower. The lanes
//    apply each resolved fault to the shared fault-free network, so no
//    route writes a fault into a network; results stay bit-identical to
//    the naive walk (snn/lane_network.hpp, DESIGN.md §12). The divergence
//    frontier (`frontier`) is the other fast route for the same items.
//  * Dynamic scheduling — per-fault cost varies by orders of magnitude
//    with fault depth, so workers claim small chunks from a shared atomic
//    counter (util::parallel_for_dynamic) instead of static ranges.
//  * Resume hooks — result_cache serves already-known pairs instead of
//    simulating them and result_sink streams each fresh result as it
//    finishes; coverage::run_incremental_campaign wires both to an SNFD
//    fault dictionary, which is the one resume format (DESIGN.md §8).
#pragma once

#include <functional>
#include <vector>

#include "fault/detection_result.hpp"
#include "fault/injector.hpp"
#include "tensor/tensor.hpp"

namespace snntest::campaign {

struct EngineConfig {
  size_t num_threads = 0;  // 0 = hardware concurrency
  /// Faults evaluated per forward pass: pending faults confined to the
  /// same layer are packed into lane batches of up to this many lanes
  /// (clamped to snn::kMaxLaneWidth); 1 runs every fault as a batch of one,
  /// as is a layer's lone pending fault at any width. Results are
  /// bit-identical at every width.
  size_t lane_width = 8;
  /// detected = output_l1 > detection_threshold (default keeps Eq. (3)).
  double detection_threshold = 0.0;
  /// Reuse golden activations of the layers before the faulty one. False
  /// selects the naive reference walk instead of the fast routes: each
  /// fault is written into a per-worker network clone (fault::ScopedFault)
  /// and every layer runs from the stimulus, with no lanes, no frontier and
  /// no pruning (convergence_pruning is not read). Meant as a baseline for
  /// benches and identity gates; results are identical either way.
  bool prefix_reuse = true;
  /// Retire a fault as soon as a layer's faulty output matches its golden
  /// output (the lane and frontier routes).
  bool convergence_pruning = true;
  /// Only decide detected/undetected: accumulate the output L1 timestep by
  /// timestep and stop once it crosses detection_threshold (or the train
  /// ends). output_l1 becomes a lower bound (exact for undetected faults)
  /// and class_count_diff is left empty. Off by default (full results).
  bool detect_only = false;
  /// Forward-kernel selection for the golden pass and every worker clone.
  /// All modes produce bit-identical spike trains (snn::KernelMode); the
  /// default kAuto exploits event sparsity per frame and never loses.
  snn::KernelMode kernel_mode = snn::KernelMode::kAuto;
  /// Divergence-frontier simulation (DESIGN.md §17): downstream of the
  /// fault layer, recompute per frame only the neurons reachable from the
  /// set of diverged spikes/state (copying golden values for the rest), in
  /// the exact dense accumulation order — results stay bit-identical at
  /// every lane width. The engine's router probes each fault layer and
  /// keeps the walk only where its recompute fraction says it beats the
  /// lane batches (sparse cones win; heavily divergent layers lose to SIMD
  /// lane batching). Requires prefix_reuse and golden state traces (see
  /// golden_cache_budget_bytes); when either is missing the engine logs a
  /// one-time warning and runs the lane batches instead. Off by default.
  bool frontier = false;
  /// Memory budget for the golden cache, in bytes (0 = unlimited). The
  /// per-layer spike trains are irreducible. Over budget, the cached
  /// fault-layer synaptic frames and the golden sums of the dense and
  /// recurrent layers are dropped first (lane batches compute the frames in
  /// place and take the ordered lane kernels instead of golden-plus-delta
  /// sums, and the frontier walk sweeps its rows in order); when trains +
  /// LIF state traces still exceed it the
  /// state traces are dropped too (fail-soft to prefix-only caching,
  /// disabling frontier simulation). Each step warns once; results are
  /// identical either way.
  size_t golden_cache_budget_bytes = 0;
  /// Consulted once per fault, before the worklist is built: return true
  /// and fill `result` when the (fault, stimulus) pair is already known —
  /// e.g. served from a coverage fault dictionary (coverage/incremental.hpp).
  /// Such pairs skip simulation entirely and are counted in
  /// EngineStats::pairs_reused. Called from the campaign thread only, never
  /// concurrently.
  std::function<bool(size_t fault_index, fault::DetectionResult& result)> result_cache;
  /// Streaming completion hook: called exactly once per fault *simulated in
  /// this run* (cache-reused pairs are not replayed through it), as soon as
  /// that fault's DetectionResult is final. Calls are serialized by an
  /// internal mutex but originate from worker threads. Incremental
  /// campaigns record each pair into their dictionary through it, and the
  /// sharded campaign worker (campaign/shard_worker.hpp) also snapshots the
  /// dictionary periodically, so a SIGKILL loses at most the results
  /// accepted since its last snapshot.
  std::function<void(size_t fault_index, const fault::DetectionResult& result)> result_sink;
  /// Progress callback (completed, total); called from worker threads.
  std::function<void(size_t, size_t)> progress;
  /// Cooperative cancellation, polled once per work item (a lane batch of
  /// 1 to lane_width faults). Returning true makes workers stop claiming
  /// work; the partial outcome (completed=false) has streamed every
  /// finished pair through result_sink, so a dictionary-backed rerun
  /// resumes from it.
  std::function<bool()> cancel;
};

struct EngineStats {
  size_t faults_total = 0;
  size_t faults_simulated = 0;  // simulated in this run
  /// Fault×stimulus pairs served by EngineConfig::result_cache (coverage
  /// dictionary hits) instead of being simulated.
  size_t pairs_reused = 0;
  /// Faults whose simulation stopped early at a converged layer.
  size_t faults_pruned = 0;
  /// Layer forward passes actually executed vs. what the naive
  /// all-layers-per-fault path would have executed. The ratio is the
  /// arithmetic speedup of the differential simulation.
  size_t layer_forwards = 0;
  size_t layer_forwards_naive = 0;
  /// Lane width the engine actually ran with: EngineConfig::lane_width
  /// clamped into [1, snn::kMaxLaneWidth]. Differs from the config only
  /// when the request was out of range (which also logs a one-time
  /// warning).
  size_t lane_width_effective = 0;
  /// Work items the lane and frontier routes executed, batches of one
  /// included, and the faults they carried: every simulated fault unless
  /// prefix_reuse is off (the reference walk runs no batches).
  size_t lane_batches = 0;
  size_t lane_batched_faults = 0;
  /// Lanes retired before their batch finished: converged onto the golden
  /// trajectory at an intermediate layer, or (detect-only) decisively
  /// divergent mid-window.
  size_t lanes_retired_early = 0;
  /// Fault-layer frames the lane batches ran, split by where the shared
  /// fault-free synaptic frame came from: read from the golden cache (the
  /// layer hosts two or more lane batches, of any size) or computed in
  /// place. Their sum depends only on the worklist, not on threads or
  /// scheduling.
  size_t synaptic_frames_cached = 0;
  size_t synaptic_frames_computed = 0;
  /// Fault rows of the lane batches' synapse faults at their fault layer,
  /// summed over faults (snn::LaneLayerRun::fault_rows_recomputed): output
  /// sums recomputed with the faulty value, and those skipped because the
  /// input the faulty synapse taps was zero in that frame. Per-fault sums,
  /// so they do not depend on threads or scheduling.
  size_t fault_rows_recomputed = 0;
  size_t fault_rows_skipped = 0;
  /// Golden-plus-delta work of the lane batches' dense and recurrent sums,
  /// summed per lane (snn::LaneLayerRun::lane_synaptic_adds): weight
  /// columns added into lane sums, and (row, frame) sums taken by the delta
  /// route (certified) or by the ordered lane kernels because the row
  /// failed the exactness certificate (uncertified). Per-batch sums of
  /// per-lane work, so they do not depend on threads or scheduling.
  size_t lane_synaptic_adds = 0;
  size_t delta_rows_certified = 0;
  size_t delta_rows_uncertified = 0;
  /// True when the run actually used divergence-frontier simulation
  /// (EngineConfig::frontier requested AND every prerequisite held).
  bool frontier_active = false;
  /// Faults simulated through the frontier path.
  size_t frontier_faults = 0;
  /// Neuron-timestep updates the frontier path executed, vs. what dense
  /// frame kernels would have executed for the same (lane, layer, frame)
  /// work (active lanes × layer size per frame). The ratio is the
  /// per-neuron work reduction; full-frame fallbacks count on both sides.
  size_t frontier_neuron_updates = 0;
  size_t frontier_neuron_updates_dense = 0;
  /// Frames whose dirty fraction exceeded kFrontierFallbackFraction
  /// (campaign/frontier_sim.hpp), so the walk recomputed every neuron.
  size_t frontier_fallback_frames = 0;
  /// Golden-cache footprint: total retained bytes, the per-layer
  /// breakdown (spike train + any synaptic frames and state traces), and
  /// whether the LIF state traces were kept (false after a budget
  /// fail-soft).
  size_t golden_cache_bytes = 0;
  std::vector<size_t> golden_cache_layer_bytes;
  bool golden_cache_state_traces = false;
  double elapsed_seconds = 0.0;

  double forward_savings() const {
    return layer_forwards_naive == 0
               ? 0.0
               : 1.0 - static_cast<double>(layer_forwards) /
                           static_cast<double>(layer_forwards_naive);
  }

  /// Fraction of per-neuron work the frontier walk skipped (0 when the
  /// frontier path never ran).
  double frontier_savings() const {
    return frontier_neuron_updates_dense == 0
               ? 0.0
               : 1.0 - static_cast<double>(frontier_neuron_updates) /
                           static_cast<double>(frontier_neuron_updates_dense);
  }
};

struct CampaignResult {
  std::vector<fault::DetectionResult> results;  // parallel to the fault list
  /// False when the run was cancelled before every fault completed; the
  /// unfinished entries are default-constructed (detected=false, l1=0).
  bool completed = true;
  EngineStats stats;

  size_t detected_count() const;
};

/// Layer a fault descriptor is confined to (defined in fault/fault.hpp).
using fault::fault_layer;

/// Simulate every fault in `faults` against `stimulus` with the
/// differential engine. `net` must be fault-free; it is not modified (the
/// fast routes share it read-only; the reference walk uses clones).
/// Results are bit-identical to the naive re-simulate-everything campaign
/// unless `detect_only` is set. Throws std::out_of_range, before any
/// simulation, if a fault targets a layer outside `net`.
CampaignResult run_campaign(const snn::Network& net, const tensor::Tensor& stimulus,
                            const std::vector<fault::FaultDescriptor>& faults,
                            const EngineConfig& config = {});

}  // namespace snntest::campaign
