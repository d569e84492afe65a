// Lane-batched layer execution for parallel fault simulation (DESIGN.md §12).
//
// The campaign engine packs up to W same-layer faults into one multi-lane
// pass: every lane shares the identical fault-free prefix and the identical
// weights, so each layer streams its weight matrix once per frame and feeds
// W per-lane accumulators (tensor/ops.hpp lane kernels), with per-lane
// membrane/refractory state and per-lane spike output.
//
// Bit-identity discipline: a lane must produce exactly the spike train the
// scalar engine produces for that lane's fault.
//  * At the fault layer the input is shared (golden prefix), so the fault-
//    free synaptic frame (shared_synaptic_frame, the scalar kernels) is
//    the same for every lane and every batch: the campaign caches it per
//    frame in the golden cache when two or more batches start at the
//    layer, and LaneLayerRun computes it in place otherwise. Either way it
//    is broadcast; a lane's synapse fault only changes the rows/outputs it
//    touches, and those are recomputed per lane with the faulty value
//    substituted in the scalar accumulation order (ordered double sums) —
//    unless the input the faulty synapse taps is zero in this frame: the
//    faulty term is then value * 0 = +/-0.0 (the value is finite, which
//    fault::resolve_lane_fault guarantees), it leaves the double
//    accumulator unchanged, and the broadcast fault-free value is already
//    the faulty one.
//  * At the layers after the fault the weights are fault-free and shared;
//    the lane-strided kernels accumulate each lane's ordered double sum
//    exactly like the scalar kernels (see tensor/ops.hpp), and the sparse
//    variants gather over the union of the lanes' active sets (the skipped
//    terms are exact +/-0.0 for every lane).
//  * Neuron faults never touch the synaptic frame: LaneLif folds a
//    per-lane single-neuron parameter override into its per-element
//    parameters for the (elementwise) LIF update.
//
// Layering note: this header knows nothing about fault descriptors — the
// fault table (fault::resolve_lane_fault, fault/injector.hpp) resolves a
// fault::FaultDescriptor into the plain LaneFault PODs below.
#pragma once

#include <cstdint>
#include <vector>

#include "snn/network.hpp"
#include "tensor/ops.hpp"

namespace snntest::snn {

/// Hard upper bound on lanes per batch (fixed accumulator arrays in the
/// lane kernels); campaign::EngineConfig::lane_width is clamped to this.
inline constexpr size_t kMaxLaneWidth = tensor::kMaxLanes;

/// Per-lane override of one neuron's LIF parameters — the resolved effect
/// of a neuron fault, applied to a single lane during LaneLif::step.
struct LaneNeuronOverride {
  bool active = false;
  uint32_t neuron = 0;
  float threshold = 0.0f;
  float leak = 0.0f;
  int refractory = 0;
  NeuronMode mode = NeuronMode::kNormal;
};

/// Per-lane synaptic perturbation at the fault layer — the resolved effect
/// of a synapse fault (the faulty stored value, not a delta, so the
/// affected row is recomputed exactly as the scalar path computes it).
struct LaneSynapseFault {
  enum class Kind : uint8_t {
    kNone = 0,
    kWeight = 1,           // dense / recurrent feed-forward weight (param 0)
    kRecurrentWeight = 2,  // recurrent lateral weight (param 1)
    kConvWeight = 3,       // conv stored kernel tap
    kConvConnection = 4,   // conv single-connection override
  };
  Kind kind = Kind::kNone;
  size_t index = 0;      // flat weight index within the faulted parameter
  float value = 0.0f;    // faulty stored weight (conv connection: effective weight)
  size_t out_index = 0;  // conv connection endpoints
  size_t in_index = 0;
  float delta = 0.0f;    // conv connection: effective - stored weight
};

/// One resolved fault: the output of fault::resolve_lane_fault, consumed by
/// all three simulation paths — FaultInjector writes it into a network
/// clone (scalar path), the lane kernels apply it per lane, and the
/// frontier walk pokes it around its fault-layer recomputes. At most one of
/// {neuron, synapse} is active (single-fault assumption).
struct LaneFault {
  LaneNeuronOverride neuron;
  LaneSynapseFault synapse;
};

/// Lane-strided LIF state: element (neuron i, lane l) lives at
/// state[i*lanes + l]. The update is elementwise, so each lane replays the
/// scalar LifBank::step float expressions exactly. reset() folds the bank's
/// per-neuron parameters and each lane's neuron-fault override into
/// per-element parameter arrays, so step() is one dispatched frame kernel
/// (tensor::simd::LaneKernels::lif_frame) per layer frame.
class LaneLif {
 public:
  /// Reset state for a fresh window with `bank`'s parameters (copied; the
  /// bank need not outlive the run). `faults` is null (no overrides) or
  /// length `lanes`.
  void reset(const LifBank& bank, size_t lanes, const LaneFault* faults);
  void step(const float* syn_lanes, float* out_lanes);
  /// Drop lanes with keep[l] == 0 (retirement compaction).
  void compact(const uint8_t* keep);

  size_t lanes() const { return lanes_; }

 private:
  size_t n_ = 0;
  size_t lanes_ = 0;
  float reset_v_ = 0.0f;
  // Per-element parameters [n * lanes]; mode holds NeuronMode values.
  std::vector<float> leak_;
  std::vector<float> threshold_;
  std::vector<int> refractory_;
  std::vector<uint8_t> mode_;
  std::vector<float> u_;       // [n * lanes]
  std::vector<int> refrac_;    // [n * lanes]
};

/// The fault-free synaptic frame of `layer` for one input frame, written to
/// `out` [num_neurons]. For a recurrent layer this is only the feed-forward
/// W·x term; the V·prev feedback differs per lane and is added by the
/// caller. Dense or sparse kernels are picked per frame as Layer::forward
/// picks them (bit-identical either way). Returns the input's active count
/// when the choice extracted an active set into `active`, SIZE_MAX
/// otherwise. The golden cache builds its synaptic traces with this
/// function and LaneLayerRun::step_shared falls back to it, so the frame
/// has one definition.
size_t shared_synaptic_frame(const Layer& layer, const float* in_frame, KernelMode mode,
                             std::vector<uint32_t>& active, float* out);

/// Runs one layer of a (const, fault-free) network over a window for W
/// lanes, one timestep at a time, so the caller can interleave per-frame
/// detection checks and lane retirement. Reusable: reset() rebinds without
/// reallocating scratch.
class LaneLayerRun {
 public:
  /// `layer` is borrowed and never mutated. `faults` is null for a
  /// downstream (fault-free) layer, else length `lanes` — per-lane faults
  /// of THIS layer. `mode` picks dense/sparse kernels per frame
  /// (bit-identical either way). `frames` is null or, for a fault layer,
  /// the layer's cached fault-free synaptic frames [T, num_neurons]
  /// (borrowed; shared_synaptic_frame of the golden input frame t at row t),
  /// which step_shared then reads instead of recomputing.
  void reset(const Layer& layer, size_t lanes, const LaneFault* faults, KernelMode mode,
             const float* frames);

  size_t lanes() const { return lanes_; }

  /// Advance one timestep from a SHARED input frame [num_inputs] — the
  /// fault-layer entry point (every lane sees the golden prefix).
  /// `out_lanes` receives the lane-strided spike frame [num_neurons*lanes].
  void step_shared(const float* in_frame, float* out_lanes);

  /// Advance one timestep from a lane-strided input frame
  /// [num_inputs*lanes] — the downstream-layer entry point.
  void step_lanes(const float* in_lanes, float* out_lanes);

  /// Drop lanes with keep[l] == 0: compacts LIF state, recurrent feedback
  /// and the per-lane fault table. Call between timesteps only.
  void compact(const uint8_t* keep);

  /// Fault rows since reset(), summed over lanes: one fault row is one
  /// output sum that reads a lane's faulty synapse at one frame (a dense or
  /// recurrent row, a conv output pixel whose receptive field holds the
  /// faulty tap, a conv connection's output). It is recomputed with the
  /// faulty value, or skipped when the input it taps is zero, because the
  /// faulty term is then an exact +/-0.0 and the fault-free value stands.
  /// Recurrent lateral faults count from frame 1 (frame 0 has no feedback).
  size_t fault_rows_recomputed() const { return rows_recomputed_; }
  size_t fault_rows_skipped() const { return rows_skipped_; }

 private:
  void scan_faults();
  void broadcast_base(float* syn_lanes) const;
  /// `num_active` is the length of the input frame's active set in
  /// `active_` (SIZE_MAX when none was extracted yet; extracted on first
  /// need unless the kernel mode is dense): weight-fault row recomputes then
  /// walk only the active columns — bit-identical, the skipped terms are
  /// exact +/-0.0 contributions.
  void apply_shared_synapse_faults(const float* in_frame, size_t num_active, float* syn_lanes);
  /// The recurrent lateral (V) faults of the lanes, after the per-lane
  /// feedback matvec has added the fault-free V·prev term.
  void apply_recurrent_faults(const float* v);
  void synaptic_lanes(const float* in_lanes, float* syn_lanes);
  void finish_step(float* out_lanes);

  const Layer* layer_ = nullptr;
  size_t lanes_ = 0;
  size_t n_ = 0;  // num_neurons
  KernelMode mode_ = KernelMode::kAuto;
  const float* frames_ = nullptr;      // cached fault-free syn frames [T, n] or null
  const float* base_frame_ = nullptr;  // this step's fault-free syn frame [n]
  size_t t_ = 0;
  bool has_synapse_faults_ = false;
  std::vector<LaneFault> faults_;  // per-lane, compacted along with state
  LaneLif lif_;
  std::vector<float> base_;       // in-place fault-free syn frame [n]
  std::vector<float> syn_;        // lane-strided syn frame [n*lanes]
  std::vector<float> prev_out_;   // recurrent feedback [n*lanes]
  size_t rows_recomputed_ = 0;
  size_t rows_skipped_ = 0;
  std::vector<double> acc_;       // conv lane scatter accumulators [n*lanes]
  std::vector<uint32_t> active_;  // per-frame active / union-active indices
};

}  // namespace snntest::snn
