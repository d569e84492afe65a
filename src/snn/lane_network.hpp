// Lane-batched layer execution for parallel fault simulation (DESIGN.md §12).
//
// The campaign engine packs 1 to W same-layer faults into one multi-lane
// pass: every lane shares the identical fault-free prefix and the identical
// weights, so each layer streams its weight matrix once per frame and feeds
// W per-lane accumulators (tensor/ops.hpp lane kernels), with per-lane
// membrane/refractory state and per-lane spike output.
//
// Bit-identity discipline: a lane must produce exactly the spike train the
// layer's own (scalar) forward produces with that lane's fault written into
// the network.
//  * At the fault layer the input is shared (golden prefix), so the fault-
//    free synaptic frame (shared_synaptic_frame, the scalar kernels) is
//    the same for every lane and every batch: the campaign caches it per
//    frame in the golden cache when two or more batches start at the
//    layer, and LaneLayerRun computes it in place otherwise (for a dense or
//    recurrent layer, as the cast of the golden sums). Either way it is
//    broadcast; a lane's synapse fault only changes the rows/outputs it
//    touches, and those are recomputed per lane by fault_row with the
//    faulty value substituted in the scalar accumulation order (ordered
//    double sums) —
//    unless the input the faulty synapse taps is zero in this frame: the
//    faulty term is then value * 0 = +/-0.0 (the value is finite, which
//    fault::resolve_lane_fault guarantees), it leaves the double
//    accumulator unchanged, and the broadcast fault-free value is already
//    the faulty one. A certified dense/recurrent weight-fault row with a
//    nonzero tap is the golden sum minus the stored weight plus the faulty
//    value, O(1) per frame.
//  * At the layers after the fault the weights are fault-free and shared.
//    A dense or recurrent row whose weights pass the exactness certificate
//    (row_sum_exact) sums every 0/1 subset of its weights exactly in
//    double, in any order, so a lane takes the golden double sum of the
//    frame and adds or subtracts only the weights of the input columns
//    where its spike differs from golden (golden-plus-delta, LaneDelta);
//    the cast gives the scalar ordered sum's float. Rows that fail the
//    certificate, conv and pool layers, and runs without golden sums use
//    the lane-strided kernels, which accumulate each lane's ordered double
//    sum exactly like the scalar kernels (see tensor/ops.hpp); their sparse
//    variants gather over the union of the lanes' active sets (the skipped
//    terms are exact +/-0.0 for every lane). The recurrent V·prev term takes
//    the same two routes at the fault layer too.
//  * Neuron faults never touch the synaptic frame: LaneLif folds a
//    per-lane single-neuron parameter override into its per-element
//    parameters for the (elementwise) LIF update.
//
// Layering note: this header knows nothing about fault descriptors — the
// fault table (fault::resolve_lane_fault, fault/injector.hpp) resolves a
// fault::FaultDescriptor into the plain LaneFault PODs below.
#pragma once

#include <climits>
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
/// of a synapse fault (the faulty stored value, not a delta, so fault_row
/// recomputes the affected row exactly as the faulty forward computes it).
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
  // The output the faulty synapse feeds and the input it reads: row and
  // column of a weight or lateral weight, a conv connection's endpoints;
  // unused for a conv weight tap, which feeds every pixel of its channel.
  size_t out_index = 0;
  size_t in_index = 0;
  float delta = 0.0f;    // conv connection: effective - stored weight
  // kWeight: the faulty row passes row_sum_exact with the faulty value
  // included, so its sum over a 0/1 frame is O(1) from the golden sum.
  bool row_exact = false;
};

/// One resolved fault: the output of fault::resolve_lane_fault. The lane
/// kernels and the frontier walk apply it per lane to a const network (the
/// synapse half through fault_row); FaultInjector writes it into a mutable
/// network for the naive reference walk and the oracles. At most one of
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

/// Inputs of the exactness certificate of one weight row: e_min is the
/// smallest ilogb over the row's finite nonzero weights (INT_MAX when there
/// is none) and abs_sum the double sum of every |w|.
struct RowBound {
  int e_min = INT_MAX;
  double abs_sum = 0.0;
};

/// The certificate inputs of `row` [cols].
RowBound row_bound(const float* row, size_t cols);

/// `b` widened by one more weight — the faulty value of a synapse fault,
/// so one certificate covers both the fault-free and the faulty row.
RowBound with_weight(RowBound b, float w);

/// The exactness certificate (DESIGN.md §12): every weight of the row is a
/// multiple of 2^q with q = max(e_min - 23, -149) (the float quantum of its
/// smallest binade, or of the subnormals), so every signed sum of a subset
/// of the row's weights is an integer multiple of 2^q no larger than
/// abs_sum. When abs_sum < 2^(q + 53) each such sum — every partial sum of
/// a row times a 0/1 spike frame, in any order — is exact in double.
/// A zero row passes; a NaN or infinite weight fails.
bool row_sum_exact(const RowBound& b);

/// Golden-plus-delta operands of one weight matrix W [rows, cols] of a
/// dense or recurrent layer: the golden double sums of W times the layer's
/// golden input frames, the golden input train they were taken over, W in
/// column-major order for the column adds, and the rows that fail
/// row_sum_exact. All borrowed from the golden cache.
struct DeltaMatrix {
  const double* sums = nullptr;          // [T, rows]; row t sums golden input frame t
  const float* golden_in = nullptr;      // [T, cols] golden input train
  const float* wt = nullptr;             // [cols, rows] column-major W
  const uint32_t* uncertified = nullptr;  // ascending rows failing the certificate
  size_t num_uncertified = 0;
};

/// Golden-plus-delta view of one dense or recurrent layer for LaneLayerRun.
/// For the lateral V of a recurrent layer, `v.golden_in` is the layer's own
/// golden spike train and sums row t is V times its frame t - 1 (row 0,
/// which has no feedback, is never read).
struct LaneDelta {
  DeltaMatrix w;
  DeltaMatrix v;
  /// Every golden input frame of W is 0/1 (always true after layer 0; for
  /// layer 0 a property of the stimulus). The fault layer's O(1) weight-
  /// fault row needs it: its input frame is the golden one.
  bool binary_input = false;
};

/// The fault-free synaptic frame of `layer` for one input frame, written to
/// `out` [num_neurons]. For a recurrent layer this is only the feed-forward
/// W·x term; the V·prev feedback differs per lane and is added by the
/// caller. Dense or sparse kernels are picked per frame as Layer::forward
/// picks them (bit-identical either way); `active` is scratch for the
/// input's active set. The golden cache builds its synaptic traces with
/// this function and LaneLayerRun::step_shared falls back to it, so the
/// frame has one definition.
void shared_synaptic_frame(const Layer& layer, const float* in_frame, KernelMode mode,
                           std::vector<uint32_t>& active, float* out);

/// Whether synapse fault `sf` of `layer` reads a nonzero input at output
/// `out` in this frame: `in_frame` for a weight, conv-weight or
/// conv-connection tap, the layer's previous output frame `prev` (null at
/// frame 0) for a lateral tap. When it does not, the faulty term is
/// value * 0 (or delta * 0), an exact +/-0.0 addend, so output `out`'s
/// synaptic current is the fault-free one for the same `prev`.
bool fault_tap_live(const Layer& layer, const LaneSynapseFault& sf, size_t out,
                    const float* in_frame, const float* prev);

/// The fault layer's shared inputs in one frame: its input frame, which
/// is golden (the fault layer reads the golden prefix), and what the
/// caller already holds of the fault-free result.
struct FaultFrame {
  const float* in = nullptr;         // input frame [num_inputs]
  const float* clean = nullptr;      // fault-free feed-forward frame [n], or null
  const double* sums = nullptr;      // golden double sums of W over `in` [n], or null
  bool binary_in = false;            // every value of `in` is 0 or 1
};

/// One fault row (see LaneLayerRun::fault_rows_recomputed): the synaptic
/// current of output `out` of `layer` in one frame with synapse fault `sf`
/// written into the layer, bit for bit the float its forward computes
/// there. The lane kernels and the frontier walk both take a synapse
/// fault's effect from here, so neither writes it into a network.
/// Where the fault's tap is not live at `out` (fault_tap_live), the
/// feed-forward term is the fault-free float: `frame.clean`, else the cast
/// of `frame.sums`, else the ordered row sweep.
///  * kWeight with a live tap: the golden sum minus the stored weight plus
///    the faulty one when `frame.sums`, `frame.binary_in` and
///    `sf.row_exact` hold (x[col] is 1.0f, and every partial sum is exact
///    under the certificate); else the ordered sweep of the faulty row.
///  * kConvWeight with a live tap: the faulty conv pixel.
///  * kConvConnection: the fault-free pixel plus delta times the tapped
///    input.
///  * A recurrent layer adds the V row (faulty for kRecurrentWeight) times
///    `prev`, the layer's own output at the previous frame strided by
///    `prev_stride` floats, as a second separately rounded term; `prev` is
///    null at frame 0. `sf` must be a synapse fault of `layer` (not kNone).
float fault_row(const Layer& layer, const LaneSynapseFault& sf, size_t out,
                const FaultFrame& frame, const float* prev = nullptr, size_t prev_stride = 1);

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
  /// which step_shared then reads instead of recomputing. `delta` is null
  /// or, for a dense or recurrent layer, its golden-plus-delta operands
  /// (the view is copied; the arrays it points at are borrowed):
  /// step_lanes and the recurrent feedback then take the delta route for
  /// certified rows, and a certified weight-fault row at the fault layer
  /// costs O(1) per frame.
  void reset(const Layer& layer, size_t lanes, const LaneFault* faults, KernelMode mode,
             const float* frames, const LaneDelta* delta = nullptr);

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

  /// Delta-route work since reset(), summed over lanes: weight columns
  /// added into lane sums by the column-add kernel, and (row, frame) sums
  /// taken by the delta route (certified) or by the ordered lane kernels
  /// because the row failed the certificate (uncertified).
  size_t lane_synaptic_adds() const { return synaptic_adds_; }
  size_t delta_rows_certified() const { return rows_certified_; }
  size_t delta_rows_uncertified() const { return rows_uncertified_; }

 private:
  void scan_faults();
  void broadcast_base(float* syn_lanes) const;
  /// The lanes' feed-forward synapse faults on top of the broadcast
  /// fault-free frame; a fault whose tap is silent in this frame is skipped.
  void apply_shared_synapse_faults(const FaultFrame& frame, float* syn_lanes);
  /// The recurrent lateral (V) faults of the lanes, after the per-lane
  /// feedback matvec has added the fault-free V·prev term.
  void apply_recurrent_faults(const FaultFrame& frame);
  void synaptic_lanes(const float* in_lanes, float* syn_lanes);
  /// Golden-plus-delta sum of `m` (a layer matrix `w` [n_, cols]) over the
  /// lane frame `x_lanes` into syn_lanes: assigned for the feed-forward
  /// term, added (`add`) for the recurrent feedback. `golden_row` is the
  /// golden input frame the sums row `t_` was taken over.
  void delta_term(const DeltaMatrix& m, const float* w, size_t cols, const float* x_lanes,
                  size_t golden_row, bool add, float* syn_lanes);
  /// The fault-free feedback V·prev of a recurrent layer into syn_.
  void feedback_lanes();
  void finish_step(float* out_lanes);

  const Layer* layer_ = nullptr;
  size_t lanes_ = 0;
  size_t n_ = 0;  // num_neurons
  KernelMode mode_ = KernelMode::kAuto;
  const float* frames_ = nullptr;      // cached fault-free syn frames [T, n] or null
  LaneDelta delta_;                    // golden-plus-delta operands (w.sums null: none)
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
  size_t synaptic_adds_ = 0;
  size_t rows_certified_ = 0;
  size_t rows_uncertified_ = 0;
  std::vector<double> acc_;       // conv scatter [n*lanes] / delta sums [n] accumulators
  std::vector<uint32_t> active_;  // per-frame active / union-active indices
  std::vector<uint32_t> plus_;    // delta route: per-lane columns [lanes * cols]
  std::vector<uint32_t> minus_;
  std::vector<float> held_;       // uncertified rows' feed-forward floats
  std::vector<float> golden_f_;   // the frame's golden sums as floats
};

}  // namespace snntest::snn
