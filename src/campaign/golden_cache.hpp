// Golden activation cache for differential fault simulation.
//
// One fault-free forward pass is shared by every fault of a campaign: a
// fault confined to layer k (faults are single-layer by construction, see
// fault/injector.hpp) leaves layers 0..k-1 bit-identical to the golden run,
// so their cached spike trains feed layer k's simulation directly.
// The cache also precomputes everything the detection comparison needs
// (output spike counts).
//
// Optional per-layer traces ride along, all bit-exact and all shed
// together by the memory budget:
//  * golden double synaptic sums of the dense and recurrent layers from the
//    shallowest fault layer of a work item on, with the weights' exactness
//    certificates and column-major copies — the operands of the lane
//    route's golden-plus-delta sums (snn::LaneDelta, DESIGN.md §12);
//  * golden double sums of the conv layers strictly downstream of that
//    layer whose output channels all pass the certificate, with the
//    packed kernel — the operands of the lane route's conv delta
//    (snn::ConvDelta); a conv layer with an uncertified channel keeps
//    only the list of those channels;
//  * fault-free synaptic frames of the fault layers that host two or more
//    work items — the frame every item at that layer would otherwise
//    recompute; for a dense or recurrent layer, the float cast of its
//    golden sums; a conv layer with golden sums keeps no float frames, as
//    the lane route casts its sums instead.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/registry.hpp"
#include "snn/lane_network.hpp"
#include "snn/network.hpp"
#include "tensor/tensor.hpp"

namespace snntest::campaign {

/// Golden-plus-delta operands of one dense, recurrent or conv layer.
/// Dense or recurrent: the double sums matvec_sums takes over the golden
/// frames (the float synaptic frame is their cast), the weights
/// column-major, and the rows that fail snn::row_sum_exact. A recurrent
/// layer keeps its feed-forward W·x and its lateral V·prev apart, because
/// the scalar forward casts them separately.
/// Conv (`conv` set): the conv scatter kernel's double accumulators over
/// the golden frames, channel-last (snn::ConvDelta; the float synaptic
/// frame is their snn::cast_conv_sums), and the kernel packed
/// [ic][ky][kx][oc] as double; both empty when some output channel fails
/// the certificate over its whole kernel, and those channels are listed in
/// w_uncertified.
struct GoldenSums {
  std::vector<double> w_sums;           // [T, N]: W times golden input frame t
  std::vector<double> v_sums;           // [T, N]: V times golden output frame t-1 (row 0: 0)
  std::vector<float> wt;                // W column-major [num_inputs, N]
  std::vector<float> vt;                // V column-major [N, N]
  std::vector<double> conv_packed;      // conv kernel [ic][ky][kx][oc]
  std::vector<uint32_t> w_uncertified;  // ascending rows of W (conv: channels) failing it
  std::vector<uint32_t> v_uncertified;
  bool conv = false;

  size_t bytes() const {
    return (w_sums.size() + v_sums.size() + conv_packed.size()) * sizeof(double) +
           (wt.size() + vt.size()) * sizeof(float) +
           (w_uncertified.size() + v_uncertified.size()) * sizeof(uint32_t);
  }
};

struct GoldenCache {
  /// Fault-free spike train of every layer; layer_outputs[l] is [T, N_l].
  snn::ForwardResult forward;
  /// Rate-decoded per-class counts of the golden output.
  std::vector<size_t> output_counts;
  /// Per-class first spike frame of the golden output (T if silent).
  std::vector<size_t> output_first_spike;
  /// Layer weight statistics (bit-flip quantization scales) for injectors.
  std::vector<fault::LayerWeightStats> stats;

  /// Per-layer fault-free synaptic frames, time-major [T, N_l]: row t is
  /// snn::shared_synaptic_frame of layer l's golden input frame t. Empty
  /// for every layer not listed in GoldenCacheOptions::synaptic_frame_layers,
  /// for a conv layer with golden sums (their cast is the frame), and for
  /// all layers after a budget fail-soft.
  std::vector<std::vector<float>> synaptic;
  /// Per-layer golden sums; empty (w_sums empty) for layers without them —
  /// pool layers, dense and recurrent layers above GoldenCacheOptions::
  /// golden_sums_from_layer, conv layers at or above it or with an
  /// uncertified channel, and all layers after a budget fail-soft.
  std::vector<GoldenSums> sums;
  /// Every stimulus value is 0 or 1 (layer 0's golden-plus-delta condition).
  bool stimulus_binary = false;
  /// Bytes cached per layer (spike train + any synaptic frames and golden
  /// sums) and their sum.
  std::vector<size_t> layer_bytes;
  size_t total_bytes = 0;

  /// Cached synaptic frames of layer `l`, or null when none were kept.
  const float* synaptic_frames(size_t l) const {
    return l < synaptic.size() && !synaptic[l].empty() ? synaptic[l].data() : nullptr;
  }
  /// Golden sums of conv layer `l` ([T, positions * out_channels],
  /// channel-last), or null when it kept none.
  const double* conv_sums(size_t l) const {
    return l < sums.size() && sums[l].conv && !sums[l].w_sums.empty() ? sums[l].w_sums.data()
                                                                       : nullptr;
  }
  /// Golden-plus-delta view of layer `l` for snn::LaneLayerRun (w.sums
  /// null when a dense or recurrent layer kept no sums, conv.golden_in
  /// null when a conv layer kept no entry). `stimulus` is the cache's own
  /// stimulus, layer 0's golden input; the view borrows it and the cache.
  snn::LaneDelta lane_delta(size_t l, const tensor::Tensor& stimulus) const;
  const tensor::Tensor& layer_output(size_t l) const { return forward.layer_outputs[l]; }
  const tensor::Tensor& output() const { return forward.output(); }
  size_t num_layers() const { return forward.num_layers(); }
};

struct GoldenCacheOptions {
  snn::KernelMode mode = snn::KernelMode::kDense;
  /// Layers whose fault-free synaptic frames [T, N_l] are cached (a conv
  /// layer with golden sums keeps the sums instead).
  /// run_campaign lists each layer at which two or more lane batches
  /// start, so every trace is read by several batches and costs at most
  /// the size of that layer's spike train.
  std::vector<size_t> synaptic_frame_layers;
  /// First layer whose dense and recurrent layers keep golden sums
  /// (SIZE_MAX: none); conv layers keep theirs strictly downstream of it.
  /// run_campaign sets the shallowest layer at which a work item starts:
  /// the items read the dense and recurrent sums at their fault layer and
  /// downstream of it, and the conv sums downstream only. The golden pass
  /// of such a layer takes the sums once and steps the layer's LIF bank
  /// on their casts, instead of rerunning the layer's synaptic kernels.
  size_t golden_sums_from_layer = SIZE_MAX;
  /// Memory budget over everything the cache retains (0 = unlimited). The
  /// spike trains are irreducible (prefix reuse and detection need them).
  /// Over budget, the synaptic frames and the dense, recurrent and conv
  /// golden sums all go (lane batches then compute frames in place and
  /// take the ordered lane kernels), with one warning.
  size_t budget_bytes = 0;
};

/// Throws std::invalid_argument, naming the expected and actual shapes,
/// unless `stimulus` is [T, num_inputs of net's first layer].
void check_stimulus_shape(const snn::Network& net, const tensor::Tensor& stimulus);

/// Run the fault-free reference pass and assemble the cache. `net` is
/// cloned internally and not modified. `mode` selects the forward kernels
/// of the internal clone (bit-identical results across modes; the default
/// keeps the seed's exact execution path for standalone callers).
GoldenCache build_golden_cache(const snn::Network& net, const tensor::Tensor& stimulus,
                               snn::KernelMode mode = snn::KernelMode::kDense);

/// Options overload: synaptic frames, golden sums and the memory budget
/// (fail-soft).
GoldenCache build_golden_cache(const snn::Network& net, const tensor::Tensor& stimulus,
                               const GoldenCacheOptions& options);

}  // namespace snntest::campaign
