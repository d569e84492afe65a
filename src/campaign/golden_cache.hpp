// Golden activation cache for differential fault simulation.
//
// One fault-free forward pass is shared by every fault of a campaign: a
// fault confined to layer k (faults are single-layer by construction, see
// fault/injector.hpp) leaves layers 0..k-1 bit-identical to the golden run,
// so their cached spike trains feed layer k's simulation directly.
// The cache also precomputes everything the detection comparison needs
// (output spike counts) and a fingerprint of (network, stimulus) that the
// run report's campaign_fingerprint extends.
//
// Optional per-layer traces ride along, all bit-exact and all shed by the
// memory budget (synaptic frames and golden sums first, then state traces):
//  * golden double synaptic sums of the dense and recurrent layers from the
//    shallowest fault layer of a work item on, with the weights' exactness
//    certificates and column-major copies — the operands of the lane
//    route's and the frontier walk's golden-plus-delta sums
//    (snn::LaneDelta, DESIGN.md §12 and §17);
//  * fault-free synaptic frames of the fault layers that host two or more
//    work items — the frame every item at that layer would otherwise
//    recompute; for a dense or recurrent layer, the float cast of its
//    golden sums;
//  * LIF state traces for the divergence-frontier walk (DESIGN.md §17).
#pragma once

#include <cstdint>
#include <vector>

#include "campaign/fingerprint.hpp"
#include "fault/registry.hpp"
#include "snn/lane_network.hpp"
#include "snn/network.hpp"
#include "tensor/tensor.hpp"

namespace snntest::campaign {

/// Per-layer golden LIF state traces (divergence-frontier simulation,
/// DESIGN.md §17): the exact post-step membrane potential and refractory
/// counter of every neuron at every timestep of the fault-free run. A
/// frontier simulation seeds a newly-diverged neuron from (u_post, refrac)
/// of the previous frame and retires it when its live state matches these
/// traces again.
struct GoldenLayerState {
  std::vector<float> u_post;    // time-major [T, N_l]
  std::vector<int32_t> refrac;  // time-major [T, N_l]
};

/// Golden-plus-delta operands of one dense or recurrent layer: the double
/// sums matvec_sums takes over the golden frames (the float synaptic frame
/// is their cast), the weights column-major, and the rows that fail
/// snn::row_sum_exact. A recurrent layer keeps its feed-forward W·x and its
/// lateral V·prev apart, because the scalar forward casts them separately.
struct GoldenSums {
  std::vector<double> w_sums;           // [T, N]: W times golden input frame t
  std::vector<double> v_sums;           // [T, N]: V times golden output frame t-1 (row 0: 0)
  std::vector<float> wt;                // W column-major [num_inputs, N]
  std::vector<float> vt;                // V column-major [N, N]
  std::vector<uint32_t> w_uncertified;  // ascending rows of W failing the certificate
  std::vector<uint32_t> v_uncertified;

  size_t bytes() const {
    return (w_sums.size() + v_sums.size()) * sizeof(double) +
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
  /// FNV-1a over the network topology + stimulus bytes.
  uint64_t fingerprint = 0;

  /// Per-layer LIF state traces; empty unless built with state_traces and
  /// within budget (see GoldenCacheOptions). state[l] matches layer l;
  /// entries below state_traces_from_layer are empty (never read — the
  /// frontier walk only touches layers at or below its fault layer).
  std::vector<GoldenLayerState> state;
  bool has_state_traces = false;
  size_t state_traces_from_layer = 0;
  /// Per-layer fault-free synaptic frames, time-major [T, N_l]: row t is
  /// snn::shared_synaptic_frame of layer l's golden input frame t. Empty
  /// for every layer not listed in GoldenCacheOptions::synaptic_frame_layers
  /// and for all layers after a budget fail-soft.
  std::vector<std::vector<float>> synaptic;
  /// Per-layer golden sums; empty (w_sums empty) for layers without them —
  /// conv and pool layers, layers above GoldenCacheOptions::
  /// golden_sums_from_layer, and all layers after a budget fail-soft.
  std::vector<GoldenSums> sums;
  /// Every stimulus value is 0 or 1 (layer 0's golden-plus-delta condition).
  bool stimulus_binary = false;
  /// Bytes cached per layer (spike train + any synaptic frames, golden sums
  /// and state traces) and their sum.
  std::vector<size_t> layer_bytes;
  size_t total_bytes = 0;

  /// Cached synaptic frames of layer `l`, or null when none were kept.
  const float* synaptic_frames(size_t l) const {
    return l < synaptic.size() && !synaptic[l].empty() ? synaptic[l].data() : nullptr;
  }
  /// Golden-plus-delta view of layer `l` for snn::LaneLayerRun (w.sums
  /// null when the layer kept no sums). `stimulus` is the cache's own
  /// stimulus, layer 0's golden input; the view borrows it and the cache.
  snn::LaneDelta lane_delta(size_t l, const tensor::Tensor& stimulus) const;
  const tensor::Tensor& layer_output(size_t l) const { return forward.layer_outputs[l]; }
  const tensor::Tensor& output() const { return forward.output(); }
  size_t num_layers() const { return forward.num_layers(); }
};

struct GoldenCacheOptions {
  snn::KernelMode mode = snn::KernelMode::kDense;
  /// Also derive per-layer LIF state traces (u_post + refrac) from a
  /// trace-recording golden pass.
  bool state_traces = false;
  /// First layer whose state traces are recorded and retained. A frontier
  /// simulation only reads traces of layers at or downstream of its fault
  /// layer, so a campaign whose shallowest fault lives in layer k skips
  /// both the recording cost and the memory for layers 0..k-1.
  size_t state_traces_from_layer = 0;
  /// Layers whose fault-free synaptic frames [T, N_l] are cached.
  /// run_campaign lists each layer at which two or more work items (lane
  /// batches or frontier walks) start, so every trace is read by several
  /// items and costs at most the size of that layer's spike train.
  std::vector<size_t> synaptic_frame_layers;
  /// First layer whose dense and recurrent layers keep golden sums
  /// (SIZE_MAX: none). run_campaign sets the shallowest layer at which a
  /// work item starts: the items read the sums at their fault layer and
  /// downstream of it. The golden pass of such a layer takes the
  /// sums once and steps the layer's LIF bank on their casts, instead of
  /// rerunning the layer's synaptic kernels.
  size_t golden_sums_from_layer = SIZE_MAX;
  /// Memory budget over everything the cache retains (0 = unlimited). The
  /// spike trains are irreducible (prefix reuse and detection need them).
  /// Over budget, the synaptic frames and golden sums go first (lane
  /// batches then compute frames in place and take the ordered lane
  /// kernels); if trains + state traces still exceed it the state traces
  /// go too — fail-soft to prefix-only. Each shedding warns once.
  size_t budget_bytes = 0;
};

/// Run the fault-free reference pass and assemble the cache. `net` is
/// cloned internally and not modified. `mode` selects the forward kernels
/// of the internal clone (bit-identical results across modes; the default
/// keeps the seed's exact execution path for standalone callers).
GoldenCache build_golden_cache(const snn::Network& net, const tensor::Tensor& stimulus,
                               snn::KernelMode mode = snn::KernelMode::kDense);

/// Options overload: synaptic frames, golden sums, state traces and the
/// memory budget (fail-soft).
GoldenCache build_golden_cache(const snn::Network& net, const tensor::Tensor& stimulus,
                               const GoldenCacheOptions& options);

}  // namespace snntest::campaign
