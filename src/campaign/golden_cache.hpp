// Golden activation cache for differential fault simulation.
//
// One fault-free forward pass is shared by every fault of a campaign: a
// fault confined to layer k (faults are single-layer by construction, see
// fault/injector.hpp) leaves layers 0..k-1 bit-identical to the golden run,
// so their cached spike trains feed Network::forward_from(k, ...) directly.
// The cache also precomputes everything the detection comparison needs
// (output spike counts) and a fingerprint of (network, stimulus) that the
// run report's campaign_fingerprint extends.
#pragma once

#include <cstdint>
#include <vector>

#include "campaign/fingerprint.hpp"
#include "fault/registry.hpp"
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
  /// Bytes cached per layer (spike train + state traces) and their sum.
  std::vector<size_t> layer_bytes;
  size_t total_bytes = 0;

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
  /// Memory budget over everything the cache retains (0 = unlimited). The
  /// spike trains are irreducible (prefix reuse and detection need them);
  /// when trains + state traces would exceed the budget the state traces
  /// are dropped — fail-soft to prefix-only, with a warning.
  size_t budget_bytes = 0;
};

/// Run the fault-free reference pass and assemble the cache. `net` is
/// cloned internally and not modified. `mode` selects the forward kernels
/// of the internal clone (bit-identical results across modes; the default
/// keeps the seed's exact execution path for standalone callers).
GoldenCache build_golden_cache(const snn::Network& net, const tensor::Tensor& stimulus,
                               snn::KernelMode mode = snn::KernelMode::kDense);

/// Options overload: state traces + memory budget (fail-soft).
GoldenCache build_golden_cache(const snn::Network& net, const tensor::Tensor& stimulus,
                               const GoldenCacheOptions& options);

}  // namespace snntest::campaign
