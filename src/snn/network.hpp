// Feed-forward SNN container: an ordered stack of spiking layers.
//
// Exposes exactly what the paper's algorithm needs:
//  * forward() records O = [O^1, ..., O^L], the spike train of every layer
//    (Sec. IV-A) — the loss functions L1..L5 are defined over all of them;
//  * backward() accepts a gradient w.r.t. *every* layer's output spikes and
//    backpropagates to the input spike train (Eq. (19) pipeline);
//  * global neuron/weight indexing so the fault registry can enumerate the
//    full fault universe (Sec. III).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "snn/layer.hpp"

namespace snntest::snn {

/// Output decoding scheme. The paper's algorithm is agnostic to the coding
/// scheme (Sec. I: "no assumption about the information coding scheme,
/// i.e., rate coding or time-to-first-spike coding"); both decoders are
/// provided so criticality labelling can follow whichever scheme the
/// deployed model uses.
enum class Decoding : uint8_t {
  kRate = 0,             // class = argmax spike count
  kTimeToFirstSpike = 1  // class = earliest first spike (count breaks ties)
};

/// Top-1 class from per-class output spike counts and first-spike frames
/// (`first_spike` is read only under kTimeToFirstSpike). Rate: the largest
/// count, the first class wins ties. TTFS: the earliest first spike, ties
/// broken by the larger count, then by the first class.
size_t decode_class(const std::vector<size_t>& counts, const std::vector<size_t>& first_spike,
                    Decoding decoding);

/// Spike trains of every layer from one inference window.
struct ForwardResult {
  std::vector<Tensor> layer_outputs;  // layer_outputs[l] is [T, N_l]

  const Tensor& output() const { return layer_outputs.back(); }
  size_t num_layers() const { return layer_outputs.size(); }

  /// Spike count of neuron `i` in layer `l` over the window (|O^{l,i}|).
  size_t spike_count(size_t layer, size_t neuron) const;
  /// Total spikes in the window across all layers.
  size_t total_spikes() const;
  /// Per-class output spike counts (rate decoding of the prediction).
  std::vector<size_t> output_counts() const;
  /// First-spike time per output neuron (T if it never fires).
  std::vector<size_t> output_first_spike_times() const;
  /// Predicted class under rate decoding (first wins ties).
  size_t predicted_class() const;
  /// Predicted class under the chosen decoding scheme.
  size_t predicted_class(Decoding decoding) const;
};

/// Identifies one neuron in the network.
struct NeuronRef {
  size_t layer = 0;
  size_t index = 0;
  bool operator==(const NeuronRef&) const = default;
};

/// Identifies one stored weight in the network.
struct WeightRef {
  size_t layer = 0;
  size_t param = 0;  // which ParamView of the layer
  size_t index = 0;  // flat index within that ParamView
  bool operator==(const WeightRef&) const = default;
};

class Network {
 public:
  Network() = default;
  explicit Network(std::string name) : name_(std::move(name)) {}

  Network(const Network& other);
  Network& operator=(const Network& other);
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Append a layer; its num_inputs must match the current output width.
  void add_layer(std::unique_ptr<Layer> layer);

  size_t num_layers() const { return layers_.size(); }
  Layer& layer(size_t l) { return *layers_[l]; }
  const Layer& layer(size_t l) const { return *layers_[l]; }

  size_t input_size() const;
  size_t output_size() const;

  size_t total_neurons() const;
  size_t total_weights() const;
  size_t total_connections() const;

  /// Enumerate all neurons / weights in a stable order.
  std::vector<NeuronRef> all_neurons() const;
  std::vector<WeightRef> all_weights() const;

  /// Flat neuron numbering (layer-major) used for activation bookkeeping.
  size_t neuron_flat_index(const NeuronRef& ref) const;

  /// Run the full window. `input` is [T, input_size] binary.
  ForwardResult forward(const Tensor& input, bool record_traces = false);

  /// Run only layers [start_layer, num_layers). `input` must be the spike
  /// train feeding `start_layer` — i.e. layer start_layer-1's output, or the
  /// network input when start_layer == 0. This is the differential
  /// fault-campaign entry point: a fault confined to layer k reuses the
  /// cached fault-free outputs of layers 0..k-1 instead of recomputing them.
  /// The returned ForwardResult::layer_outputs are indexed *relative to
  /// start_layer* (output() is still the network output).
  ForwardResult forward_from(size_t start_layer, const Tensor& input,
                             bool record_traces = false);

  /// Backpropagate. `grad_outputs[l]` is dL/dO^l, [T, N_l]; pass an empty
  /// Tensor for layers without loss terms. Accumulates weight grads and
  /// returns dL/d(input spikes) [T, input_size]. Requires a preceding
  /// forward(..., record_traces=true) on the same window length.
  Tensor backward(const std::vector<Tensor>& grad_outputs);

  void zero_grad();
  std::vector<ParamView> params();

  /// Undo every fault: restore neuron defaults in all LifBanks. (Weight
  /// faults are restored by the injector, which saves original values.)
  void restore_neuron_defaults();

  void set_surrogate(const SurrogateConfig& config);

  /// Forward-kernel selection for every layer (see KernelMode in layer.hpp).
  /// All modes produce bit-identical spike trains; kAuto exploits event
  /// sparsity per frame and is what the campaign engine / classifier /
  /// test generators run with.
  void set_kernel_mode(KernelMode mode);
  /// Mode of the first layer (all layers share one mode once set).
  KernelMode kernel_mode() const;

  /// Enable/disable parameter-gradient accumulation in every layer's
  /// backward (see Layer::set_param_grads_enabled). dL/d(input) is
  /// bit-identical either way; the input optimizer disables it because it
  /// discards dL/dW after every step.
  void set_param_grads_enabled(bool enabled);
  /// Flag of the first layer (all layers share one flag once set).
  bool param_grads_enabled() const;

 private:
  friend class FrozenWeights;

  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Holds a network's weights fixed for a scope — the input optimization's
/// "the SNN model stays fixed". For its lifetime:
///  * parameter-gradient accumulation is off (dL/d(input) is bit-identical
///    without it, and nobody reads dL/dW), and
///  * each layer keeps the weight packs its forward and backward kernels
///    build on first use (Layer::set_weights_frozen) instead of rebuilding
///    them on every call.
/// Nothing may write the weights while the scope lives (a ScopedFault on
/// the same network would not be seen). On exit it restores both flags and
/// drops the packs, so weights written between two scopes are seen. A copy
/// of the network (Network's copy constructor clones every layer) starts
/// unfrozen.
class FrozenWeights {
 public:
  explicit FrozenWeights(Network& net);
  ~FrozenWeights();
  FrozenWeights(const FrozenWeights&) = delete;
  FrozenWeights& operator=(const FrozenWeights&) = delete;

 private:
  Network& net_;
  bool param_grads_;
  bool frozen_;
};

}  // namespace snntest::snn
