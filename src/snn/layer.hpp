// Abstract spiking layer.
//
// A layer maps an input spike train [T, num_inputs] to an output spike train
// [T, num_neurons] by computing per-timestep synaptic currents from its
// weights and feeding them through a LifBank. It owns trainable weights and
// their gradients, and exposes both to the optimizer (training) and to the
// fault injector (synapse faults mutate weights in place; neuron faults
// mutate the LifBank's per-neuron vectors).
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "snn/neuron.hpp"
#include "snn/surrogate.hpp"
#include "tensor/tensor.hpp"

namespace snntest::snn {

using tensor::Shape;
using tensor::Tensor;

enum class LayerKind : uint8_t {
  kDense = 0,
  kConv2d = 1,
  kSumPool = 2,
  kRecurrent = 3,
};

/// Forward-kernel selection. The sparse kernels exploit event sparsity —
/// they touch only the weight columns (dense) / kernel taps (conv) of the
/// input entries that actually spiked — and are bit-identical to the dense
/// kernels for any input (both accumulate the same ordered double sums; see
/// tensor/ops.hpp and DESIGN.md §9). kAuto decides per frame from the
/// measured input activity, so it is always safe to enable.
enum class KernelMode : uint8_t {
  kDense = 0,   // always run the dense kernels
  kSparse = 1,  // always run the sparse kernels
  kAuto = 2,    // per-frame: sparse when the frame is sparse enough to win
};

/// kAuto per-frame decision: the gather/scatter kernels have worse locality
/// per touched element than the dense sweep, so they only pay off below
/// ~25% input activity (measured by an activity sweep, DESIGN.md §9; the
/// crossover is near 40-50% but 25% keeps a comfortable margin on all
/// geometries).
inline bool sparse_frame_wins(size_t num_active, size_t frame_size) {
  return num_active * 4 <= frame_size;
}

/// A reordered copy of a layer's weights for one kernel (column-major for
/// the binary-frame column adds, tap-major for the conv kernels) and
/// whether it is built. Copies start empty, so a cloned layer never
/// inherits its original's pack.
template <typename T>
struct WeightPack {
  std::vector<T> data;
  bool built = false;

  WeightPack() = default;
  WeightPack(const WeightPack&) {}
  WeightPack& operator=(const WeightPack&) {
    data.clear();
    built = false;
    return *this;
  }
};

/// The forward kernels of one fully connected synaptic matrix (DenseLayer's
/// W, RecurrentLayer's W and V): syn += W x for one input frame, dispatched
/// on the KernelMode. kDense always runs the dense matvec and kSparse the
/// gather. kAuto runs a binary frame (every active value exactly 1.0f, as
/// spike frames are) as column adds over its active columns, vectorized
/// across rows through the SIMD table, and any other frame by
/// sparse_frame_wins. All three are bit-identical (DESIGN.md §9).
class FrameMatvec {
 public:
  /// Forget the column-major weight copy; the next binary frame rebuilds
  /// it. Layers call this once per forward_into outside a frozen-weights
  /// scope (the weights cannot change within a window, but a ScopedFault may
  /// have changed them since the previous call), and when the scope's flag
  /// changes (Layer::set_weights_frozen).
  void drop_pack() { wt_.built = false; }

  /// syn[r] += sum_c w[r*cols + c] * x[c] for the [rows, cols] row-major
  /// `w`. Records the frame in `kobs` when it is non-null; the column-add
  /// path counts as a sparse frame (it touches the active columns only).
  void accumulate(KernelMode mode, const float* w, size_t rows, size_t cols, const float* x,
                  float* syn, obs::KernelDispatchObs* kobs);

 private:
  WeightPack<float> wt_;  // column-major copy of w
  std::vector<double> acc_;
  std::vector<uint32_t> active_;
};

/// Display names for KernelMode (test failure messages).
inline const char* kernel_mode_name(KernelMode mode) {
  switch (mode) {
    case KernelMode::kDense: return "dense";
    case KernelMode::kSparse: return "sparse";
    case KernelMode::kAuto: return "auto";
  }
  return "dense";
}

/// A view over one trainable parameter array of a layer.
struct ParamView {
  float* value = nullptr;
  float* grad = nullptr;
  size_t size = 0;
  const char* name = "";
};

class Layer {
 public:
  Layer() = default;
  /// A copy (worker clone) starts outside any frozen-weights scope, so it
  /// rebuilds every weight pack for its own weights.
  Layer(const Layer& other)
      : surrogate_(other.surrogate_),
        kernel_mode_(other.kernel_mode_),
        param_grads_enabled_(other.param_grads_enabled_),
        kernel_obs_(other.kernel_obs_) {}
  Layer& operator=(const Layer&) = delete;
  virtual ~Layer() = default;

  virtual LayerKind kind() const = 0;
  virtual std::string name() const = 0;

  /// Width of one input frame (number of presynaptic channels).
  virtual size_t num_inputs() const = 0;
  /// Number of neurons (width of one output frame).
  virtual size_t num_neurons() const = 0;

  /// Trainable weight count (synapse-memory fault universe of this layer).
  virtual size_t num_weights() const = 0;
  /// Fan-out synapse-connection count (paper's Table I convention); for
  /// dense layers equals num_weights, for conv layers counts every reuse.
  virtual size_t num_connections() const = 0;

  /// Forward over a full window into a caller-owned buffer. `in` is
  /// [T, num_inputs] with values {0,1}; `out` is resized (storage reused)
  /// to [T, num_neurons] and overwritten with the output spike train. When
  /// `record_traces`, keeps everything needed for a subsequent backward().
  /// `out` must not alias `in`. The buffer-reuse entry point of the
  /// fault-simulation hot loop: a worker passes the same two ping-pong
  /// tensors for every fault instead of allocating a train per layer call.
  virtual void forward_into(const Tensor& in, bool record_traces, Tensor& out) = 0;

  /// Forward over a full window. `in` is [T, num_inputs] with values {0,1}.
  /// Returns the spike train [T, num_neurons].
  Tensor forward(const Tensor& in, bool record_traces) {
    Tensor out;
    forward_into(in, record_traces, out);
    return out;
  }

  /// BPTT through the recorded window. `grad_out` is dL/d(output spikes),
  /// [T, num_neurons]. Accumulates weight gradients and returns
  /// dL/d(input spikes) [T, num_inputs].
  virtual Tensor backward(const Tensor& grad_out) = 0;

  virtual std::vector<ParamView> params() = 0;
  void zero_grad() {
    for (ParamView p : params()) std::fill(p.grad, p.grad + p.size, 0.0f);
  }

  /// The LIF population of this layer (never null for the provided layers).
  virtual LifBank& lif() = 0;
  virtual const LifBank& lif() const = 0;

  /// Deep copy (used by parallel fault-simulation workers).
  virtual std::unique_ptr<Layer> clone() const = 0;

  SurrogateConfig& surrogate() { return surrogate_; }
  const SurrogateConfig& surrogate() const { return surrogate_; }

  /// Forward-kernel selection; results are bit-identical across modes.
  /// Layers without a sparse kernel (pool) ignore it. Default kDense runs
  /// the dense kernels on every frame; the campaign engine, classifier and
  /// test generators run kAuto.
  void set_kernel_mode(KernelMode mode) { kernel_mode_ = mode; }
  KernelMode kernel_mode() const { return kernel_mode_; }

  /// When disabled, backward() skips accumulating parameter gradients
  /// (dL/dW) and computes only dL/d(input spikes). The input-optimization
  /// hot loop (core/input_optimizer.cpp) zeroes and discards the weight
  /// grads after every step, so skipping them removes roughly half the
  /// backward work; dL/d(input) is bit-identical either way because the
  /// parameter and input gradients use disjoint accumulators. Default on
  /// (training needs dL/dW).
  void set_param_grads_enabled(bool enabled) { param_grads_enabled_ = enabled; }
  bool param_grads_enabled() const { return param_grads_enabled_; }

  /// While frozen, the weight packs the forward and backward kernels build
  /// on first use are kept across calls instead of being rebuilt per call;
  /// the weights must not change meanwhile. Every change of the flag drops
  /// the packs, so weights written between two frozen spans are seen. Set
  /// through snn::FrozenWeights (network.hpp), not directly.
  void set_weights_frozen(bool frozen) {
    weights_frozen_ = frozen;
    drop_weight_packs();
  }
  bool weights_frozen() const { return weights_frozen_; }

 protected:
  /// Forget every weight pack (layers without packs have nothing to drop).
  virtual void drop_weight_packs() {}

  SurrogateConfig surrogate_{};
  KernelMode kernel_mode_ = KernelMode::kDense;
  bool param_grads_enabled_ = true;
  bool weights_frozen_ = false;
  /// Per-layer kernel-dispatch telemetry ("kernel/<name>/..."): forward
  /// kernels record one dense/sparse dispatch count and the input
  /// active-fraction per frame, gated on obs::telemetry_enabled(). Copied
  /// handles (worker clones) alias the same registry-owned metrics.
  obs::KernelDispatchObs kernel_obs_;
};

}  // namespace snntest::snn
