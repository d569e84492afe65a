// Fully connected spiking layer: syn[t] = W * s_in[t], then LIF dynamics.
#pragma once

#include "snn/layer.hpp"
#include "util/rng.hpp"

namespace snntest::snn {

class DenseLayer final : public Layer {
 public:
  /// Weights are stored row-major [num_neurons, num_inputs]; weight (i, j)
  /// is the synapse from presynaptic channel j to neuron i.
  DenseLayer(size_t num_inputs, size_t num_neurons, LifParams params);

  /// Kaiming-style uniform init scaled by threshold so a typical input
  /// frame can drive neurons over threshold within a few steps.
  void init_weights(util::Rng& rng, float gain = 1.0f);

  LayerKind kind() const override { return LayerKind::kDense; }
  std::string name() const override;
  size_t num_inputs() const override { return num_inputs_; }
  size_t num_neurons() const override { return lif_.size(); }
  size_t num_weights() const override { return weights_.size(); }
  size_t num_connections() const override { return weights_.size(); }

  void forward_into(const Tensor& in, bool record_traces, Tensor& out) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<ParamView> params() override;
  LifBank& lif() override { return lif_; }
  const LifBank& lif() const override { return lif_; }
  std::unique_ptr<Layer> clone() const override;

  std::vector<float>& weights() { return weights_; }
  const std::vector<float>& weights() const { return weights_; }

 protected:
  void drop_weight_packs() override { matvec_.drop_pack(); }

 private:
  size_t num_inputs_;
  LifBank lif_;
  std::vector<float> weights_;
  std::vector<float> weight_grads_;
  Tensor saved_input_;  // [T, num_inputs], kept when recording traces
  FrameMatvec matvec_;                    // forward kernels of W
  std::vector<uint32_t> active_scratch_;  // per-frame active indices (sparse backward)
  std::vector<float> syn_scratch_;        // per-frame synaptic currents (no realloc per window)
};

}  // namespace snntest::snn
