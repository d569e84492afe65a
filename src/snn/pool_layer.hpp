// Spiking sum-pooling layer.
//
// SLAYER-style pooling: each output neuron sums the spikes of a
// non-overlapping window with a fixed unit weight and fires through LIF
// dynamics with a low threshold, acting as an event down-sampler. The
// pooling "weights" are fixed (not trained and not a synapse-fault site —
// in hardware the aggregation is wiring, not weight memory), but the pool
// neurons themselves are regular LIF cells and participate in the neuron
// fault universe.
#pragma once

#include "snn/layer.hpp"

namespace snntest::snn {

struct SumPoolSpec {
  size_t channels = 1;
  size_t in_height = 1;
  size_t in_width = 1;
  size_t window = 2;  // pooling window (and stride)

  size_t out_height() const { return in_height / window; }
  size_t out_width() const { return in_width / window; }
  size_t input_size() const { return channels * in_height * in_width; }
  size_t output_size() const { return channels * out_height() * out_width(); }
};

class SumPoolLayer final : public Layer {
 public:
  SumPoolLayer(SumPoolSpec spec, LifParams params);

  LayerKind kind() const override { return LayerKind::kSumPool; }
  std::string name() const override;
  size_t num_inputs() const override { return spec_.input_size(); }
  size_t num_neurons() const override { return lif_.size(); }
  size_t num_weights() const override { return 0; }
  size_t num_connections() const override {
    return spec_.output_size() * spec_.window * spec_.window;
  }

  void forward_into(const Tensor& in, bool record_traces, Tensor& out) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<ParamView> params() override { return {}; }
  LifBank& lif() override { return lif_; }
  const LifBank& lif() const override { return lif_; }
  std::unique_ptr<Layer> clone() const override;

  const SumPoolSpec& spec() const { return spec_; }

  /// syn frame (length output_size) from one input spike frame — float
  /// window sums in ascending (wy, wx) order. Public and const so the
  /// lane-batched simulation path (snn/lane_network.cpp) can compute the
  /// shared base frame without mutating the layer.
  void pool_frame(const float* in, float* syn) const;

 private:
  SumPoolSpec spec_;
  LifBank lif_;
  std::vector<float> syn_scratch_;  // per-frame synaptic currents (no realloc per window)
};

}  // namespace snntest::snn
