// Recurrent spiking layer: syn[t] = W s_in[t] + V s_out[t-1].
//
// Used by the SHD-style benchmark (audio spike trains benefit from
// recurrence; the paper's Fig. 6 network is SLAYER's SHD topology). The
// paper's algorithm explicitly claims to make "no assumption about the
// architecture ... fully connected, convolutional or recurrent", so the
// reproduction must exercise a recurrent model too.
//
// Backward is BPTT with the extra credit path through V: the gradient of
// syn[t+1] flows into s_out[t].
#pragma once

#include "snn/layer.hpp"
#include "util/rng.hpp"

namespace snntest::snn {

class RecurrentLayer final : public Layer {
 public:
  RecurrentLayer(size_t num_inputs, size_t num_neurons, LifParams params);

  void init_weights(util::Rng& rng, float gain = 1.0f, float recurrent_gain = 0.3f);

  LayerKind kind() const override { return LayerKind::kRecurrent; }
  std::string name() const override;
  size_t num_inputs() const override { return num_inputs_; }
  size_t num_neurons() const override { return lif_.size(); }
  size_t num_weights() const override { return weights_.size() + recurrent_.size(); }
  size_t num_connections() const override { return num_weights(); }

  void forward_into(const Tensor& in, bool record_traces, Tensor& out) override;
  Tensor backward(const Tensor& grad_out) override;

  float frontier_synapse(const float* in_frame, const float* prev_out_frame,
                         size_t neuron) const override;
  void frontier_synapse_frame(const float* in_frame, const float* prev_out_frame,
                              float* syn) const override;
  bool frontier_fanout(size_t in_index, std::vector<uint32_t>& out) const override;

  std::vector<ParamView> params() override;
  LifBank& lif() override { return lif_; }
  const LifBank& lif() const override { return lif_; }
  std::unique_ptr<Layer> clone() const override;

  std::vector<float>& weights() { return weights_; }
  std::vector<float>& recurrent_weights() { return recurrent_; }
  const std::vector<float>& weights() const { return weights_; }
  const std::vector<float>& recurrent_weights() const { return recurrent_; }

 protected:
  void drop_weight_packs() override {
    w_matvec_.drop_pack();
    v_matvec_.drop_pack();
  }

 private:
  size_t num_inputs_;
  LifBank lif_;
  std::vector<float> weights_;     // [N, num_inputs] feedforward
  std::vector<float> recurrent_;   // [N, N] lateral, from column j to row i
  std::vector<float> weight_grads_;
  std::vector<float> recurrent_grads_;
  Tensor saved_input_;
  Tensor saved_output_;  // needed: syn[t] depends on s_out[t-1]
  FrameMatvec w_matvec_;                  // forward kernels of W
  FrameMatvec v_matvec_;                  // forward kernels of V
  std::vector<uint32_t> active_scratch_;  // per-frame active indices (sparse backward)
  std::vector<float> syn_scratch_;        // per-frame synaptic currents (no realloc per window)
};

}  // namespace snntest::snn
