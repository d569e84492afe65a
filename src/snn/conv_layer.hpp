// 2-D convolutional spiking layer.
//
// Feature maps are flattened channel-major: index = (c*H + y)*W + x.
// Weights are stored [C_out, C_in, K, K] flat; one stored weight is one
// fault-injection site (weight-memory granularity, see DESIGN.md §2.5),
// while num_connections() reports the unrolled per-connection count used by
// the paper's Table I.
#pragma once

#include "snn/layer.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"

namespace snntest::snn {

struct Conv2dSpec {
  size_t in_channels = 1;
  size_t in_height = 1;
  size_t in_width = 1;
  size_t out_channels = 1;
  size_t kernel = 3;
  size_t stride = 1;
  size_t padding = 0;

  size_t out_height() const { return (in_height + 2 * padding - kernel) / stride + 1; }
  size_t out_width() const { return (in_width + 2 * padding - kernel) / stride + 1; }
  size_t input_size() const { return in_channels * in_height * in_width; }
  size_t output_size() const { return out_channels * out_height() * out_width(); }
  size_t weight_count() const { return out_channels * in_channels * kernel * kernel; }
  /// The geometry as the SIMD table's conv kernels take it.
  tensor::simd::ConvLaneGeom geom() const {
    tensor::simd::ConvLaneGeom g;
    g.in_channels = in_channels;
    g.in_height = in_height;
    g.in_width = in_width;
    g.out_channels = out_channels;
    g.out_height = out_height();
    g.out_width = out_width();
    g.kernel = kernel;
    g.stride = stride;
    g.padding = padding;
    return g;
  }
};

class ConvLayer final : public Layer {
 public:
  ConvLayer(Conv2dSpec spec, LifParams params);

  void init_weights(util::Rng& rng, float gain = 1.0f);

  LayerKind kind() const override { return LayerKind::kConv2d; }
  std::string name() const override;
  size_t num_inputs() const override { return spec_.input_size(); }
  size_t num_neurons() const override { return lif_.size(); }
  size_t num_weights() const override { return weights_.size(); }
  size_t num_connections() const override;

  void forward_into(const Tensor& in, bool record_traces, Tensor& out) override;
  Tensor backward(const Tensor& grad_out) override;

  float frontier_synapse(const float* in_frame, const float* prev_out_frame,
                         size_t neuron) const override;
  void frontier_synapse_frame(const float* in_frame, const float* prev_out_frame,
                              float* syn) const override;
  bool frontier_fanout(size_t in_index, std::vector<uint32_t>& out) const override;
  /// Appends the output neurons that stored kernel tap `index` feeds: every
  /// pixel of its output channel (the frontier walk's seeds of a conv
  /// weight fault).
  void tap_fanout(size_t index, std::vector<uint32_t>& out) const;

  std::vector<ParamView> params() override;
  LifBank& lif() override { return lif_; }
  const LifBank& lif() const override { return lif_; }
  std::unique_ptr<Layer> clone() const override;

  const Conv2dSpec& spec() const { return spec_; }
  std::vector<float>& weights() { return weights_; }
  const std::vector<float>& weights() const { return weights_; }

  // --- per-connection fault support ---
  // The paper's Table I counts synapses as *connections*; a physical
  // connection fault in a conv accelerator affects one (output position,
  // kernel tap) pair rather than the shared stored weight. At most one
  // override is active (single-fault assumption); it replaces the effective
  // weight of the connection from flattened input `in_index` to output
  // neuron `out_index` during forward only.

  /// Stored kernel weight serving connection (out_index, in_index).
  /// Throws std::invalid_argument if the pair is not connected.
  float connection_weight(size_t out_index, size_t in_index) const;
  void set_connection_override(size_t out_index, size_t in_index, float new_weight);
  void clear_connection_override();
  bool connection_override_active() const { return override_.active; }

  /// syn frame (length output_size) from one input spike frame: per
  /// output, an ordered double sum over (ic, ky, kx), cast to float once.
  /// Public and const so the lane-batched simulation path
  /// (snn/lane_network.cpp) can compute the shared fault-free base frame
  /// without mutating the layer; safe to call from several threads at once.
  void conv_forward_frame(const float* in, float* syn) const;

 protected:
  void drop_weight_packs() override {
    forward_pack_.built = false;
    backward_pack_.built = false;
  }

 private:
  /// Weights repacked [ic][ky][kx][oc] as double for the forward kernels
  /// (the SIMD table's conv_frame_dense / conv_frame_scatter, vectorized
  /// across output channels): one tap's weights for every output channel are
  /// contiguous, so their inner loop runs over independent outputs. The
  /// dense kernel gathers each output pixel's taps; the event-driven one
  /// scatters the taps of each active input pixel. Both feed every output
  /// the same ordered sequence of double products (ic, then ky, then kx
  /// ascending) — iterating active pixels in ascending flat order preserves
  /// it — and the terms the scatter skips are exact +/-0.0 contributions,
  /// so the two are bit-identical (DESIGN.md §9).
  void pack_forward_weights(std::vector<double>& packed) const;
  /// Weights repacked [oc][ky][kx][ic] for conv_backward_input_frame.
  void pack_backward_weights(std::vector<float>& packed) const;
  /// Scatter grad_syn into grad_in and weight grads for one timestep
  /// (fused dense path: one (oc, oy, ox) -> (ic, ky, kx) sweep feeds both).
  void conv_backward_frame(const float* in, const float* grad_syn, float* grad_in);
  /// Input-gradient half of conv_backward_frame: grad_in += conv^T(grad_syn),
  /// over backward_pack_ (pack_backward_weights), by the SIMD table's
  /// conv_backward_input. It accumulates channel-last, so its inner loop
  /// runs over the (kx, ic) elements of one kernel row,
  /// while every grad_in element still receives its float terms in
  /// (oc, oy, ox) order, as in the fused sweep (bit-identical). Input
  /// gradient flows into *every* input pixel — also the silent ones — so
  /// this half cannot exploit input sparsity; the zeros it skips are the
  /// grad_syn zeros, exactly like the fused path.
  void conv_backward_input_frame(const float* grad_syn, float* grad_in);
  /// Weight-gradient half, dense: wg[tap] += grad_syn[o] * in[i] over every
  /// connected (o, tap) pair, in the fused path's order.
  void conv_backward_weight_frame(const float* in, const float* grad_syn);
  /// Weight-gradient half, event-driven: iterate only the active input
  /// pixels (ascending flat order) and scatter into the taps they serve.
  /// Bit-identical to conv_backward_weight_frame: for a fixed tap the
  /// contributing pixels ascend exactly like the fused path's (oy, ox)
  /// sweep, and the skipped terms are grad_syn * 0.0 — exact +/-0.0 adds
  /// into accumulators that can never hold -0.0 (see tensor/ops.hpp).
  void conv_backward_weight_frame_sparse(const float* in, const uint32_t* active,
                                         size_t num_active, const float* grad_syn);

  struct ConnectionOverride {
    size_t out_index = 0;
    size_t in_index = 0;
    float delta = 0.0f;  // effective weight - stored weight
    bool active = false;
  };

  /// Kernel-tap index serving (out_index, in_index), or throws.
  size_t tap_index(size_t out_index, size_t in_index) const;

  Conv2dSpec spec_;
  LifBank lif_;
  std::vector<float> weights_;
  std::vector<float> weight_grads_;
  Tensor saved_input_;
  ConnectionOverride override_;
  std::vector<uint32_t> active_scratch_;  // per-frame active indices (sparse path)
  WeightPack<double> forward_pack_;      // pack_forward_weights, rebuilt per forward_into
                                         // unless the weights are frozen
  std::vector<double> syn_acc_;           // channel-last double accumulators (forward)
  std::vector<float> syn_scratch_;        // per-frame synaptic currents (no realloc per window)
  WeightPack<float> backward_pack_;      // pack_backward_weights, likewise per backward
  std::vector<float> grad_in_scratch_;    // channel-last grad_in frame
};

}  // namespace snntest::snn
