#include "snn/recurrent_layer.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace snntest::snn {

RecurrentLayer::RecurrentLayer(size_t num_inputs, size_t num_neurons, LifParams params)
    : num_inputs_(num_inputs),
      lif_(num_neurons, params),
      weights_(num_inputs * num_neurons, 0.0f),
      recurrent_(num_neurons * num_neurons, 0.0f),
      weight_grads_(num_inputs * num_neurons, 0.0f),
      recurrent_grads_(num_neurons * num_neurons, 0.0f) {
  if (num_inputs == 0 || num_neurons == 0) {
    throw std::invalid_argument("RecurrentLayer: zero-sized layer");
  }
}

std::string RecurrentLayer::name() const {
  return "recurrent(" + std::to_string(num_inputs_) + "->" + std::to_string(lif_.size()) + ")";
}

void RecurrentLayer::init_weights(util::Rng& rng, float gain, float recurrent_gain) {
  const float bound =
      gain * lif_.defaults().threshold * 3.0f / std::sqrt(static_cast<float>(num_inputs_));
  for (auto& w : weights_) w = static_cast<float>(rng.uniform(-bound, bound));
  const float rbound =
      recurrent_gain * lif_.defaults().threshold / std::sqrt(static_cast<float>(lif_.size()));
  for (auto& w : recurrent_) w = static_cast<float>(rng.uniform(-rbound, rbound));
  // No self-loops: a neuron does not synapse onto itself.
  for (size_t i = 0; i < lif_.size(); ++i) recurrent_[i * lif_.size() + i] = 0.0f;
}

void RecurrentLayer::forward_into(const Tensor& in, bool record_traces, Tensor& out) {
  if (in.shape().rank() != 2 || in.shape().dim(1) != num_inputs_) {
    throw std::invalid_argument("RecurrentLayer::forward: bad input shape " +
                                in.shape().to_string());
  }
  const size_t T = in.shape().dim(0);
  const size_t n = lif_.size();
  out.resize_zero(Shape{T, n});
  lif_.begin_run(T, record_traces);
  syn_scratch_.resize(n);
  std::vector<float>& syn = syn_scratch_;
  // Both the feed-forward input and the lateral feedback are spike trains,
  // so each matrix dispatches its own frame (bit-identical either way; see
  // FrameMatvec).
  const bool obs_on = obs::telemetry_enabled();
  if (obs_on) kernel_obs_.ensure_bound(name());
  obs::KernelDispatchObs* kobs = obs_on ? &kernel_obs_ : nullptr;
  if (!weights_frozen_) {
    w_matvec_.drop_pack();
    v_matvec_.drop_pack();
  }
  for (size_t t = 0; t < T; ++t) {
    std::fill(syn.begin(), syn.end(), 0.0f);
    w_matvec_.accumulate(kernel_mode_, weights_.data(), n, num_inputs_, in.row(t), syn.data(),
                         kobs);
    if (t > 0) {
      v_matvec_.accumulate(kernel_mode_, recurrent_.data(), n, n, out.row(t - 1), syn.data(),
                           kobs);
    }
    lif_.step(syn.data(), out.row(t));
  }
  if (record_traces) {
    saved_input_ = in;
    saved_output_ = out;
  }
}

float RecurrentLayer::frontier_synapse(const float* in_frame, const float* prev_out_frame,
                                       size_t neuron) const {
  // forward_into adds TWO separately rounded matvec contributions into the
  // zeroed syn frame (feed-forward, then lateral when t > 0); replicate
  // both cast points exactly.
  const size_t n = lif_.size();
  float syn = 0.0f;
  {
    const float* row = weights_.data() + neuron * num_inputs_;
    double acc = 0.0;
    for (size_t c = 0; c < num_inputs_; ++c) acc += static_cast<double>(row[c]) * in_frame[c];
    syn += static_cast<float>(acc);
  }
  if (prev_out_frame != nullptr) {
    const float* row = recurrent_.data() + neuron * n;
    double acc = 0.0;
    for (size_t c = 0; c < n; ++c) acc += static_cast<double>(row[c]) * prev_out_frame[c];
    syn += static_cast<float>(acc);
  }
  return syn;
}

void RecurrentLayer::frontier_synapse_frame(const float* in_frame, const float* prev_out_frame,
                                            float* syn) const {
  const size_t n = lif_.size();
  std::fill(syn, syn + n, 0.0f);
  tensor::matvec_accumulate(weights_.data(), n, num_inputs_, in_frame, syn);
  if (prev_out_frame != nullptr) {
    tensor::matvec_accumulate(recurrent_.data(), n, n, prev_out_frame, syn);
  }
}

bool RecurrentLayer::frontier_fanout(size_t /*in_index*/, std::vector<uint32_t>& /*out*/) const {
  return false;  // dense fan-out (and the lateral matrix couples everything)
}

Tensor RecurrentLayer::backward(const Tensor& grad_out) {
  const size_t T = grad_out.shape().dim(0);
  const size_t n = lif_.size();
  if (saved_input_.empty() || saved_input_.shape().dim(0) != T) {
    throw std::logic_error("RecurrentLayer::backward without matching recorded forward");
  }
  Tensor grad_in(Shape{T, num_inputs_});
  // dL/ds[t] accumulates the external gradient plus the recurrent credit
  // V^T * dL/dsyn[t+1], so the LIF backward must run stepwise from the end.
  std::vector<float> grad_spike(n);
  std::vector<float> grad_syn(n);
  // Both saved spike trains are sparse; each rank-1 weight-grad update can
  // therefore gather over the active columns of its frame (bit-identical,
  // see outer_accumulate_gather). The transpose matvecs stay dense in the
  // columns — every presynaptic channel can carry input gradient.
  const KernelMode mode = kernel_mode_;
  auto outer = [&](float* grads, size_t cols, const float* frame) {
    if (mode == KernelMode::kDense) {
      tensor::outer_accumulate(grads, n, cols, grad_syn.data(), frame, 1.0f);
      return;
    }
    const auto view = tensor::make_frame_view(frame, cols, active_scratch_);
    if (mode == KernelMode::kSparse || sparse_frame_wins(view.num_active, view.size)) {
      tensor::outer_accumulate_gather(grads, n, cols, grad_syn.data(), view.frame, view.active,
                                      view.num_active, 1.0f);
    } else {
      tensor::outer_accumulate(grads, n, cols, grad_syn.data(), frame, 1.0f);
    }
  };
  LifBank::Backward bw(lif_, surrogate_, T);
  for (size_t t = T; t-- > 0;) {
    // grad_spike currently holds V^T grad_syn[t+1] (zero at t = T-1).
    const float* g_ext = grad_out.row(t);
    for (size_t i = 0; i < n; ++i) grad_spike[i] += g_ext[i];
    bw.step(t, grad_spike.data(), grad_syn.data());
    // Parameter gradients for timestep t.
    if (param_grads_enabled_) outer(weight_grads_.data(), num_inputs_, saved_input_.row(t));
    tensor::matvec_transpose_accumulate(weights_.data(), n, num_inputs_, grad_syn.data(),
                                        grad_in.row(t));
    std::fill(grad_spike.begin(), grad_spike.end(), 0.0f);
    if (t > 0) {
      if (param_grads_enabled_) outer(recurrent_grads_.data(), n, saved_output_.row(t - 1));
      // Credit into s_out[t-1] for the next (earlier) iteration.
      tensor::matvec_transpose_accumulate(recurrent_.data(), n, n, grad_syn.data(),
                                          grad_spike.data());
    }
  }
  return grad_in;
}

std::vector<ParamView> RecurrentLayer::params() {
  return {{weights_.data(), weight_grads_.data(), weights_.size(), "weight"},
          {recurrent_.data(), recurrent_grads_.data(), recurrent_.size(), "recurrent"}};
}

std::unique_ptr<Layer> RecurrentLayer::clone() const {
  return std::make_unique<RecurrentLayer>(*this);
}

}  // namespace snntest::snn
