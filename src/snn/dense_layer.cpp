#include "snn/dense_layer.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace snntest::snn {

DenseLayer::DenseLayer(size_t num_inputs, size_t num_neurons, LifParams params)
    : num_inputs_(num_inputs),
      lif_(num_neurons, params),
      weights_(num_inputs * num_neurons, 0.0f),
      weight_grads_(num_inputs * num_neurons, 0.0f) {
  if (num_inputs == 0 || num_neurons == 0) {
    throw std::invalid_argument("DenseLayer: zero-sized layer");
  }
}

std::string DenseLayer::name() const {
  return "dense(" + std::to_string(num_inputs_) + "->" + std::to_string(lif_.size()) + ")";
}

void DenseLayer::init_weights(util::Rng& rng, float gain) {
  // Uniform in [-b, b] with b chosen so the expected drive from a moderately
  // active input frame is on the order of the firing threshold.
  const float bound =
      gain * lif_.defaults().threshold * 3.0f / std::sqrt(static_cast<float>(num_inputs_));
  for (auto& w : weights_) w = static_cast<float>(rng.uniform(-bound, bound));
}

void DenseLayer::forward_into(const Tensor& in, bool record_traces, Tensor& out) {
  if (in.shape().rank() != 2 || in.shape().dim(1) != num_inputs_) {
    throw std::invalid_argument("DenseLayer::forward: expected [T, " +
                                std::to_string(num_inputs_) + "], got " + in.shape().to_string());
  }
  const size_t T = in.shape().dim(0);
  out.resize_zero(Shape{T, lif_.size()});
  lif_.begin_run(T, record_traces);
  syn_scratch_.resize(lif_.size());
  std::vector<float>& syn = syn_scratch_;
  const bool obs_on = obs::telemetry_enabled();
  if (obs_on) kernel_obs_.ensure_bound(name());
  obs::KernelDispatchObs* kobs = obs_on ? &kernel_obs_ : nullptr;
  if (!weights_frozen_) matvec_.drop_pack();
  for (size_t t = 0; t < T; ++t) {
    std::fill(syn.begin(), syn.end(), 0.0f);
    matvec_.accumulate(kernel_mode_, weights_.data(), lif_.size(), num_inputs_, in.row(t),
                       syn.data(), kobs);
    lif_.step(syn.data(), out.row(t));
  }
  if (record_traces) saved_input_ = in;
}

Tensor DenseLayer::backward(const Tensor& grad_out) {
  const size_t T = grad_out.shape().dim(0);
  if (saved_input_.empty() || saved_input_.shape().dim(0) != T) {
    throw std::logic_error("DenseLayer::backward without matching recorded forward");
  }
  // 1) LIF backward: dL/dspike -> dL/dsyn for the whole window.
  Tensor grad_syn(Shape{T, lif_.size()});
  lif_.backward(grad_out.data(), T, surrogate_, grad_syn.data());
  // 2) Propagate through the weight matrix.
  Tensor grad_in(Shape{T, num_inputs_});
  const KernelMode mode = kernel_mode_;
  for (size_t t = 0; t < T; ++t) {
    if (param_grads_enabled_) {
      const float* in_row = saved_input_.row(t);
      if (mode == KernelMode::kDense) {
        tensor::outer_accumulate(weight_grads_.data(), lif_.size(), num_inputs_, grad_syn.row(t),
                                 in_row, 1.0f);
      } else {
        // dL/dW[i,j] = sum_t grad_syn[t,i] * s_in[t,j]: only the active
        // input columns of the frame contribute (bit-identical skip, see
        // outer_accumulate_gather).
        const auto view = tensor::make_frame_view(in_row, num_inputs_, active_scratch_);
        if (mode == KernelMode::kSparse || sparse_frame_wins(view.num_active, view.size)) {
          tensor::outer_accumulate_gather(weight_grads_.data(), lif_.size(), num_inputs_,
                                          grad_syn.row(t), view.frame, view.active,
                                          view.num_active, 1.0f);
        } else {
          tensor::outer_accumulate(weight_grads_.data(), lif_.size(), num_inputs_,
                                   grad_syn.row(t), in_row, 1.0f);
        }
      }
    }
    // dL/d(input) flows through W^T into every input column (silent columns
    // carry gradient too), so it stays dense in the columns; its row loop
    // already skips zero grad_syn entries.
    tensor::matvec_transpose_accumulate(weights_.data(), lif_.size(), num_inputs_,
                                        grad_syn.row(t), grad_in.row(t));
  }
  return grad_in;
}

std::vector<ParamView> DenseLayer::params() {
  return {{weights_.data(), weight_grads_.data(), weights_.size(), "weight"}};
}

std::unique_ptr<Layer> DenseLayer::clone() const { return std::make_unique<DenseLayer>(*this); }

}  // namespace snntest::snn
