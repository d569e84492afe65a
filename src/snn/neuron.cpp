#include "snn/neuron.hpp"

#include <cassert>
#include <stdexcept>

#include "tensor/simd.hpp"

namespace snntest::snn {

LifBank::LifBank(size_t n, LifParams defaults)
    : n_(n),
      defaults_(defaults),
      threshold_(n, defaults.threshold),
      leak_(n, defaults.leak),
      refractory_(n, defaults.refractory),
      mode_(n, NeuronMode::kNormal),
      u_(n, defaults.reset_potential),
      refrac_left_(n, 0) {
  if (defaults.threshold <= 0.0f) throw std::invalid_argument("LifParams: threshold must be > 0");
  if (defaults.leak <= 0.0f || defaults.leak > 1.0f) {
    throw std::invalid_argument("LifParams: leak must be in (0, 1]");
  }
  if (defaults.refractory < 0) throw std::invalid_argument("LifParams: refractory must be >= 0");
}

void LifBank::restore_defaults() {
  for (size_t i = 0; i < n_; ++i) {
    threshold_[i] = defaults_.threshold;
    leak_[i] = defaults_.leak;
    refractory_[i] = defaults_.refractory;
    mode_[i] = NeuronMode::kNormal;
  }
}

void LifBank::begin_run(size_t num_steps, bool record_traces) {
  std::fill(u_.begin(), u_.end(), defaults_.reset_potential);
  std::fill(refrac_left_.begin(), refrac_left_.end(), 0);
  t_ = 0;
  planned_steps_ = num_steps;
  recording_ = record_traces;
  if (record_traces) {
    trace_u_pre_.assign(num_steps * n_, 0.0f);
    trace_spike_.assign(num_steps * n_, 0);
    trace_integrated_.assign(num_steps * n_, 0);
  } else {
    trace_u_pre_.clear();
    trace_spike_.clear();
    trace_integrated_.clear();
  }
}

static_assert(sizeof(NeuronMode) == 1 && static_cast<uint8_t>(NeuronMode::kNormal) == 0 &&
                  static_cast<uint8_t>(NeuronMode::kDead) == 1 &&
                  static_cast<uint8_t>(NeuronMode::kSaturated) == 2,
              "tensor::simd::LifFrameParams::mode encodes NeuronMode by value");

void LifBank::step(const float* syn, float* spikes_out) {
  assert(t_ < planned_steps_ && "LifBank::step beyond planned run length");
  // The frame kernel is lif_step_neuron per neuron (its scalar table entry
  // is the reference; tests/test_simd.cpp checks every backend against it).
  tensor::simd::LifFrameParams p;
  p.leak = leak_.data();
  p.threshold = threshold_.data();
  p.refractory = refractory_.data();
  p.mode = reinterpret_cast<const uint8_t*>(mode_.data());
  p.reset_v = defaults_.reset_potential;
  const tensor::simd::LaneKernels& ops = tensor::simd::lane_ops();
  if (recording_) {
    const size_t base = t_ * n_;
    const tensor::simd::LifFrameTrace trace{trace_u_pre_.data() + base,
                                            trace_spike_.data() + base,
                                            trace_integrated_.data() + base};
    ops.lif_frame_traced(p, n_, syn, u_.data(), refrac_left_.data(), spikes_out, trace);
  } else {
    ops.lif_frame(p, n_, syn, u_.data(), refrac_left_.data(), spikes_out);
  }
  ++t_;
}

LifBank::Backward::Backward(const LifBank& bank, const SurrogateConfig& surrogate,
                            size_t num_steps)
    : bank_(bank), surrogate_(surrogate), num_steps_(num_steps), carry_(bank.size(), 0.0f) {
  if (!bank.recording_ || bank.t_ < num_steps) {
    throw std::logic_error("LifBank backward requires a recorded forward run");
  }
}

static_assert(static_cast<uint8_t>(SurrogateKind::kFastSigmoid) == 0 &&
                  static_cast<uint8_t>(SurrogateKind::kAtan) == 1 &&
                  static_cast<uint8_t>(SurrogateKind::kRectangular) == 2,
              "tensor::simd::LifBackwardParams::surrogate encodes SurrogateKind by value");

void LifBank::Backward::step(size_t t, const float* grad_spike_t, float* grad_syn_t) {
  // One frame-kernel call per step. Per neuron (the scalar table entry is
  // the reference): a refractory or faulted step integrated nothing and
  // held the membrane at reset, so grad_syn and the chain through time are
  // zero; otherwise
  //   dL/du_pre[t] = dL/ds[t] * surrogate + dL/du_post[t] * (1 - s[t])
  // (reset is detached: the u_post -> reset branch carries no gradient),
  // du_pre/dsyn = 1, and du_pre[t]/du_post[t-1] = leak carries it back.
  const size_t base = t * bank_.n_;
  tensor::simd::LifBackwardParams p;
  p.threshold = bank_.threshold_.data();
  p.leak = bank_.leak_.data();
  p.u_pre = bank_.trace_u_pre_.data() + base;
  p.spiked = bank_.trace_spike_.data() + base;
  p.integrated = bank_.trace_integrated_.data() + base;
  p.surrogate = static_cast<uint8_t>(surrogate_.kind);
  p.alpha = surrogate_.alpha;
  tensor::simd::lane_ops().lif_backward_frame(p, bank_.n_, grad_spike_t, carry_.data(),
                                              grad_syn_t);
}

void LifBank::backward(const float* grad_spikes, size_t num_steps,
                       const SurrogateConfig& surrogate, float* grad_syn) const {
  Backward bw(*this, surrogate, num_steps);
  for (size_t t = num_steps; t-- > 0;) {
    bw.step(t, grad_spikes + t * n_, grad_syn + t * n_);
  }
}

}  // namespace snntest::snn
