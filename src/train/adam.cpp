#include "train/adam.hpp"

#include <cmath>
#include <stdexcept>

#include "snn/network.hpp"
#include "tensor/simd.hpp"

namespace snntest::train {

AdamOptimizer::AdamOptimizer(AdamConfig config) : config_(config) {
  if (config.lr <= 0) throw std::invalid_argument("AdamConfig: lr must be > 0");
  if (config.beta1 < 0 || config.beta1 >= 1 || config.beta2 < 0 || config.beta2 >= 1) {
    throw std::invalid_argument("AdamConfig: betas must be in [0, 1)");
  }
}

void AdamOptimizer::attach(float* value, const float* grad, size_t size) {
  slots_.push_back(Slot{value, grad, size, std::vector<float>(size, 0.0f),
                        std::vector<float>(size, 0.0f)});
}

void AdamOptimizer::attach(snn::Network& net) {
  for (const snn::ParamView& p : net.params()) attach(p.value, p.grad, p.size);
}

void AdamOptimizer::step() {
  ++t_;
  tensor::simd::AdamStepParams p;
  p.lr = config_.lr;
  p.beta1 = config_.beta1;
  p.beta2 = config_.beta2;
  p.eps = config_.eps;
  p.weight_decay = config_.weight_decay;
  p.bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  p.bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  const tensor::simd::LaneKernels& ops = tensor::simd::lane_ops();
  for (Slot& slot : slots_) {
    p.clip_scale = 1.0;
    if (config_.grad_clip_norm > 0.0) {
      // A sequential reduction: the clip scale depends on its exact sum.
      double norm_sq = 0.0;
      for (size_t i = 0; i < slot.size; ++i) {
        norm_sq += static_cast<double>(slot.grad[i]) * slot.grad[i];
      }
      const double norm = std::sqrt(norm_sq);
      if (norm > config_.grad_clip_norm) p.clip_scale = config_.grad_clip_norm / norm;
    }
    // Element-wise update on the SIMD table (its scalar entry is the
    // reference loop; every backend matches it bit for bit).
    ops.adam_step(p, slot.size, slot.grad, slot.m.data(), slot.v.data(), slot.value);
  }
}

void AdamOptimizer::reset_moments() {
  t_ = 0;
  for (Slot& slot : slots_) {
    std::fill(slot.m.begin(), slot.m.end(), 0.0f);
    std::fill(slot.v.begin(), slot.v.end(), 0.0f);
  }
}

}  // namespace snntest::train
