#include "core/gumbel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "tensor/simd.hpp"

namespace snntest::core {

GumbelSoftmaxInput::GumbelSoftmaxInput(size_t num_steps, size_t num_channels, util::Rng& rng,
                                       float initial_bias)
    : real_(Shape{num_steps, num_channels}),
      soft_(Shape{num_steps, num_channels}),
      binary_(Shape{num_steps, num_channels}),
      grad_(Shape{num_steps, num_channels}),
      rng_(&rng) {
  for (size_t i = 0; i < real_.numel(); ++i) {
    real_[i] = initial_bias + static_cast<float>(rng.normal(0.0, 1.0));
  }
}

const Tensor& GumbelSoftmaxInput::forward(double tau, bool stochastic) {
  // !(tau > 0) also rejects NaN; an infinite tau would make every logit 0.
  if (!(tau > 0.0) || !std::isfinite(tau)) {
    throw std::invalid_argument("GumbelSoftmaxInput: tau must be finite and > 0, got " +
                                std::to_string(tau));
  }
  last_tau_ = tau;
  // Chunked so the scratch stays a few KB whatever the window: per element
  // the noise pair is drawn first (g1 then g2, one stream), then the table
  // forms the logit -(real + (g1 - g2)) / tau, glibc exp runs element by
  // element, and the table finishes the sigmoid and the STE threshold.
  constexpr size_t kChunk = 256;
  double g1[kChunk], g2[kChunk], x[kChunk];
  const tensor::simd::LaneKernels& ops = tensor::simd::lane_ops();
  const size_t total = real_.numel();
  for (size_t base = 0; base < total; base += kChunk) {
    const size_t n = std::min(kChunk, total - base);
    if (stochastic) {
      for (size_t i = 0; i < n; ++i) {
        g1[i] = rng_->gumbel();
        g2[i] = rng_->gumbel();
      }
    }
    ops.gumbel_logits(real_.data() + base, stochastic ? g1 : nullptr, g2, n, tau, x);
    for (size_t i = 0; i < n; ++i) x[i] = std::exp(x[i]);
    ops.gumbel_binarize(x, n, soft_.data() + base, binary_.data() + base);
  }
  return binary_;
}

void GumbelSoftmaxInput::backward(const Tensor& grad_input) {
  if (grad_input.shape() != real_.shape()) {
    throw std::invalid_argument("GumbelSoftmaxInput::backward: shape mismatch");
  }
  for (size_t i = 0; i < real_.numel(); ++i) {
    // STE: identity. Gumbel-sigmoid local derivative: s(1-s)/tau.
    const double s = soft_[i];
    grad_[i] = static_cast<float>(grad_input[i] * s * (1.0 - s) / last_tau_);
  }
}

void GumbelSoftmaxInput::grow(size_t extra_steps, util::Rng& rng, float initial_bias) {
  const size_t old_steps = num_steps();
  const size_t channels = num_channels();
  Tensor new_real(Shape{old_steps + extra_steps, channels});
  std::copy(real_.data(), real_.data() + real_.numel(), new_real.data());
  for (size_t i = real_.numel(); i < new_real.numel(); ++i) {
    new_real[i] = initial_bias + static_cast<float>(rng.normal(0.0, 1.0));
  }
  real_ = std::move(new_real);
  soft_ = Tensor(real_.shape());
  binary_ = Tensor(real_.shape());
  grad_ = Tensor(real_.shape());
}

}  // namespace snntest::core
