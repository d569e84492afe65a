// Differentiable binary-input parameterization (paper Sec. IV-C3, Fig. 3).
//
// The SNN input is a binary tensor, which cannot be optimized by gradient
// descent directly. Following Eq. (17)-(19):
//   I_soft = GumbelSoftmax(I_real, tau)   — binary-concrete relaxation
//   I_in   = STE(I_soft)                  — hard {0,1} in the forward pass
// and in the backward pass the STE passes the gradient through unchanged
// while the Gumbel-sigmoid contributes its local derivative
//   dI_soft/dI_real = I_soft * (1 - I_soft) / tau.
//
// For the two-category (spike / no spike) case the Gumbel-Softmax reduces to
// the Gumbel-sigmoid: I_soft = sigma((I_real + G1 - G2) / tau) with G1, G2
// i.i.d. standard Gumbel. Fresh noise is drawn per optimization step, which
// gives the optimizer its exploration.
#pragma once

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace snntest::core {

using tensor::Shape;
using tensor::Tensor;

class GumbelSoftmaxInput {
 public:
  /// `num_steps` x `num_channels` input window; I_real starts at small
  /// random logits so the initial binary input is roughly 50% dense
  /// (initial_bias shifts the starting density: negative = sparser).
  GumbelSoftmaxInput(size_t num_steps, size_t num_channels, util::Rng& rng,
                     float initial_bias = -1.0f);

  size_t num_steps() const { return real_.shape().dim(0); }
  size_t num_channels() const { return real_.shape().dim(1); }

  /// Sample noise and produce the binary input I_in for this step.
  /// With `stochastic` false, uses zero noise (deterministic rounding) —
  /// used for the final evaluation of a candidate. Throws
  /// std::invalid_argument unless tau is finite and > 0.
  const Tensor& forward(double tau, bool stochastic = true);

  /// Translate dL/dI_in into dL/dI_real (overwrites the stored gradient).
  /// Must follow a forward() with the same tau.
  void backward(const Tensor& grad_input);

  /// Adam attachment points.
  float* real_data() { return real_.data(); }
  const float* grad_data() const { return grad_.data(); }
  size_t size() const { return real_.numel(); }

  const Tensor& binary() const { return binary_; }
  const Tensor& real() const { return real_; }
  Tensor& mutable_real() { return real_; }

  /// Grow the window by `extra_steps` (duration increase by beta,
  /// Sec. IV-C3), preserving the optimized prefix and initializing the new
  /// tail randomly.
  void grow(size_t extra_steps, util::Rng& rng, float initial_bias = -1.0f);

 private:
  Tensor real_;    // logits
  Tensor soft_;    // relaxed values from the last forward
  Tensor binary_;  // STE-binarized values from the last forward
  Tensor grad_;    // dL/dI_real
  util::Rng* rng_;
  double last_tau_ = 1.0;
};

}  // namespace snntest::core
