// Test-support oracles for the optimizer step of test generation: the
// scalar loops the generator ran before its element-wise work moved onto
// the SIMD kernel table (tensor/simd.hpp), kept verbatim so every backend
// and every restructured walk can be checked against them bit for bit.
//
//  * naive_gumbel_forward — GumbelSoftmaxInput::forward (Eqs. 17-19), one
//    element at a time, the noise pair drawn as `gumbel() - gumbel()`;
//  * naive_lif_backward_step — one LifBank::Backward::step frame through
//    snn::surrogate_derivative;
//  * naive_adam_step — one AdamOptimizer::step over one slot;
//  * naive_synapse_uniformity — SynapseUniformityLoss::compute (L4, Eq. 13),
//    which walks each conv receptive field twice.
//
// Include only from TUs compiled with -ffp-contract=off where the host
// would otherwise contract (see src/CMakeLists.txt).
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "snn/conv_layer.hpp"
#include "snn/dense_layer.hpp"
#include "snn/network.hpp"
#include "snn/neuron.hpp"
#include "snn/recurrent_layer.hpp"
#include "snn/spike_train.hpp"
#include "snn/surrogate.hpp"
#include "tensor/tensor.hpp"
#include "train/adam.hpp"
#include "util/rng.hpp"

namespace snntest::test_support {

inline void naive_gumbel_forward(const tensor::Tensor& real, double tau, bool stochastic,
                                 util::Rng& rng, tensor::Tensor& soft, tensor::Tensor& binary) {
  for (size_t i = 0; i < real.numel(); ++i) {
    double logit = real[i];
    if (stochastic) logit += rng.gumbel() - rng.gumbel();
    const double soft_v = 1.0 / (1.0 + std::exp(-logit / tau));
    soft[i] = static_cast<float>(soft_v);
    binary[i] = soft_v > 0.5 ? 1.0f : 0.0f;
  }
}

inline void naive_lif_backward_step(const snn::LifBank& bank, const snn::SurrogateConfig& surrogate,
                                    size_t t, const float* grad_spike_t, float* carry,
                                    float* grad_syn_t) {
  const size_t n = bank.size();
  const size_t base = t * n;
  for (size_t i = 0; i < n; ++i) {
    if (!bank.trace_integrated()[base + i]) {
      grad_syn_t[i] = 0.0f;
      carry[i] = 0.0f;
      continue;
    }
    const float u_pre = bank.trace_u_pre()[base + i];
    const float surr = snn::surrogate_derivative(surrogate, u_pre - bank.thresholds()[i]);
    const float spiked = bank.trace_spikes()[base + i] ? 1.0f : 0.0f;
    const float g_u_pre = grad_spike_t[i] * surr + carry[i] * (1.0f - spiked);
    grad_syn_t[i] = g_u_pre;
    carry[i] = bank.leaks()[i] * g_u_pre;
  }
}

inline void naive_adam_step(const train::AdamConfig& config, size_t t, const float* grad,
                            size_t size, float* m, float* v, float* value) {
  const double bc1 = 1.0 - std::pow(config.beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(config.beta2, static_cast<double>(t));
  double clip_scale = 1.0;
  if (config.grad_clip_norm > 0.0) {
    double norm_sq = 0.0;
    for (size_t i = 0; i < size; ++i) norm_sq += static_cast<double>(grad[i]) * grad[i];
    const double norm = std::sqrt(norm_sq);
    if (norm > config.grad_clip_norm) clip_scale = config.grad_clip_norm / norm;
  }
  for (size_t i = 0; i < size; ++i) {
    const double g = grad[i] * clip_scale;
    m[i] = static_cast<float>(config.beta1 * m[i] + (1.0 - config.beta1) * g);
    v[i] = static_cast<float>(config.beta2 * v[i] + (1.0 - config.beta2) * g * g);
    const double m_hat = m[i] / bc1;
    const double v_hat = v[i] / bc2;
    double update = config.lr * m_hat / (std::sqrt(v_hat) + config.eps);
    if (config.weight_decay > 0.0) update += config.lr * config.weight_decay * value[i];
    value[i] = static_cast<float>(value[i] - update);
  }
}

inline double variance_over_rows(const float* weights, size_t rows, size_t cols,
                          const std::vector<double>& counts_prev,
                          std::vector<double>& grad_counts_prev) {
  double total = 0.0;
  for (size_t i = 0; i < rows; ++i) {
    const float* w = weights + i * cols;
    double sum = 0.0, sum_sq = 0.0;
    size_t k = 0;
    for (size_t j = 0; j < cols; ++j) {
      if (w[j] == 0.0f) continue;
      const double c = static_cast<double>(w[j]) * counts_prev[j];
      sum += c;
      sum_sq += c * c;
      ++k;
    }
    if (k < 2) continue;
    const double mean = sum / static_cast<double>(k);
    const double var = sum_sq / static_cast<double>(k) - mean * mean;
    total += std::max(0.0, var);
    const double inv_k = 1.0 / static_cast<double>(k);
    for (size_t j = 0; j < cols; ++j) {
      if (w[j] == 0.0f) continue;
      const double c = static_cast<double>(w[j]) * counts_prev[j];
      // dVar/dc_j = 2*(c_j - mean)/k ; dc_j/dcount_j = w_ij
      grad_counts_prev[j] += 2.0 * (c - mean) * inv_k * static_cast<double>(w[j]);
    }
  }
  return total;
}


/// The conv branch of naive_synapse_uniformity: adds the layer's per-pixel
/// variances into `value` and their gradients into grad_counts (doubles,
/// before the loss casts them into the spike gradient).
inline void naive_conv_variance(const snn::ConvLayer& conv, const std::vector<double>& counts,
                                std::vector<double>& grad_counts, double& value) {
  const auto& spec = conv.spec();
  const size_t oh = spec.out_height();
  const size_t ow = spec.out_width();
  const size_t k = spec.kernel;
  const float* weights = conv.weights().data();
  // Variance over the receptive-field taps of each output neuron.
  std::vector<double> contribs;
  std::vector<size_t> tap_inputs;
  for (size_t oc = 0; oc < spec.out_channels; ++oc) {
    for (size_t oy = 0; oy < oh; ++oy) {
      for (size_t ox = 0; ox < ow; ++ox) {
        contribs.clear();
        tap_inputs.clear();
        double sum = 0.0;
        for (size_t ic = 0; ic < spec.in_channels; ++ic) {
          const float* w_base = weights + ((oc * spec.in_channels + ic) * k) * k;
          for (size_t ky = 0; ky < k; ++ky) {
            const long iy = static_cast<long>(oy * spec.stride + ky) -
                            static_cast<long>(spec.padding);
            if (iy < 0 || iy >= static_cast<long>(spec.in_height)) continue;
            for (size_t kx = 0; kx < k; ++kx) {
              const long ix = static_cast<long>(ox * spec.stride + kx) -
                              static_cast<long>(spec.padding);
              if (ix < 0 || ix >= static_cast<long>(spec.in_width)) continue;
              const float w = w_base[ky * k + kx];
              if (w == 0.0f) continue;
              const size_t in_idx = (ic * spec.in_height + static_cast<size_t>(iy)) *
                                        spec.in_width +
                                    static_cast<size_t>(ix);
              const double c = static_cast<double>(w) * counts[in_idx];
              contribs.push_back(c);
              tap_inputs.push_back(in_idx);
              sum += c;
            }
          }
        }
        const size_t kk = contribs.size();
        if (kk < 2) continue;
        const double mean = sum / static_cast<double>(kk);
        double var = 0.0;
        for (double c : contribs) var += (c - mean) * (c - mean);
        var /= static_cast<double>(kk);
        value += var;
        // regather weights to chain into counts
        size_t tap = 0;
        for (size_t ic = 0; ic < spec.in_channels; ++ic) {
          const float* w_base = weights + ((oc * spec.in_channels + ic) * k) * k;
          for (size_t ky = 0; ky < k; ++ky) {
            const long iy = static_cast<long>(oy * spec.stride + ky) -
                            static_cast<long>(spec.padding);
            if (iy < 0 || iy >= static_cast<long>(spec.in_height)) continue;
            for (size_t kx = 0; kx < k; ++kx) {
              const long ix = static_cast<long>(ox * spec.stride + kx) -
                              static_cast<long>(spec.padding);
              if (ix < 0 || ix >= static_cast<long>(spec.in_width)) continue;
              const float w = w_base[ky * k + kx];
              if (w == 0.0f) continue;
              grad_counts[tap_inputs[tap]] +=
                  2.0 * (contribs[tap] - mean) / static_cast<double>(kk) *
                  static_cast<double>(w);
              ++tap;
            }
          }
        }
      }
    }
  }
}

inline double naive_synapse_uniformity(snn::Network& net, const snn::ForwardResult& o,
                                       std::vector<tensor::Tensor>& grad_accum) {
  double value = 0.0;
  // Paper Eq. (13) sums from l = 2: the presynaptic spike trains must be
  // *neuron outputs*, so layer 0 (fed by the raw input) is excluded.
  for (size_t l = 1; l < o.layer_outputs.size(); ++l) {
    const tensor::Tensor& prev_train = o.layer_outputs[l - 1];
    const size_t T = prev_train.shape().dim(0);
    const size_t m = prev_train.shape().dim(1);
    const auto counts_sz = snn::spike_counts(prev_train);
    std::vector<double> counts(counts_sz.begin(), counts_sz.end());
    std::vector<double> grad_counts(m, 0.0);

    snn::Layer& layer = net.layer(l);
    switch (layer.kind()) {
      case snn::LayerKind::kDense: {
        auto& dense = static_cast<snn::DenseLayer&>(layer);
        value += variance_over_rows(dense.weights().data(), dense.num_neurons(), m, counts,
                                    grad_counts);
        break;
      }
      case snn::LayerKind::kRecurrent: {
        auto& rec = static_cast<snn::RecurrentLayer&>(layer);
        value += variance_over_rows(rec.weights().data(), rec.num_neurons(), m, counts,
                                    grad_counts);
        break;
      }
      case snn::LayerKind::kConv2d:
        naive_conv_variance(static_cast<snn::ConvLayer&>(layer), counts, grad_counts, value);
        break;
      case snn::LayerKind::kSumPool:
        // Fixed wiring — no synapse-fault sites, no L4 term.
        break;
    }

    // d count_j / d s[t, j] = 1 at every timestep.
    float* g = grad_accum[l - 1].data();
    for (size_t t = 0; t < T; ++t) {
      for (size_t j = 0; j < m; ++j) {
        if (grad_counts[j] != 0.0) g[t * m + j] += static_cast<float>(grad_counts[j]);
      }
    }
  }
  return value;
}

}  // namespace snntest::test_support
