#include "core/losses.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "snn/conv_layer.hpp"
#include "snn/dense_layer.hpp"
#include "snn/recurrent_layer.hpp"
#include "snn/spike_train.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

namespace snntest::core {
namespace {

/// Subgradient of a "fire at least once" hinge max(0, 1 - count) for one
/// neuron: adds -1 at every timestep when the neuron is silent.
void add_activation_term(const Tensor& train, size_t neuron, double& value, Tensor& grad) {
  const size_t T = train.shape().dim(0);
  const size_t n = train.shape().dim(1);
  size_t count = 0;
  for (size_t t = 0; t < T; ++t) count += train.data()[t * n + neuron] > 0.5f;
  if (count >= 1) return;
  value += 1.0;
  for (size_t t = 0; t < T; ++t) grad.data()[t * n + neuron] += -1.0f;
}

int sign_of(float a, float b) {
  const bool sa = a > 0.5f;
  const bool sb = b > 0.5f;
  if (sa == sb) return 0;
  return sa ? 1 : -1;
}

/// L4 kernel shared by dense-style weight matrices: weights [rows, cols],
/// contribution c_j = w[i,j] * count_prev[j] over the non-zero weights of
/// each row i. Returns the summed variance; accumulates d/dcount_prev. The
/// row statistics (vectorized across rows) and the gradient (across
/// columns, rows ascending) run on the SIMD table; the total stays a
/// sequential sum over the rows.
double variance_over_rows(const float* weights, size_t rows, size_t cols,
                          const std::vector<double>& counts_prev,
                          std::vector<double>& grad_counts_prev) {
  std::vector<double> mean(rows), var(rows), taps(rows);
  const tensor::simd::LaneKernels& ops = tensor::simd::lane_ops();
  ops.l4_row_stats(weights, rows, cols, counts_prev.data(), mean.data(), var.data(),
                   taps.data());
  double total = 0.0;
  for (size_t i = 0; i < rows; ++i) {
    if (taps[i] >= 2.0) total += std::max(0.0, var[i]);
  }
  // dVar/dc_j = 2*(c_j - mean)/k ; dc_j/dcount_j = w_ij
  ops.l4_row_grad(weights, rows, cols, counts_prev.data(), mean.data(), taps.data(),
                  grad_counts_prev.data());
  return total;
}

/// Output rows (or columns) [lo, hi) whose kernel tap `tap` lands inside
/// the input: padding <= o * stride + tap < extent + padding.
struct OutputSpan {
  size_t lo;
  size_t hi;
};

OutputSpan outputs_reached(size_t tap, const snn::Conv2dSpec& spec, size_t extent,
                           size_t outputs) {
  const size_t s = spec.stride;
  const size_t lo = tap >= spec.padding ? 0 : (spec.padding - tap + s - 1) / s;
  const size_t end = extent + spec.padding;
  const size_t hi = std::min(outputs, tap >= end ? 0 : (end - tap + s - 1) / s);
  return {std::min(lo, hi), hi};
}

}  // namespace

// L4 of a conv layer: the variance over the live receptive-field taps of
// each output neuron. Tap-major: for each output channel, every stored tap
// (ic, ky, kx) with a nonzero weight sweeps the output pixels it reaches,
// so no receptive field is walked per pixel.
//  * Ascending taps give every pixel's sum and squared-deviation sum their
//    terms in the (ic, ky, kx) order of a receptive-field walk.
//  * Descending taps give each grad_counts[input] its terms in ascending
//    (oy, ox) order: for one input pixel, a larger ky (kx) reaches a
//    smaller oy (ox). Output channels ascend outside, so the whole order is
//    (oc, oy, ox), as in a pixel-major walk.
// Each pixel's variance is added straight into `value`, pixel by pixel in
// (oc, oy, ox) order, as the loss has always summed them.
void add_conv_synapse_variance(const snn::ConvLayer& conv, const std::vector<double>& counts,
                               std::vector<double>& grad_counts, double& value) {
  const snn::Conv2dSpec& spec = conv.spec();
  const size_t oh = spec.out_height();
  const size_t ow = spec.out_width();
  const size_t k = spec.kernel;
  const size_t positions = oh * ow;
  const float* weights = conv.weights().data();
  std::vector<double> sum(positions), sq(positions), taps(positions);
  // f(w, output pixel, input index) for every connection of channel oc,
  // taps ascending or descending.
  auto for_each_connection = [&](size_t oc, bool descending, auto&& f) {
    const size_t fan_in = spec.in_channels * k * k;
    for (size_t n = 0; n < fan_in; ++n) {
      const size_t tap = descending ? fan_in - 1 - n : n;
      const float w = weights[oc * fan_in + tap];
      if (w == 0.0f) continue;
      const size_t ic = tap / (k * k);
      const size_t ky = (tap / k) % k;
      const size_t kx = tap % k;
      const OutputSpan ys = outputs_reached(ky, spec, spec.in_height, oh);
      const OutputSpan xs = outputs_reached(kx, spec, spec.in_width, ow);
      for (size_t oy = ys.lo; oy < ys.hi; ++oy) {
        const size_t row = (ic * spec.in_height + oy * spec.stride + ky - spec.padding) *
                               spec.in_width + kx - spec.padding;
        for (size_t ox = xs.lo; ox < xs.hi; ++ox) {
          f(w, oy * ow + ox, row + ox * spec.stride);
        }
      }
    }
  };
  for (size_t oc = 0; oc < spec.out_channels; ++oc) {
    std::fill(sum.begin(), sum.end(), 0.0);
    std::fill(sq.begin(), sq.end(), 0.0);
    std::fill(taps.begin(), taps.end(), 0.0);
    for_each_connection(oc, false, [&](float w, size_t p, size_t in) {
      sum[p] += static_cast<double>(w) * counts[in];
      taps[p] += 1.0;
    });
    for (size_t p = 0; p < positions; ++p) sum[p] /= taps[p];  // now the mean
    const std::vector<double>& mean = sum;
    for_each_connection(oc, false, [&](float w, size_t p, size_t in) {
      const double c = static_cast<double>(w) * counts[in];
      sq[p] += (c - mean[p]) * (c - mean[p]);
    });
    for (size_t p = 0; p < positions; ++p) {
      if (taps[p] >= 2.0) value += sq[p] / taps[p];
    }
    for_each_connection(oc, true, [&](float w, size_t p, size_t in) {
      if (taps[p] < 2.0) return;
      const double c = static_cast<double>(w) * counts[in];
      grad_counts[in] += 2.0 * (c - mean[p]) / taps[p] * static_cast<double>(w);
    });
  }
}

NeuronMask full_mask(const Network& net) {
  NeuronMask mask(net.num_layers());
  for (size_t l = 0; l < net.num_layers(); ++l) {
    mask[l].assign(net.layer(l).num_neurons(), 1);
  }
  return mask;
}

std::vector<Tensor> make_grad_accumulators(const ForwardResult& o) {
  std::vector<Tensor> grads;
  zero_grad_accumulators(o, grads);
  return grads;
}

void zero_grad_accumulators(const ForwardResult& o, std::vector<Tensor>& grads) {
  grads.resize(o.layer_outputs.size());
  for (size_t l = 0; l < grads.size(); ++l) grads[l].resize_zero(o.layer_outputs[l].shape());
}

double OutputActivationLoss::compute(const ForwardResult& o,
                                     std::vector<Tensor>& grad_accum) const {
  const size_t L = o.layer_outputs.size();
  const Tensor& out = o.layer_outputs[L - 1];
  double value = 0.0;
  for (size_t i = 0; i < out.shape().dim(1); ++i) {
    add_activation_term(out, i, value, grad_accum[L - 1]);
  }
  return value;
}

double NeuronActivationLoss::compute(const ForwardResult& o,
                                     std::vector<Tensor>& grad_accum) const {
  double value = 0.0;
  for (size_t l = 0; l < o.layer_outputs.size(); ++l) {
    const Tensor& train = o.layer_outputs[l];
    for (size_t i = 0; i < train.shape().dim(1); ++i) {
      if (mask_ && !(*mask_)[l][i]) continue;
      add_activation_term(train, i, value, grad_accum[l]);
    }
  }
  return value;
}

double TemporalDiversityLoss::compute(const ForwardResult& o,
                                      std::vector<Tensor>& grad_accum) const {
  double value = 0.0;
  for (size_t l = 0; l < o.layer_outputs.size(); ++l) {
    const Tensor& train = o.layer_outputs[l];
    const size_t T = train.shape().dim(0);
    const size_t n = train.shape().dim(1);
    const auto td = snn::temporal_diversity(train);
    for (size_t i = 0; i < n; ++i) {
      if (mask_ && !(*mask_)[l][i]) continue;
      if (td[i] >= td_min_) continue;
      value += static_cast<double>(td_min_ - td[i]);
      // d(TD_min - TD)/ds[t] = -dTD/ds[t];
      // dTD/ds[t] = sign(s[t]-s[t-1]) - sign(s[t+1]-s[t]).
      float* g = grad_accum[l].data();
      for (size_t t = 0; t < T; ++t) {
        int d = 0;
        if (t > 0) d += sign_of(train.data()[t * n + i], train.data()[(t - 1) * n + i]);
        if (t + 1 < T) d -= sign_of(train.data()[(t + 1) * n + i], train.data()[t * n + i]);
        g[t * n + i] += static_cast<float>(-d);
      }
    }
  }
  return value;
}

double SynapseUniformityLoss::compute(const ForwardResult& o,
                                      std::vector<Tensor>& grad_accum) const {
  double value = 0.0;
  // Paper Eq. (13) sums from l = 2: the presynaptic spike trains must be
  // *neuron outputs*, so layer 0 (fed by the raw input) is excluded.
  for (size_t l = 1; l < o.layer_outputs.size(); ++l) {
    const Tensor& prev_train = o.layer_outputs[l - 1];
    const size_t T = prev_train.shape().dim(0);
    const size_t m = prev_train.shape().dim(1);
    const auto counts_sz = snn::spike_counts(prev_train);
    std::vector<double> counts(counts_sz.begin(), counts_sz.end());
    std::vector<double> grad_counts(m, 0.0);

    snn::Layer& layer = net_->layer(l);
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
        add_conv_synapse_variance(static_cast<snn::ConvLayer&>(layer), counts, grad_counts, value);
        break;
      case snn::LayerKind::kSumPool:
        // Fixed wiring — no synapse-fault sites, no L4 term.
        break;
    }

    // d count_j / d s[t, j] = 1 at every timestep; zero entries add nothing.
    std::vector<uint32_t> live;
    std::vector<float> live_grad;
    for (size_t j = 0; j < m; ++j) {
      if (grad_counts[j] == 0.0) continue;
      live.push_back(static_cast<uint32_t>(j));
      live_grad.push_back(static_cast<float>(grad_counts[j]));
    }
    float* g = grad_accum[l - 1].data();
    for (size_t t = 0; t < T; ++t) {
      float* row = g + t * m;
      for (size_t i = 0; i < live.size(); ++i) row[live[i]] += live_grad[i];
    }
  }
  return value;
}

double SparsityLoss::compute(const ForwardResult& o, std::vector<Tensor>& grad_accum) const {
  double value = 0.0;
  // Hidden layers only: l < L-1.
  for (size_t l = 0; l + 1 < o.layer_outputs.size(); ++l) {
    const Tensor& train = o.layer_outputs[l];
    value += static_cast<double>(train.count_nonzero());
    float* g = grad_accum[l].data();
    for (size_t i = 0; i < train.numel(); ++i) g[i] += 1.0f;
  }
  return value;
}

double OutputConstancyPenalty::compute(const ForwardResult& o,
                                       std::vector<Tensor>& grad_accum) const {
  const size_t L = o.layer_outputs.size();
  const Tensor& out = o.layer_outputs[L - 1];
  if (out.shape() != reference_.shape()) {
    throw std::invalid_argument("OutputConstancyPenalty: output/reference shape mismatch");
  }
  double value = 0.0;
  float* g = grad_accum[L - 1].data();
  for (size_t i = 0; i < out.numel(); ++i) {
    const float diff = out[i] - reference_[i];
    value += std::fabs(static_cast<double>(diff));
    if (diff > 0.5f) {
      g[i] += static_cast<float>(mu_);
    } else if (diff < -0.5f) {
      g[i] -= static_cast<float>(mu_);
    }
  }
  return mu_ * value;
}

void CompositeLoss::add(std::shared_ptr<const SpikeLoss> loss, double weight) {
  losses_.push_back(std::move(loss));
  weights_.push_back(weight);
}

double CompositeLoss::compute(const ForwardResult& o, std::vector<Tensor>& grad_accum,
                              std::vector<double>* per_term) const {
  std::vector<Tensor> scratch;
  return compute(o, grad_accum, scratch, per_term);
}

double CompositeLoss::compute(const ForwardResult& o, std::vector<Tensor>& grad_accum,
                              std::vector<Tensor>& scratch,
                              std::vector<double>* per_term) const {
  if (per_term) per_term->assign(losses_.size(), 0.0);
  scratch.resize(o.layer_outputs.size());
  double total = 0.0;
  for (size_t i = 0; i < losses_.size(); ++i) {
    for (size_t l = 0; l < scratch.size(); ++l) {
      scratch[l].resize_zero(o.layer_outputs[l].shape());
    }
    const double v = losses_[i]->compute(o, scratch);
    if (per_term) (*per_term)[i] = v;
    total += weights_[i] * v;
    for (size_t l = 0; l < grad_accum.size(); ++l) {
      tensor::axpy(grad_accum[l].data(), scratch[l].data(), static_cast<float>(weights_[i]),
                   grad_accum[l].numel());
    }
  }
  return total;
}

void CompositeLoss::calibrate_weights(const ForwardResult& o, double floor) {
  std::vector<Tensor> scratch = make_grad_accumulators(o);
  for (size_t i = 0; i < losses_.size(); ++i) {
    const double v = std::fabs(losses_[i]->compute(o, scratch));
    weights_[i] = 1.0 / std::max(v, floor);
  }
}

}  // namespace snntest::core
