#include "snn/conv_layer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

namespace snntest::snn {

ConvLayer::ConvLayer(Conv2dSpec spec, LifParams params)
    : spec_(spec),
      lif_(spec.output_size(), params),
      weights_(spec.weight_count(), 0.0f),
      weight_grads_(spec.weight_count(), 0.0f) {
  if (spec.kernel == 0 || spec.stride == 0) {
    throw std::invalid_argument("ConvLayer: kernel and stride must be > 0");
  }
  if (spec.in_height + 2 * spec.padding < spec.kernel ||
      spec.in_width + 2 * spec.padding < spec.kernel) {
    throw std::invalid_argument("ConvLayer: kernel larger than padded input");
  }
}

std::string ConvLayer::name() const {
  return "conv(" + std::to_string(spec_.in_channels) + "x" + std::to_string(spec_.in_height) +
         "x" + std::to_string(spec_.in_width) + "->" + std::to_string(spec_.out_channels) + "x" +
         std::to_string(spec_.out_height()) + "x" + std::to_string(spec_.out_width()) + ",k" +
         std::to_string(spec_.kernel) + ",s" + std::to_string(spec_.stride) + ")";
}

size_t ConvLayer::num_connections() const {
  // Every (output position, kernel tap) pair that lands inside the input is
  // one physical connection. Padding taps connect to nothing.
  size_t count = 0;
  const size_t oh = spec_.out_height();
  const size_t ow = spec_.out_width();
  for (size_t oy = 0; oy < oh; ++oy) {
    for (size_t ox = 0; ox < ow; ++ox) {
      for (size_t ky = 0; ky < spec_.kernel; ++ky) {
        const long iy = static_cast<long>(oy * spec_.stride + ky) - static_cast<long>(spec_.padding);
        if (iy < 0 || iy >= static_cast<long>(spec_.in_height)) continue;
        for (size_t kx = 0; kx < spec_.kernel; ++kx) {
          const long ix =
              static_cast<long>(ox * spec_.stride + kx) - static_cast<long>(spec_.padding);
          if (ix < 0 || ix >= static_cast<long>(spec_.in_width)) continue;
          ++count;
        }
      }
    }
  }
  return count * spec_.out_channels * spec_.in_channels;
}

void ConvLayer::init_weights(util::Rng& rng, float gain) {
  const float fan_in = static_cast<float>(spec_.in_channels * spec_.kernel * spec_.kernel);
  const float bound = gain * lif_.defaults().threshold * 3.0f / std::sqrt(fan_in);
  for (auto& w : weights_) w = static_cast<float>(rng.uniform(-bound, bound));
}

void ConvLayer::pack_forward_weights(std::vector<double>& packed) const {
  const size_t taps = spec_.in_channels * spec_.kernel * spec_.kernel;
  const size_t noc = spec_.out_channels;
  packed.resize(taps * noc);
  for (size_t oc = 0; oc < noc; ++oc) {
    for (size_t t = 0; t < taps; ++t) packed[t * noc + oc] = weights_[oc * taps + t];
  }
}

void ConvLayer::conv_forward_frame(const float* in, float* syn) const {
  // LaneNetwork workers call this on one shared layer, so the scratch is
  // per thread, and the weights are repacked on every call because a
  // ScopedFault may have changed them since the last one.
  thread_local std::vector<double> packed;
  thread_local std::vector<double> acc;
  pack_forward_weights(packed);
  acc.resize(spec_.out_channels);
  tensor::simd::lane_ops().conv_frame_dense(spec_.geom(), packed.data(), in, acc.data(), syn);
}

void ConvLayer::conv_backward_frame(const float* in, const float* grad_syn, float* grad_in) {
  const size_t oh = spec_.out_height();
  const size_t ow = spec_.out_width();
  const size_t k = spec_.kernel;
  for (size_t oc = 0; oc < spec_.out_channels; ++oc) {
    for (size_t oy = 0; oy < oh; ++oy) {
      for (size_t ox = 0; ox < ow; ++ox) {
        const float g = grad_syn[(oc * oh + oy) * ow + ox];
        if (g == 0.0f) continue;
        for (size_t ic = 0; ic < spec_.in_channels; ++ic) {
          float* wg_base = weight_grads_.data() + ((oc * spec_.in_channels + ic) * k) * k;
          const float* w_base = weights_.data() + ((oc * spec_.in_channels + ic) * k) * k;
          const float* in_base = in + ic * spec_.in_height * spec_.in_width;
          float* gin_base = grad_in + ic * spec_.in_height * spec_.in_width;
          for (size_t ky = 0; ky < k; ++ky) {
            const long iy =
                static_cast<long>(oy * spec_.stride + ky) - static_cast<long>(spec_.padding);
            if (iy < 0 || iy >= static_cast<long>(spec_.in_height)) continue;
            for (size_t kx = 0; kx < k; ++kx) {
              const long ix =
                  static_cast<long>(ox * spec_.stride + kx) - static_cast<long>(spec_.padding);
              if (ix < 0 || ix >= static_cast<long>(spec_.in_width)) continue;
              const long in_idx = iy * static_cast<long>(spec_.in_width) + ix;
              wg_base[ky * k + kx] += g * in_base[in_idx];
              gin_base[in_idx] += g * w_base[ky * k + kx];
            }
          }
        }
      }
    }
  }
}

void ConvLayer::pack_backward_weights(std::vector<float>& packed) const {
  const size_t k2 = spec_.kernel * spec_.kernel;
  const size_t nic = spec_.in_channels;
  packed.resize(weights_.size());
  for (size_t oc = 0; oc < spec_.out_channels; ++oc) {
    for (size_t ic = 0; ic < nic; ++ic) {
      for (size_t t = 0; t < k2; ++t) {
        packed[(oc * k2 + t) * nic + ic] = weights_[(oc * nic + ic) * k2 + t];
      }
    }
  }
}

void ConvLayer::conv_backward_input_frame(const float* grad_syn, float* grad_in) {
  const size_t nic = spec_.in_channels;
  const size_t plane = spec_.in_height * spec_.in_width;
  std::vector<float>& gin = grad_in_scratch_;  // channel-last [plane][in_channels]
  gin.resize(plane * nic);
  for (size_t ic = 0; ic < nic; ++ic) {
    for (size_t p = 0; p < plane; ++p) gin[p * nic + ic] = grad_in[ic * plane + p];
  }
  tensor::simd::lane_ops().conv_backward_input(spec_.geom(), backward_pack_.data.data(),
                                               grad_syn, gin.data());
  for (size_t ic = 0; ic < nic; ++ic) {
    for (size_t p = 0; p < plane; ++p) grad_in[ic * plane + p] = gin[p * nic + ic];
  }
}

void ConvLayer::conv_backward_weight_frame(const float* in, const float* grad_syn) {
  const size_t oh = spec_.out_height();
  const size_t ow = spec_.out_width();
  const size_t k = spec_.kernel;
  for (size_t oc = 0; oc < spec_.out_channels; ++oc) {
    for (size_t oy = 0; oy < oh; ++oy) {
      for (size_t ox = 0; ox < ow; ++ox) {
        const float g = grad_syn[(oc * oh + oy) * ow + ox];
        if (g == 0.0f) continue;
        for (size_t ic = 0; ic < spec_.in_channels; ++ic) {
          float* wg_base = weight_grads_.data() + ((oc * spec_.in_channels + ic) * k) * k;
          const float* in_base = in + ic * spec_.in_height * spec_.in_width;
          for (size_t ky = 0; ky < k; ++ky) {
            const long iy =
                static_cast<long>(oy * spec_.stride + ky) - static_cast<long>(spec_.padding);
            if (iy < 0 || iy >= static_cast<long>(spec_.in_height)) continue;
            for (size_t kx = 0; kx < k; ++kx) {
              const long ix =
                  static_cast<long>(ox * spec_.stride + kx) - static_cast<long>(spec_.padding);
              if (ix < 0 || ix >= static_cast<long>(spec_.in_width)) continue;
              wg_base[ky * k + kx] += g * in_base[iy * static_cast<long>(spec_.in_width) + ix];
            }
          }
        }
      }
    }
  }
}

void ConvLayer::conv_backward_weight_frame_sparse(const float* in, const uint32_t* active,
                                                  size_t num_active, const float* grad_syn) {
  const size_t oh = spec_.out_height();
  const size_t ow = spec_.out_width();
  const size_t k = spec_.kernel;
  const size_t plane = spec_.in_height * spec_.in_width;
  const long stride = static_cast<long>(spec_.stride);
  // Ordering argument: for one tap (oc, ic, ky, kx) the dense sweep visits
  // contributing outputs in ascending (oy, ox); here the pixels ascend in
  // flat (ic, iy, ix) order and oy / ox are monotone in iy / ix, so each tap
  // accumulator sees the identical term sequence.
  for (size_t i = 0; i < num_active; ++i) {
    const size_t flat = active[i];
    const size_t ic = flat / plane;
    const size_t rem = flat % plane;
    const size_t iy = rem / spec_.in_width;
    const size_t ix = rem % spec_.in_width;
    const float val = in[flat];
    for (size_t oc = 0; oc < spec_.out_channels; ++oc) {
      float* wg_base = weight_grads_.data() + ((oc * spec_.in_channels + ic) * k) * k;
      const float* g_base = grad_syn + oc * oh * ow;
      for (size_t ky = 0; ky < k; ++ky) {
        const long num_y = static_cast<long>(iy + spec_.padding) - static_cast<long>(ky);
        if (num_y < 0 || num_y % stride != 0) continue;
        const long oy = num_y / stride;
        if (oy >= static_cast<long>(oh)) continue;
        for (size_t kx = 0; kx < k; ++kx) {
          const long num_x = static_cast<long>(ix + spec_.padding) - static_cast<long>(kx);
          if (num_x < 0 || num_x % stride != 0) continue;
          const long ox = num_x / stride;
          if (ox >= static_cast<long>(ow)) continue;
          const float g = g_base[oy * static_cast<long>(ow) + ox];
          if (g == 0.0f) continue;  // mirror the dense path's grad_syn skip
          wg_base[ky * k + kx] += g * val;
        }
      }
    }
  }
}

size_t ConvLayer::tap_index(size_t out_index, size_t in_index) const {
  const size_t oh = spec_.out_height();
  const size_t ow = spec_.out_width();
  if (out_index >= spec_.output_size() || in_index >= spec_.input_size()) {
    throw std::invalid_argument("ConvLayer: connection index out of range");
  }
  const size_t oc = out_index / (oh * ow);
  const size_t oy = (out_index / ow) % oh;
  const size_t ox = out_index % ow;
  const size_t ic = in_index / (spec_.in_height * spec_.in_width);
  const size_t iy = (in_index / spec_.in_width) % spec_.in_height;
  const size_t ix = in_index % spec_.in_width;
  const long ky = static_cast<long>(iy) + static_cast<long>(spec_.padding) -
                  static_cast<long>(oy * spec_.stride);
  const long kx = static_cast<long>(ix) + static_cast<long>(spec_.padding) -
                  static_cast<long>(ox * spec_.stride);
  if (ky < 0 || kx < 0 || ky >= static_cast<long>(spec_.kernel) ||
      kx >= static_cast<long>(spec_.kernel)) {
    throw std::invalid_argument("ConvLayer: neurons are not connected");
  }
  return ((oc * spec_.in_channels + ic) * spec_.kernel + static_cast<size_t>(ky)) *
             spec_.kernel +
         static_cast<size_t>(kx);
}

float ConvLayer::connection_weight(size_t out_index, size_t in_index) const {
  return weights_[tap_index(out_index, in_index)];
}

void ConvLayer::set_connection_override(size_t out_index, size_t in_index, float new_weight) {
  const float stored = connection_weight(out_index, in_index);
  override_.out_index = out_index;
  override_.in_index = in_index;
  override_.delta = new_weight - stored;
  override_.active = true;
}

void ConvLayer::clear_connection_override() { override_.active = false; }

void ConvLayer::forward_into(const Tensor& in, bool record_traces, Tensor& out) {
  if (in.shape().rank() != 2 || in.shape().dim(1) != spec_.input_size()) {
    throw std::invalid_argument("ConvLayer::forward: expected [T, " +
                                std::to_string(spec_.input_size()) + "], got " +
                                in.shape().to_string());
  }
  const size_t T = in.shape().dim(0);
  out.resize_zero(Shape{T, lif_.size()});
  lif_.begin_run(T, record_traces);
  syn_scratch_.resize(lif_.size());
  std::vector<float>& syn = syn_scratch_;
  // Packed once per call: the weights cannot change within a window, but a
  // ScopedFault may have changed them since the previous call. A frozen
  // scope keeps the pack until it ends.
  if (!weights_frozen_ || !forward_pack_.built) {
    pack_forward_weights(forward_pack_.data);
    forward_pack_.built = true;
  }
  const double* packed = forward_pack_.data.data();
  syn_acc_.resize(lif_.size());
  const tensor::simd::ConvLaneGeom geom = spec_.geom();
  const tensor::simd::LaneKernels& ops = tensor::simd::lane_ops();
  const KernelMode mode = kernel_mode_;
  const bool obs_on = obs::telemetry_enabled();
  if (obs_on) kernel_obs_.ensure_bound(name());
  for (size_t t = 0; t < T; ++t) {
    if (mode == KernelMode::kDense) {
      ops.conv_frame_dense(geom, packed, in.row(t), syn_acc_.data(), syn.data());
      if (obs_on) kernel_obs_.record_dense_frame();
    } else {
      const auto view = tensor::make_frame_view(in.row(t), spec_.input_size(), active_scratch_);
      const bool use_sparse =
          mode == KernelMode::kSparse || sparse_frame_wins(view.num_active, view.size);
      if (obs_on) kernel_obs_.record_frame(view.num_active, view.size, use_sparse);
      if (use_sparse) {
        ops.conv_frame_scatter(geom, packed, view.frame, view.active, view.num_active,
                               syn_acc_.data(), syn.data());
      } else {
        ops.conv_frame_dense(geom, packed, in.row(t), syn_acc_.data(), syn.data());
      }
    }
    if (override_.active) {
      // connection-granularity fault: adjust exactly one synapse's effect
      syn[override_.out_index] += override_.delta * in.row(t)[override_.in_index];
    }
    lif_.step(syn.data(), out.row(t));
  }
  if (record_traces) saved_input_ = in;
}

float ConvLayer::frontier_synapse(const float* in_frame, const float* /*prev_out_frame*/,
                                  size_t neuron) const {
  // One output of conv_forward_frame's (oc, oy, ox) gather, same (ic, ky,
  // kx) term order and cast point; an active connection override lands on
  // top exactly like forward_into applies it.
  const size_t oh = spec_.out_height();
  const size_t ow = spec_.out_width();
  const size_t k = spec_.kernel;
  const size_t oc = neuron / (oh * ow);
  const size_t oy = (neuron / ow) % oh;
  const size_t ox = neuron % ow;
  double acc = 0.0;
  for (size_t ic = 0; ic < spec_.in_channels; ++ic) {
    const float* w_base = weights_.data() + ((oc * spec_.in_channels + ic) * k) * k;
    const float* in_base = in_frame + ic * spec_.in_height * spec_.in_width;
    for (size_t ky = 0; ky < k; ++ky) {
      const long iy = static_cast<long>(oy * spec_.stride + ky) - static_cast<long>(spec_.padding);
      if (iy < 0 || iy >= static_cast<long>(spec_.in_height)) continue;
      for (size_t kx = 0; kx < k; ++kx) {
        const long ix =
            static_cast<long>(ox * spec_.stride + kx) - static_cast<long>(spec_.padding);
        if (ix < 0 || ix >= static_cast<long>(spec_.in_width)) continue;
        acc += static_cast<double>(w_base[ky * k + kx]) *
               in_base[iy * static_cast<long>(spec_.in_width) + ix];
      }
    }
  }
  float syn = static_cast<float>(acc);
  if (override_.active && neuron == override_.out_index) {
    syn += override_.delta * in_frame[override_.in_index];
  }
  return syn;
}

void ConvLayer::frontier_synapse_frame(const float* in_frame, const float* /*prev_out_frame*/,
                                       float* syn) const {
  conv_forward_frame(in_frame, syn);
  if (override_.active) {
    syn[override_.out_index] += override_.delta * in_frame[override_.in_index];
  }
}

bool ConvLayer::frontier_fanout(size_t in_index, std::vector<uint32_t>& out) const {
  // Receptive-field inverse: every (oc, oy, ox) with a live kernel tap on
  // input pixel (ic, iy, ix) — same tap-liveness arithmetic as the sparse
  // scatter kernel (conv_frame_scatter).
  const size_t oh = spec_.out_height();
  const size_t ow = spec_.out_width();
  const size_t k = spec_.kernel;
  const size_t plane = spec_.in_height * spec_.in_width;
  const long stride = static_cast<long>(spec_.stride);
  const size_t rem = in_index % plane;
  const size_t iy = rem / spec_.in_width;
  const size_t ix = rem % spec_.in_width;
  for (size_t ky = 0; ky < k; ++ky) {
    const long num_y = static_cast<long>(iy + spec_.padding) - static_cast<long>(ky);
    if (num_y < 0 || num_y % stride != 0) continue;
    const long oy = num_y / stride;
    if (oy >= static_cast<long>(oh)) continue;
    for (size_t kx = 0; kx < k; ++kx) {
      const long num_x = static_cast<long>(ix + spec_.padding) - static_cast<long>(kx);
      if (num_x < 0 || num_x % stride != 0) continue;
      const long ox = num_x / stride;
      if (ox >= static_cast<long>(ow)) continue;
      for (size_t oc = 0; oc < spec_.out_channels; ++oc) {
        out.push_back(static_cast<uint32_t>((oc * oh + static_cast<size_t>(oy)) * ow +
                                            static_cast<size_t>(ox)));
      }
    }
  }
  return true;
}

void ConvLayer::tap_fanout(size_t index, std::vector<uint32_t>& out) const {
  const size_t positions = spec_.out_height() * spec_.out_width();
  const size_t oc = index / (spec_.in_channels * spec_.kernel * spec_.kernel);
  for (size_t p = 0; p < positions; ++p) {
    out.push_back(static_cast<uint32_t>(oc * positions + p));
  }
}

Tensor ConvLayer::backward(const Tensor& grad_out) {
  const size_t T = grad_out.shape().dim(0);
  if (saved_input_.empty() || saved_input_.shape().dim(0) != T) {
    throw std::logic_error("ConvLayer::backward without matching recorded forward");
  }
  Tensor grad_syn(Shape{T, lif_.size()});
  lif_.backward(grad_out.data(), T, surrogate_, grad_syn.data());
  Tensor grad_in(Shape{T, spec_.input_size()});
  if (!weights_frozen_ || !backward_pack_.built) {
    pack_backward_weights(backward_pack_.data);
    backward_pack_.built = true;
  }
  const KernelMode mode = kernel_mode_;
  for (size_t t = 0; t < T; ++t) {
    const float* in = saved_input_.row(t);
    const float* gs = grad_syn.row(t);
    float* gi = grad_in.row(t);
    if (mode == KernelMode::kDense && param_grads_enabled_) {
      conv_backward_frame(in, gs, gi);  // fused seed path
    } else {
      // Split halves: grad_in is inherently dense in the input pixels, but
      // the weight-gradient half only receives terms from active pixels, so
      // it can go event-driven per frame. Both halves keep the fused path's
      // per-accumulator term order (bit-identical, see conv_layer.hpp).
      conv_backward_input_frame(gs, gi);
      if (param_grads_enabled_) {
        const auto view = tensor::make_frame_view(in, spec_.input_size(), active_scratch_);
        if (mode == KernelMode::kSparse || sparse_frame_wins(view.num_active, view.size)) {
          conv_backward_weight_frame_sparse(view.frame, view.active, view.num_active, gs);
        } else {
          conv_backward_weight_frame(in, gs);
        }
      }
    }
    if (override_.active) {
      // Forward used the overridden effective weight (stored + delta) for
      // this one connection, so the input gradient must carry the delta too.
      // The stored-weight gradient is unchanged: d(syn)/d(w_stored) is still
      // the input value when the fault is an additive constant on the weight.
      grad_in.row(t)[override_.in_index] +=
          override_.delta * grad_syn.row(t)[override_.out_index];
    }
  }
  return grad_in;
}

std::vector<ParamView> ConvLayer::params() {
  return {{weights_.data(), weight_grads_.data(), weights_.size(), "kernel"}};
}

std::unique_ptr<Layer> ConvLayer::clone() const { return std::make_unique<ConvLayer>(*this); }

}  // namespace snntest::snn
