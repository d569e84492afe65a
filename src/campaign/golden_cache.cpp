#include "campaign/golden_cache.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "snn/conv_layer.hpp"
#include "snn/dense_layer.hpp"
#include "snn/lane_network.hpp"
#include "snn/recurrent_layer.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "util/logging.hpp"

namespace snntest::campaign {

namespace {

/// Fault-free synaptic frames of `layer` over its golden input train
/// [T, num_inputs]: one snn::shared_synaptic_frame per frame, time-major.
std::vector<float> synaptic_trace(const snn::Layer& layer, const tensor::Tensor& input,
                                  snn::KernelMode mode) {
  const size_t T = input.shape().dim(0);
  const size_t n = layer.num_neurons();
  std::vector<float> frames(T * n);
  std::vector<uint32_t> active;
  for (size_t t = 0; t < T; ++t) {
    snn::shared_synaptic_frame(layer, input.row(t), mode, active, frames.data() + t * n);
  }
  return frames;
}

bool is_dense_or_recurrent(const snn::Layer& layer) {
  return layer.kind() == snn::LayerKind::kDense || layer.kind() == snn::LayerKind::kRecurrent;
}

/// Column-major copy of a row-major [rows, cols] matrix, and the rows that
/// fail the exactness certificate.
void certify(const float* w, size_t rows, size_t cols, std::vector<float>& wt,
             std::vector<uint32_t>& uncertified) {
  tensor::transpose(w, rows, cols, wt);
  for (size_t r = 0; r < rows; ++r) {
    if (!snn::row_sum_exact(snn::row_bound(w + r * cols, cols))) {
      uncertified.push_back(static_cast<uint32_t>(r));
    }
  }
}

/// The weights, their certificates and the sum shapes of one dense or
/// recurrent layer; the sums themselves are filled by forward_keeping_sums.
GoldenSums prepare_sums(const snn::Layer& layer, size_t T) {
  GoldenSums gs;
  const size_t n = layer.num_neurons();
  if (layer.kind() == snn::LayerKind::kRecurrent) {
    const auto& rec = static_cast<const snn::RecurrentLayer&>(layer);
    certify(rec.weights().data(), n, layer.num_inputs(), gs.wt, gs.w_uncertified);
    certify(rec.recurrent_weights().data(), n, n, gs.vt, gs.v_uncertified);
    gs.v_sums.assign(T * n, 0.0);
  } else {
    certify(static_cast<const snn::DenseLayer&>(layer).weights().data(), n, layer.num_inputs(),
            gs.wt, gs.w_uncertified);
  }
  gs.w_sums.resize(T * n);
  return gs;
}

/// The golden forward of a dense or recurrent layer that keeps its double
/// synaptic sums: per frame the sums the layer's own kernels round
/// (tensor::matvec_sums / matvec_gather_sums, dense or sparse picked as
/// the layer picks them, with the same kernel telemetry), then the layer's
/// LIF bank steps on 0.0f + float(W·x) [+ float(V·prev)] — the layer
/// forward's syn frame, cast point for cast point.
void forward_keeping_sums(snn::Layer& layer, const tensor::Tensor& in, snn::KernelMode mode,
                          GoldenSums& gs, tensor::Tensor& out) {
  const size_t T = in.shape().dim(0);
  const size_t n = layer.num_neurons();
  const size_t cols = layer.num_inputs();
  const bool recurrent = layer.kind() == snn::LayerKind::kRecurrent;
  const float* w = recurrent ? static_cast<const snn::RecurrentLayer&>(layer).weights().data()
                             : static_cast<const snn::DenseLayer&>(layer).weights().data();
  const float* v =
      recurrent ? static_cast<const snn::RecurrentLayer&>(layer).recurrent_weights().data()
                : nullptr;
  const bool obs_on = obs::telemetry_enabled();
  obs::KernelDispatchObs kernel_obs;
  if (obs_on) kernel_obs.ensure_bound(layer.name());
  std::vector<uint32_t> active;
  auto sums = [&](const float* m, size_t m_cols, const float* x, double* dst) {
    if (mode == snn::KernelMode::kDense) {
      tensor::matvec_sums(m, n, m_cols, x, dst);
      if (obs_on) kernel_obs.record_dense_frame();
      return;
    }
    const size_t na = tensor::extract_active(x, m_cols, active);
    const bool sparse = mode == snn::KernelMode::kSparse || snn::sparse_frame_wins(na, m_cols);
    if (obs_on) kernel_obs.record_frame(na, m_cols, sparse);
    if (sparse) {
      tensor::matvec_gather_sums(m, n, m_cols, x, active.data(), na, dst);
    } else {
      tensor::matvec_sums(m, n, m_cols, x, dst);
    }
  };
  out.resize_zero(tensor::Shape{T, n});
  snn::LifBank& lif = layer.lif();
  lif.begin_run(T, /*record_traces=*/false);
  std::vector<float> syn(n);
  for (size_t t = 0; t < T; ++t) {
    double* ws = gs.w_sums.data() + t * n;
    sums(w, cols, in.row(t), ws);
    for (size_t r = 0; r < n; ++r) {
      syn[r] = 0.0f;
      syn[r] += static_cast<float>(ws[r]);
    }
    if (recurrent && t > 0) {
      double* vs = gs.v_sums.data() + t * n;
      sums(v, n, out.row(t - 1), vs);
      for (size_t r = 0; r < n; ++r) syn[r] += static_cast<float>(vs[r]);
    }
    lif.step(syn.data(), out.row(t));
  }
}

/// The certificate of every output channel of `conv` over its whole kernel
/// (every in-channel and tap) and, when all pass, the kernel packed
/// [ic][ky][kx][oc] as double and the shape of the sums
/// forward_keeping_conv_sums fills. A border pixel sums a subset of its
/// channel's taps, so the channel's certificate covers every pixel.
GoldenSums prepare_conv_sums(const snn::ConvLayer& conv, size_t T) {
  GoldenSums gs;
  gs.conv = true;
  const snn::Conv2dSpec& s = conv.spec();
  const size_t taps = s.in_channels * s.kernel * s.kernel;
  const float* w = conv.weights().data();
  for (size_t oc = 0; oc < s.out_channels; ++oc) {
    if (!snn::row_sum_exact(snn::row_bound(w + oc * taps, taps))) {
      gs.w_uncertified.push_back(static_cast<uint32_t>(oc));
    }
  }
  if (!gs.w_uncertified.empty()) return gs;  // the layer keeps its ordered kernels
  gs.conv_packed.resize(taps * s.out_channels);
  for (size_t oc = 0; oc < s.out_channels; ++oc) {
    for (size_t t = 0; t < taps; ++t) gs.conv_packed[t * s.out_channels + oc] = w[oc * taps + t];
  }
  gs.w_sums.resize(T * conv.num_neurons());
  return gs;
}

/// The golden forward of a conv layer that keeps its double sums: per
/// frame the conv scatter kernel over the frame's active pixels (bit-
/// identical to the dense kernel, DESIGN.md §9) accumulates into the
/// cache's channel-last row and narrows into the synaptic frame, and the
/// layer's LIF bank steps on it — ConvLayer::forward_into's frame, which
/// the golden network runs without a connection override.
void forward_keeping_conv_sums(snn::ConvLayer& conv, const tensor::Tensor& in, GoldenSums& gs,
                               tensor::Tensor& out) {
  const size_t T = in.shape().dim(0);
  const size_t n = conv.num_neurons();
  const tensor::simd::ConvLaneGeom geom = conv.spec().geom();
  const tensor::simd::LaneKernels& ops = tensor::simd::lane_ops();
  const bool obs_on = obs::telemetry_enabled();
  obs::KernelDispatchObs kernel_obs;
  if (obs_on) kernel_obs.ensure_bound(conv.name());
  out.resize_zero(tensor::Shape{T, n});
  snn::LifBank& lif = conv.lif();
  lif.begin_run(T, /*record_traces=*/false);
  std::vector<float> syn(n);
  std::vector<uint32_t> active;
  for (size_t t = 0; t < T; ++t) {
    const size_t na = tensor::extract_active(in.row(t), geom.input_size(), active);
    if (obs_on) kernel_obs.record_frame(na, geom.input_size(), /*used_sparse=*/true);
    ops.conv_frame_scatter(geom, gs.conv_packed.data(), in.row(t), active.data(), na,
                           gs.w_sums.data() + t * n, syn.data());
    lif.step(syn.data(), out.row(t));
  }
}

/// Every stimulus value is +/-0.0f or 1.0f.
bool binary_frames(const tensor::Tensor& x) {
  for (size_t i = 0; i < x.numel(); ++i) {
    uint32_t b;
    std::memcpy(&b, x.data() + i, sizeof(b));
    if ((b & 0x7fffffffu) != 0 && b != 0x3f800000u) return false;
  }
  return true;
}

}  // namespace

void check_stimulus_shape(const snn::Network& net, const tensor::Tensor& stimulus) {
  const size_t cols = net.num_layers() == 0 ? 0 : net.layer(0).num_inputs();
  if (stimulus.shape().rank() != 2 || stimulus.shape().dim(1) != cols) {
    throw std::invalid_argument("stimulus: expected [T, " + std::to_string(cols) + "], got " +
                                stimulus.shape().to_string());
  }
}

snn::LaneDelta GoldenCache::lane_delta(size_t l, const tensor::Tensor& stimulus) const {
  snn::LaneDelta d;
  if (l >= sums.size()) return d;
  const GoldenSums& gs = sums[l];
  const float* golden_in = (l == 0 ? stimulus : layer_output(l - 1)).data();
  if (gs.conv) {
    d.conv.golden_in = golden_in;
    if (!gs.w_sums.empty()) {
      d.conv.sums = gs.w_sums.data();
      d.conv.packed = gs.conv_packed.data();
    }
    return d;
  }
  if (gs.w_sums.empty()) return d;
  d.w.sums = gs.w_sums.data();
  d.w.golden_in = golden_in;
  d.w.wt = gs.wt.data();
  d.w.uncertified = gs.w_uncertified.data();
  d.w.num_uncertified = gs.w_uncertified.size();
  if (!gs.v_sums.empty()) {
    d.v.sums = gs.v_sums.data();
    d.v.golden_in = layer_output(l).data();
    d.v.wt = gs.vt.data();
    d.v.uncertified = gs.v_uncertified.data();
    d.v.num_uncertified = gs.v_uncertified.size();
  }
  d.binary_input = l > 0 || stimulus_binary;
  return d;
}

GoldenCache build_golden_cache(const snn::Network& net, const tensor::Tensor& stimulus,
                               snn::KernelMode mode) {
  GoldenCacheOptions options;
  options.mode = mode;
  return build_golden_cache(net, stimulus, options);
}

GoldenCache build_golden_cache(const snn::Network& net, const tensor::Tensor& stimulus,
                               const GoldenCacheOptions& options) {
  OBS_SPAN("campaign/golden_pass");
  check_stimulus_shape(net, stimulus);
  GoldenCache cache;
  const size_t T = stimulus.shape().dim(0);
  const size_t L = net.num_layers();

  // Byte accounting is decided BEFORE the pass: the spike trains are
  // irreducible (prefix reuse and the detection comparison need them), so
  // the budget can only shed the synaptic frames with the golden sums —
  // fail-soft to in-place frames and ordered lane sums.
  std::vector<size_t> train_bytes(L, 0);
  std::vector<size_t> syn_bytes(L, 0);
  size_t train_total = 0;
  size_t syn_total = 0;
  for (size_t l = 0; l < L; ++l) {
    train_bytes[l] = T * net.layer(l).num_neurons() * sizeof(float);
    train_total += train_bytes[l];
  }
  std::vector<GoldenSums> sums(L);
  for (size_t l = options.golden_sums_from_layer; l < L; ++l) {
    const snn::Layer& layer = net.layer(l);
    if (is_dense_or_recurrent(layer)) {
      sums[l] = prepare_sums(layer, T);
    } else if (layer.kind() == snn::LayerKind::kConv2d && l > options.golden_sums_from_layer) {
      sums[l] = prepare_conv_sums(static_cast<const snn::ConvLayer&>(layer), T);
    } else {
      continue;
    }
    syn_bytes[l] += sums[l].bytes();
    syn_total += sums[l].bytes();
  }
  std::vector<char> want_frames(L, 0);
  for (const size_t l : options.synaptic_frame_layers) {
    if (l >= L || want_frames[l]) continue;
    want_frames[l] = 1;
    // A conv layer's golden sums stand in for its float frames.
    if (sums[l].conv && !sums[l].w_sums.empty()) continue;
    syn_bytes[l] += T * net.layer(l).num_neurons() * sizeof(float);
    syn_total += T * net.layer(l).num_neurons() * sizeof(float);
  }
  bool want_syn = syn_total > 0;
  if (want_syn && options.budget_bytes > 0 && train_total + syn_total > options.budget_bytes) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      SNNTEST_LOG_WARN("build_golden_cache: synaptic frames and golden sums need %zu bytes, "
                       "over golden_cache_budget_bytes=%zu; lane batches compute frames in "
                       "place and take ordered sums",
                       syn_total, options.budget_bytes);
    }
    want_syn = false;
    sums.assign(L, GoldenSums{});
  }

  snn::Network golden(net);
  golden.set_kernel_mode(options.mode);
  // Layer by layer, so a layer that keeps golden sums takes them from its
  // own pass.
  cache.forward.layer_outputs.reserve(L);
  if (want_syn) {
    cache.synaptic.resize(L);
    cache.sums.resize(L);
  }
  const tensor::Tensor* current = &stimulus;
  for (size_t l = 0; l < L; ++l) {
    snn::Layer& layer = golden.layer(l);
    if (want_syn && !sums[l].w_sums.empty()) {
      GoldenSums& gs = cache.sums[l];
      gs = std::move(sums[l]);
      cache.forward.layer_outputs.emplace_back();
      if (gs.conv) {
        forward_keeping_conv_sums(static_cast<snn::ConvLayer&>(layer), *current, gs,
                                  cache.forward.layer_outputs.back());
      } else {
        forward_keeping_sums(layer, *current, options.mode, gs,
                             cache.forward.layer_outputs.back());
      }
      if (want_frames[l] && !gs.conv) {
        // The layer forward's W·x frame: 0.0f + float(sum), and an ordered
        // sum from +0.0 is never -0.0, so the plain cast.
        cache.synaptic[l].resize(gs.w_sums.size());
        for (size_t i = 0; i < gs.w_sums.size(); ++i) {
          cache.synaptic[l][i] = static_cast<float>(gs.w_sums[i]);
        }
      }
    } else {
      if (want_syn && want_frames[l]) {
        cache.synaptic[l] = synaptic_trace(layer, *current, options.mode);
      }
      // A conv layer with an uncertified channel keeps that list, which
      // tells the lane route its rows take the ordered kernels.
      if (want_syn && sums[l].conv) cache.sums[l] = std::move(sums[l]);
      cache.forward.layer_outputs.push_back(layer.forward(*current, /*record_traces=*/false));
    }
    current = &cache.forward.layer_outputs.back();
  }
  cache.output_counts = cache.forward.output_counts();
  cache.output_first_spike = cache.forward.output_first_spike_times();
  cache.stats = fault::compute_weight_stats(golden);
  cache.stimulus_binary = binary_frames(stimulus);
  cache.layer_bytes = train_bytes;
  cache.total_bytes = train_total;
  if (want_syn) {
    for (size_t l = 0; l < L; ++l) cache.layer_bytes[l] += syn_bytes[l];
    cache.total_bytes += syn_total;
  }
  return cache;
}

}  // namespace snntest::campaign
