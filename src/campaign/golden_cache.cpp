#include "campaign/golden_cache.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "campaign/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "snn/dense_layer.hpp"
#include "snn/lane_network.hpp"
#include "snn/recurrent_layer.hpp"
#include "tensor/ops.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace snntest::campaign {

namespace {

/// Reconstruct the exact post-step LIF state of one (fault-free) layer from
/// its recorded forward traces. For kNormal neurons LifBank::step implies:
///   integrated & spiked   -> u = reset, refrac = refractory_i
///   integrated & no spike -> u = u_pre, refrac = 0
///   not integrated        -> u = reset, refrac = refrac_prev - 1
/// u_pre is stored verbatim from the live membrane variable, so the derived
/// values match the in-flight state bit-for-bit.
GoldenLayerState derive_layer_state(const snn::LifBank& bank, size_t num_steps) {
  const size_t n = bank.size();
  const float reset = bank.defaults().reset_potential;
  const std::vector<float>& u_pre = bank.trace_u_pre();
  const std::vector<uint8_t>& spike = bank.trace_spikes();
  const std::vector<uint8_t>& integ = bank.trace_integrated();
  GoldenLayerState st;
  st.u_post.resize(num_steps * n);
  st.refrac.resize(num_steps * n);
  std::vector<int32_t> carry(n, 0);  // refrac entering frame t
  for (size_t t = 0; t < num_steps; ++t) {
    const size_t base = t * n;
    for (size_t i = 0; i < n; ++i) {
      const size_t idx = base + i;
      if (integ[idx]) {
        if (spike[idx]) {
          st.u_post[idx] = reset;
          carry[i] = bank.refractories()[i];
        } else {
          st.u_post[idx] = u_pre[idx];
          carry[i] = 0;
        }
      } else {
        st.u_post[idx] = reset;
        carry[i] = carry[i] - 1;
      }
      st.refrac[idx] = carry[i];
    }
  }
  return st;
}

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
                          bool record_traces, GoldenSums& gs, tensor::Tensor& out) {
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
  lif.begin_run(T, record_traces);
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

snn::LaneDelta GoldenCache::lane_delta(size_t l, const tensor::Tensor& stimulus) const {
  snn::LaneDelta d;
  if (l >= sums.size() || sums[l].w_sums.empty()) return d;
  const GoldenSums& gs = sums[l];
  d.w.sums = gs.w_sums.data();
  d.w.golden_in = (l == 0 ? stimulus : layer_output(l - 1)).data();
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
  GoldenCache cache;
  const size_t T = stimulus.shape().dim(0);
  const size_t L = net.num_layers();

  // Byte accounting is decided BEFORE the pass: the spike trains are
  // irreducible (prefix reuse and the detection comparison need them), so
  // the budget can only shed the synaptic frames with the golden sums and
  // then the state traces — fail-soft to in-place frames and ordered lane
  // sums, then to prefix-only.
  const size_t from = std::min(options.state_traces_from_layer, L);
  std::vector<size_t> train_bytes(L, 0);
  std::vector<size_t> state_bytes(L, 0);
  std::vector<size_t> syn_bytes(L, 0);
  size_t train_total = 0;
  size_t state_total = 0;
  size_t syn_total = 0;
  for (size_t l = 0; l < L; ++l) {
    const size_t n = net.layer(l).num_neurons();
    train_bytes[l] = T * n * sizeof(float);
    if (l >= from) state_bytes[l] = T * n * (sizeof(float) + sizeof(int32_t));
    train_total += train_bytes[l];
    state_total += state_bytes[l];
  }
  std::vector<GoldenSums> sums(L);
  for (size_t l = options.golden_sums_from_layer; l < L; ++l) {
    if (!is_dense_or_recurrent(net.layer(l))) continue;
    sums[l] = prepare_sums(net.layer(l), T);
    syn_bytes[l] += sums[l].bytes();
    syn_total += sums[l].bytes();
  }
  std::vector<char> want_frames(L, 0);
  for (const size_t l : options.synaptic_frame_layers) {
    if (l >= L || want_frames[l]) continue;
    want_frames[l] = 1;
    syn_bytes[l] += T * net.layer(l).num_neurons() * sizeof(float);
    syn_total += T * net.layer(l).num_neurons() * sizeof(float);
  }
  bool want_state = options.state_traces;
  bool want_syn = syn_total > 0;
  if (want_syn && options.budget_bytes > 0 &&
      train_total + (want_state ? state_total : 0) + syn_total > options.budget_bytes) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      SNNTEST_LOG_WARN("build_golden_cache: synaptic frames and golden sums need %zu bytes, "
                       "over golden_cache_budget_bytes=%zu; lane batches compute frames in "
                       "place and take ordered sums, as the frontier walk does",
                       syn_total, options.budget_bytes);
    }
    want_syn = false;
    sums.assign(L, GoldenSums{});
  }
  if (want_state && options.budget_bytes > 0 &&
      train_total + state_total > options.budget_bytes) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      SNNTEST_LOG_WARN("build_golden_cache: state traces need %zu bytes on top of %zu train "
                       "bytes, over golden_cache_budget_bytes=%zu; falling back to "
                       "prefix-only caching (frontier simulation disabled)",
                       state_total, train_total, options.budget_bytes);
    }
    want_state = false;
  }

  snn::Network golden(net);
  golden.set_kernel_mode(options.mode);
  // Layer-by-layer so trace recording starts at `from`: layers above the
  // shallowest fault pay neither the recording cost nor the memory.
  cache.forward.layer_outputs.reserve(L);
  if (want_syn) {
    cache.synaptic.resize(L);
    cache.sums.resize(L);
  }
  const tensor::Tensor* current = &stimulus;
  for (size_t l = 0; l < L; ++l) {
    const bool record = want_state && l >= from;
    snn::Layer& layer = golden.layer(l);
    if (want_syn && !sums[l].w_sums.empty()) {
      GoldenSums& gs = cache.sums[l];
      gs = std::move(sums[l]);
      cache.forward.layer_outputs.emplace_back();
      forward_keeping_sums(layer, *current, options.mode, record, gs,
                           cache.forward.layer_outputs.back());
      if (want_frames[l]) {
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
      cache.forward.layer_outputs.push_back(layer.forward(*current, record));
    }
    current = &cache.forward.layer_outputs.back();
  }
  cache.output_counts = cache.forward.output_counts();
  cache.output_first_spike = cache.forward.output_first_spike_times();
  cache.stats = fault::compute_weight_stats(golden);
  cache.fingerprint =
      hash_stimulus(stimulus, hash_network_topology(net, util::kFnvOffsetBasis));
  cache.stimulus_binary = binary_frames(stimulus);
  cache.layer_bytes = train_bytes;
  cache.total_bytes = train_total;
  if (want_syn) {
    for (size_t l = 0; l < L; ++l) cache.layer_bytes[l] += syn_bytes[l];
    cache.total_bytes += syn_total;
  }
  if (want_state) {
    cache.state.resize(L);
    for (size_t l = from; l < L; ++l) {
      cache.state[l] = derive_layer_state(golden.layer(l).lif(), T);
      cache.layer_bytes[l] += state_bytes[l];
    }
    cache.total_bytes += state_total;
    cache.has_state_traces = true;
    cache.state_traces_from_layer = from;
  }
  return cache;
}

}  // namespace snntest::campaign
