#include "campaign/golden_cache.hpp"

#include <algorithm>
#include <atomic>

#include "campaign/fingerprint.hpp"
#include "obs/trace.hpp"
#include "snn/lane_network.hpp"
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

}  // namespace

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
  // the budget can only shed the synaptic frames and then the state traces
  // — fail-soft to in-place frames, then to prefix-only.
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
  for (const size_t l : options.synaptic_frame_layers) {
    if (l >= L || syn_bytes[l] != 0) continue;
    syn_bytes[l] = T * net.layer(l).num_neurons() * sizeof(float);
    syn_total += syn_bytes[l];
  }
  bool want_state = options.state_traces;
  bool want_syn = syn_total > 0;
  if (want_syn && options.budget_bytes > 0 &&
      train_total + (want_state ? state_total : 0) + syn_total > options.budget_bytes) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      SNNTEST_LOG_WARN("build_golden_cache: synaptic frames need %zu bytes, over "
                       "golden_cache_budget_bytes=%zu; lane batches compute them in place",
                       syn_total, options.budget_bytes);
    }
    want_syn = false;
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
  if (want_syn) cache.synaptic.resize(L);
  const tensor::Tensor* current = &stimulus;
  for (size_t l = 0; l < L; ++l) {
    if (want_syn && syn_bytes[l] > 0) {
      cache.synaptic[l] = synaptic_trace(golden.layer(l), *current, options.mode);
    }
    const bool record = want_state && l >= from;
    cache.forward.layer_outputs.push_back(golden.layer(l).forward(*current, record));
    current = &cache.forward.layer_outputs.back();
  }
  cache.output_counts = cache.forward.output_counts();
  cache.output_first_spike = cache.forward.output_first_spike_times();
  cache.stats = fault::compute_weight_stats(golden);
  cache.fingerprint =
      hash_stimulus(stimulus, hash_network_topology(net, util::kFnvOffsetBasis));
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
