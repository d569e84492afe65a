#include "campaign/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "campaign/fingerprint.hpp"
#include "campaign/frontier_sim.hpp"
#include "campaign/golden_cache.hpp"
#include "campaign/lane_sim.hpp"
#include "campaign/sim_internal.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "snn/spike_train.hpp"
#include "tensor/simd.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace snntest::campaign {
namespace {

/// Per-worker scratch of the two fast routes, sized on first use and
/// reused for every item the worker claims.
struct WorkerContext {
  LaneSimContext lane;
  FrontierSimContext frontier;
  detail::SimCounters counters;
};

/// The naive reference walk that EngineConfig::prefix_reuse = false
/// selects: the fault written into a per-worker network clone, then every
/// layer from the stimulus, no pruning, one fault at a time.
struct ReferenceWalk {
  snn::Network net;
  fault::FaultInjector injector;

  ReferenceWalk(const snn::Network& reference, const std::vector<fault::LayerWeightStats>& stats,
                snn::KernelMode mode)
      : net(reference), injector(net, stats) {
    net.set_kernel_mode(mode);
  }

  void simulate(const fault::FaultDescriptor& f, const tensor::Tensor& stimulus,
                const GoldenCache& cache, const EngineConfig& config, fault::DetectionResult& r,
                detail::SimCounters& counters) {
    fault::ScopedFault scoped(injector, f);
    const auto fr = net.forward(stimulus);
    counters.layer_forwards += net.num_layers();
    if (config.detect_only) {
      detail::fill_detect_only_result(r, fr.output(), cache, config.detection_threshold);
    } else {
      detail::fill_full_result(r, fr.output(), cache, config.detection_threshold);
    }
  }
};

/// One dynamic-scheduler work unit: `count` pending fault indices starting
/// at `begin` in the batched order array, all confined to one layer.
struct WorkItem {
  size_t begin = 0;
  size_t count = 0;
};

/// Group the pending faults by fault layer and split each group of n faults
/// into ceil(n / lane_width) items of near-equal size (17 at width 8
/// becomes 6/6/5, not 8/8/1), preserving the campaign order within a group.
void build_worklist(const std::vector<fault::FaultDescriptor>& faults,
                    const std::vector<char>& have, size_t num_layers, size_t lane_width,
                    std::vector<size_t>& order, std::vector<WorkItem>& items) {
  std::vector<std::vector<size_t>> by_layer(num_layers);
  for (size_t j = 0; j < faults.size(); ++j) {
    if (!have[j]) by_layer[fault_layer(faults[j])].push_back(j);
  }
  for (const auto& group : by_layer) {
    const size_t n = group.size();
    if (n == 0) continue;
    const size_t batches = (n + lane_width - 1) / lane_width;
    size_t begin = 0;
    for (size_t b = 0; b < batches; ++b) {
      // The first n % batches batches take one fault more.
      const size_t count = n / batches + (b < n % batches ? 1 : 0);
      items.push_back({order.size(), count});
      order.insert(order.end(), group.begin() + begin, group.begin() + begin + count);
      begin += count;
    }
  }
}

}  // namespace

size_t CampaignResult::detected_count() const {
  size_t n = 0;
  for (const auto& r : results) n += r.detected;
  return n;
}

CampaignResult run_campaign(const snn::Network& net, const tensor::Tensor& stimulus,
                            const std::vector<fault::FaultDescriptor>& faults,
                            const EngineConfig& config) {
  return detail::run_campaign(net, stimulus, faults, config, detail::Route::kAuto);
}

CampaignResult detail::run_campaign(const snn::Network& net, const tensor::Tensor& stimulus,
                                    const std::vector<fault::FaultDescriptor>& faults,
                                    const EngineConfig& config, Route route) {
  OBS_SPAN("campaign/run");
  util::Timer timer;
  CampaignResult outcome;
  outcome.results.resize(faults.size());
  outcome.stats.faults_total = faults.size();
  // Clamp the requested lane width into the engine's supported range and
  // say so (once per process) instead of silently running narrower: a user
  // asking for 32 lanes should learn they got kMaxLaneWidth.
  const size_t lane_width = std::min(std::max<size_t>(config.lane_width, 1),
                                     snn::kMaxLaneWidth);
  if (lane_width != config.lane_width) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      SNNTEST_LOG_WARN("run_campaign: lane_width %zu out of range, clamped to %zu "
                       "(supported range is [1, %zu])",
                       config.lane_width, lane_width, snn::kMaxLaneWidth);
    }
  }
  outcome.stats.lane_width_effective = lane_width;
  if (faults.empty()) {
    outcome.stats.elapsed_seconds = timer.seconds();
    return outcome;
  }

  // A fault outside the network would index past the per-layer worklist
  // and the golden cache; reject it before any work starts.
  for (size_t j = 0; j < faults.size(); ++j) {
    const size_t l = fault_layer(faults[j]);
    if (l >= net.num_layers()) {
      throw std::out_of_range("run_campaign: fault " + std::to_string(j) + " targets layer " +
                              std::to_string(l) + " but num_layers is " +
                              std::to_string(net.num_layers()));
    }
  }

  const size_t L = net.num_layers();

  // --- result-cache reuse (coverage dictionary) ----------------------------
  // Pairs the cache already knows never reach the worklist, so a fully warm
  // campaign performs zero fault simulations (pairs_reused == faults_total).
  std::vector<char> have(faults.size(), 0);
  if (config.result_cache) {
    OBS_SPAN("campaign/result_cache_lookup");
    for (size_t j = 0; j < faults.size(); ++j) {
      if (config.result_cache(j, outcome.results[j])) {
        have[j] = 1;
        ++outcome.stats.pairs_reused;
      }
    }
  }

  // --- lane-batched worklist -----------------------------------------------
  // Same-layer faults share a golden prefix, so up to lane_width of them
  // ride one multi-lane forward (campaign/lane_sim.cpp); a lone fault is a
  // batch of one.
  std::vector<size_t> order;
  std::vector<WorkItem> items;
  build_worklist(faults, have, L, lane_width, order, items);

  const bool frontier_requested = config.frontier || route == Route::kFrontier;
  GoldenCacheOptions cache_options;
  cache_options.mode = config.kernel_mode;
  cache_options.state_traces = frontier_requested && config.prefix_reuse;
  cache_options.budget_bytes = config.golden_cache_budget_bytes;
  if (cache_options.state_traces) {
    // The frontier walk only reads state traces of layers at or downstream
    // of its fault layer; record from the campaign's shallowest fault down.
    size_t min_layer = SIZE_MAX;
    for (const auto& f : faults) min_layer = std::min(min_layer, fault_layer(f));
    cache_options.state_traces_from_layer = min_layer;
  }
  // Every item at a layer, a lane batch or a frontier walk, reads the same
  // fault-free synaptic frames, so a layer where two or more items start
  // gets them cached once. Both routes read golden sums at their fault
  // layer and downstream.
  if (config.prefix_reuse) {
    std::vector<size_t> batches_at(L, 0);
    for (const WorkItem& item : items) ++batches_at[fault_layer(faults[order[item.begin]])];
    for (size_t l = 0; l < L; ++l) {
      if (batches_at[l] >= 2) cache_options.synaptic_frame_layers.push_back(l);
      if (batches_at[l] >= 1) {
        cache_options.golden_sums_from_layer = std::min(cache_options.golden_sums_from_layer, l);
      }
    }
  }
  const GoldenCache cache = build_golden_cache(net, stimulus, cache_options);
  outcome.stats.golden_cache_bytes = cache.total_bytes;
  outcome.stats.golden_cache_layer_bytes = cache.layer_bytes;
  outcome.stats.golden_cache_state_traces = cache.has_state_traces;

  // Frontier simulation needs the golden prefix (the walk starts from it)
  // and the golden LIF state traces (dirty-neuron seeding/retirement).
  // Either missing falls back to the lane batches — results are
  // bit-identical either way, so this is a performance downgrade worth one
  // warning, not an error.
  bool frontier_ok = false;
  if (frontier_requested) {
    frontier_ok = config.prefix_reuse && cache.has_state_traces;
    if (!frontier_ok) {
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true)) {
        SNNTEST_LOG_WARN("run_campaign: frontier simulation requested but unavailable "
                         "(prefix_reuse=%d, state_traces=%d); running dense/lane kernels "
                         "instead",
                         config.prefix_reuse ? 1 : 0, cache.has_state_traces ? 1 : 0);
      }
    }
  }
  outcome.stats.frontier_active = frontier_ok;

  // --- dynamic-schedule simulation -----------------------------------------
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t requested = config.num_threads == 0 ? hw : config.num_threads;
  std::optional<util::ThreadPool> pool;
  if (requested > 1 && items.size() > 1) pool.emplace(requested);
  util::ThreadPool* pool_ptr = pool ? &*pool : nullptr;

  const size_t num_workers = util::dynamic_workers(pool_ptr);
  std::vector<std::unique_ptr<WorkerContext>> workers;
  std::vector<std::unique_ptr<ReferenceWalk>> reference;
  for (size_t w = 0; w < num_workers; ++w) {
    workers.push_back(std::make_unique<WorkerContext>());
    if (!config.prefix_reuse) {
      reference.push_back(std::make_unique<ReferenceWalk>(net, cache.stats, config.kernel_mode));
    }
  }

  // ~8 scheduler round-trips per worker balances the orders-of-magnitude
  // spread in per-item cost without hammering the shared counter.
  const size_t grain = std::clamp<size_t>(items.size() / (num_workers * 8), 1, 64);

  std::atomic<size_t> completed{outcome.stats.pairs_reused};
  std::atomic<bool> cancelled{false};
  std::mutex sink_mutex;  // serializes EngineConfig::result_sink calls

  // Frontier router (kFrontierCutoff, campaign/frontier_sim.hpp): per
  // fault layer, tally the walk's recomputed neuron-updates against the
  // dense equivalent over the probe batches; once a layer's observed
  // recompute fraction reaches the cutoff, its later batches run the lane
  // kernels instead (bit-identical, just cheaper there). Route::kFrontier
  // skips the router and walks every item.
  const bool adaptive = route == Route::kAuto;
  struct FrontierLayerPolicy {
    std::atomic<size_t> batches{0};
    std::atomic<size_t> updates{0};
    std::atomic<size_t> updates_dense{0};
  };
  std::vector<FrontierLayerPolicy> frontier_policy(frontier_ok ? L : 0);

  // Per-fault telemetry (sim-time and prefix-depth histograms, one span per
  // fault) is resolved once here and gated per fault on a single branch, so
  // the disabled path adds nothing measurable to the worker loop. None of
  // it feeds back into the simulation — campaign results stay bit-identical
  // with telemetry on or off (tests/test_obs.cpp).
  const bool obs_on = obs::telemetry_enabled();
  obs::Histogram& fault_sim_seconds = obs::Registry::instance().histogram(
      "campaign/fault_sim_seconds", obs::Histogram::exponential_bounds(1e-5, 4.0, 12));
  obs::Histogram& prefix_depth = obs::Registry::instance().histogram(
      "campaign/prefix_depth", obs::Histogram::linear_bounds(0.0, 15.0, 16));

  util::parallel_for_dynamic(pool_ptr, items.size(), grain, [&](size_t w, size_t i) {
    if (cancelled.load(std::memory_order_relaxed)) return;
    if (config.cancel && config.cancel()) {
      cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    const WorkItem item = items[i];
    const size_t* batch = order.data() + item.begin;
    auto run_item = [&] {
      if (!config.prefix_reuse) {
        for (size_t b = 0; b < item.count; ++b) {
          reference[w]->simulate(faults[batch[b]], stimulus, cache, config,
                                 outcome.results[batch[b]], workers[w]->counters);
        }
        return;
      }
      bool use_frontier = frontier_ok;
      if (use_frontier && adaptive) {
        FrontierLayerPolicy& p = frontier_policy[fault_layer(faults[batch[0]])];
        if (p.batches.load(std::memory_order_relaxed) >= kFrontierProbeBatches) {
          const auto dense = static_cast<double>(p.updates_dense.load(std::memory_order_relaxed));
          const double frac =
              dense > 0.0 ? static_cast<double>(p.updates.load(std::memory_order_relaxed)) / dense
                          : 0.0;
          use_frontier = frac < kFrontierCutoff;
        }
      }
      if (!use_frontier) {
        simulate_fault_batch(net, stimulus, cache, config, cache.stats, faults, batch, item.count,
                             outcome.results, workers[w]->counters, workers[w]->lane);
        return;
      }
      simulate_fault_frontier(net, stimulus, cache, config, cache.stats, faults, batch,
                              item.count, outcome.results, workers[w]->counters,
                              workers[w]->frontier);
      if (adaptive) {
        FrontierLayerPolicy& p = frontier_policy[fault_layer(faults[batch[0]])];
        p.updates.fetch_add(workers[w]->frontier.last_updates, std::memory_order_relaxed);
        p.updates_dense.fetch_add(workers[w]->frontier.last_updates_dense,
                                  std::memory_order_relaxed);
        p.batches.fetch_add(1, std::memory_order_relaxed);
      }
    };
    if (obs_on) {
      OBS_SPAN("campaign/fault_sim");
      const int64_t t0 = obs::trace_now_us();
      run_item();
      fault_sim_seconds.observe(static_cast<double>(obs::trace_now_us() - t0) * 1e-6);
      for (size_t b = 0; b < item.count; ++b) {
        prefix_depth.observe(
            static_cast<double>(config.prefix_reuse ? fault_layer(faults[batch[b]]) : 0));
      }
    } else {
      run_item();
    }
    workers[w]->counters.simulated += item.count;
    for (size_t b = 0; b < item.count; ++b) {
      const size_t j = batch[b];
      have[j] = 1;
      if (config.result_sink) {
        std::lock_guard<std::mutex> lock(sink_mutex);
        config.result_sink(j, outcome.results[j]);
      }
      const size_t done = completed.fetch_add(1, std::memory_order_relaxed) + 1;
      if (config.progress) config.progress(done, faults.size());
    }
  });

  for (char h : have) {
    if (!h) {
      outcome.completed = false;
      break;
    }
  }
  EngineStats& st = outcome.stats;
  for (const auto& worker : workers) {
    const detail::SimCounters& c = worker->counters;
    st.faults_simulated += c.simulated;
    st.faults_pruned += c.pruned;
    st.layer_forwards += c.layer_forwards;
    st.lane_batches += c.lane_batches;
    st.lane_batched_faults += c.lane_batched_faults;
    st.lanes_retired_early += c.lanes_retired_early;
    st.synaptic_frames_cached += c.synaptic_frames_cached;
    st.synaptic_frames_computed += c.synaptic_frames_computed;
    st.fault_rows_recomputed += c.fault_rows_recomputed;
    st.fault_rows_skipped += c.fault_rows_skipped;
    st.lane_synaptic_adds += c.lane_synaptic_adds;
    st.delta_rows_certified += c.delta_rows_certified;
    st.delta_rows_uncertified += c.delta_rows_uncertified;
    st.frontier_faults += c.frontier_faults;
    st.frontier_neuron_updates += c.frontier_neuron_updates;
    st.frontier_neuron_updates_dense += c.frontier_neuron_updates_dense;
    st.frontier_fallback_frames += c.frontier_fallback_frames;
  }
  st.layer_forwards_naive = st.faults_simulated * L;
  st.elapsed_seconds = timer.seconds();

  // Campaign-total metrics (coarse, unconditional). "Golden-cache hits" are
  // the layer forwards the naive all-layers path would have run but the
  // differential engine served from the cache (prefix reuse) or proved
  // unnecessary (convergence pruning); misses are the forwards executed.
  {
    obs::Registry& reg = obs::Registry::instance();
    const EngineStats& s = outcome.stats;
    reg.counter("campaign/faults_simulated").add(s.faults_simulated);
    reg.counter("campaign/pairs_reused").add(s.pairs_reused);
    reg.counter("campaign/faults_pruned").add(s.faults_pruned);
    reg.counter("campaign/golden_cache_misses").add(s.layer_forwards);
    reg.counter("campaign/golden_cache_hits")
        .add(s.layer_forwards_naive - std::min(s.layer_forwards, s.layer_forwards_naive));
    reg.gauge("campaign/golden_cache_hit_rate").set(s.forward_savings());
    reg.gauge("campaign/elapsed_seconds").set(s.elapsed_seconds);
    reg.counter("campaign/lane_batches").add(s.lane_batches);
    reg.counter("campaign/lane_retired_early").add(s.lanes_retired_early);
    if (s.lane_batches > 0) {
      reg.gauge("campaign/lane_occupancy")
          .set(static_cast<double>(s.lane_batched_faults) /
               static_cast<double>(s.lane_batches * lane_width));
    }
    reg.counter("campaign/frontier_faults").add(s.frontier_faults);
    reg.counter("campaign/frontier_fallback_frames").add(s.frontier_fallback_frames);
    reg.counter("campaign/frontier_neuron_updates").add(s.frontier_neuron_updates);
    if (s.frontier_neuron_updates_dense > 0) {
      reg.gauge("campaign/frontier_recompute_fraction")
          .set(static_cast<double>(s.frontier_neuron_updates) /
               static_cast<double>(s.frontier_neuron_updates_dense));
    }
    obs::set_report_field("campaign_frontier", s.frontier_active);
    obs::set_report_field("campaign_golden_cache_bytes",
                          static_cast<uint64_t>(s.golden_cache_bytes));
    {
      std::string per_layer;
      for (size_t l = 0; l < s.golden_cache_layer_bytes.size(); ++l) {
        if (l > 0) per_layer += ',';
        per_layer += std::to_string(s.golden_cache_layer_bytes[l]);
      }
      obs::set_report_field("campaign_golden_cache_layer_bytes", per_layer);
    }
    obs::set_report_field("campaign_lane_width_effective",
                          static_cast<uint64_t>(lane_width));
    if (obs_on) {
      // Hashes the whole fault list, so only when a report can be written.
      const uint64_t fingerprint = detection_settings_fingerprint(
          hash_fault_list(faults, cache.fingerprint), config.detection_threshold,
          config.detect_only);
      char fp[24];
      std::snprintf(fp, sizeof(fp), "%016llx", static_cast<unsigned long long>(fingerprint));
      obs::set_report_field("campaign_fingerprint", std::string(fp));
      obs::set_report_field("campaign_synaptic_frames_cached",
                            static_cast<uint64_t>(s.synaptic_frames_cached));
      obs::set_report_field("campaign_synaptic_frames_computed",
                            static_cast<uint64_t>(s.synaptic_frames_computed));
      obs::set_report_field("campaign_fault_rows_recomputed",
                            static_cast<uint64_t>(s.fault_rows_recomputed));
      obs::set_report_field("campaign_fault_rows_skipped",
                            static_cast<uint64_t>(s.fault_rows_skipped));
      obs::set_report_field("campaign_lane_synaptic_adds",
                            static_cast<uint64_t>(s.lane_synaptic_adds));
      obs::set_report_field("campaign_delta_rows_certified",
                            static_cast<uint64_t>(s.delta_rows_certified));
      obs::set_report_field("campaign_delta_rows_uncertified",
                            static_cast<uint64_t>(s.delta_rows_uncertified));
    }
    obs::set_report_field("simd_backend",
                          std::string(tensor::simd::backend_name(tensor::simd::active_backend())));
  }
  return outcome;
}

}  // namespace snntest::campaign
