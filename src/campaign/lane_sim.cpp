#include "campaign/lane_sim.hpp"

#include <cmath>

#include "obs/metrics.hpp"

namespace snntest::campaign {
namespace {

/// Does lane `lane` of a [T, n, lanes] train equal the golden [T, n] train?
/// Spike values are exact 0.0f / 1.0f on both sides, so float equality is
/// equivalent to the scalar path's memcmp.
bool lane_equals_golden(const float* train, size_t T, size_t n, size_t lanes, size_t lane,
                        const tensor::Tensor& golden) {
  const float* g = golden.data();
  for (size_t t = 0; t < T; ++t) {
    const float* f = train + t * n * lanes;
    const float* gr = g + t * n;
    for (size_t i = 0; i < n; ++i) {
      if (f[i * lanes + lane] != gr[i]) return false;
    }
  }
  return true;
}

/// In-place repack of [rows, lanes]-strided data dropping lanes with
/// keep == 0. Safe in place: the write index never overtakes the read index.
void compact_lane_rows(float* data, size_t rows, size_t lanes, const uint8_t* keep) {
  size_t w = 0;
  for (size_t r = 0; r < rows; ++r) {
    const float* src = data + r * lanes;
    for (size_t l = 0; l < lanes; ++l) {
      if (keep[l]) data[w++] = src[l];
    }
  }
}

template <typename T>
void compact_items(std::vector<T>& v, const uint8_t* keep, size_t lanes) {
  size_t w = 0;
  for (size_t l = 0; l < lanes; ++l) {
    if (keep[l]) v[w++] = v[l];
  }
  v.resize(w);
}

}  // namespace

void simulate_fault_batch(const snn::Network& net, const tensor::Tensor& stimulus,
                          const GoldenCache& cache, const EngineConfig& config,
                          const std::vector<fault::LayerWeightStats>& stats,
                          const std::vector<fault::FaultDescriptor>& faults,
                          const size_t* batch, size_t count,
                          std::vector<fault::DetectionResult>& results,
                          detail::SimCounters& counters, LaneSimContext& ctx) {
  const size_t L = cache.num_layers();
  const size_t k = fault_layer(faults[batch[0]]);
  const tensor::Tensor& start_input = k == 0 ? stimulus : cache.layer_output(k - 1);
  const size_t T = start_input.shape().dim(0);

  counters.lane_batches.fetch_add(1, std::memory_order_relaxed);
  counters.lane_batched_faults.fetch_add(count, std::memory_order_relaxed);

  ctx.lane_faults.resize(count);
  ctx.result_index.resize(count);
  for (size_t i = 0; i < count; ++i) {
    ctx.lane_faults[i] = fault::resolve_lane_fault(net, stats, faults[batch[i]]);
    ctx.result_index[i] = batch[i];
  }

  size_t lanes = count;
  int flip = 0;
  const bool obs_on = obs::telemetry_enabled();
  // Fault-free synaptic frames of layer k, cached when several batches
  // start there; otherwise step_shared computes each frame in place.
  const float* frames = cache.synaptic_frames(k);
  auto count_shared_steps = [&](size_t steps) {
    (frames ? counters.synaptic_frames_cached : counters.synaptic_frames_computed)
        .fetch_add(steps, std::memory_order_relaxed);
  };

  for (size_t l = k; l < L && lanes > 0; ++l) {
    const snn::Layer& layer = net.layer(l);
    const size_t n = layer.num_neurons();
    const size_t in_n = layer.num_inputs();
    const bool fault_here = l == k;
    const bool final_layer = l + 1 == L;
    ctx.run.reset(layer, lanes, fault_here ? ctx.lane_faults.data() : nullptr,
                  config.kernel_mode, fault_here ? frames : nullptr);
    counters.layer_forwards.fetch_add(lanes, std::memory_order_relaxed);
    std::vector<float>& in_buf = ctx.bufs[flip ^ 1];  // lane input train when !fault_here

    if (final_layer && config.detect_only) {
      // Frame-by-frame output comparison with mid-window retirement: once a
      // lane's accumulated L1 crosses the threshold the divergence is
      // decisive (later timesteps only grow it), which is exactly the
      // scalar fill_detect_only_result early exit — so the lane retires and
      // the remaining frames run narrower.
      ctx.frame.resize(n * lanes);
      ctx.l1_acc.assign(lanes, 0.0);
      const tensor::Tensor& golden = cache.output();
      size_t shared_steps = 0;
      for (size_t t = 0; t < T && lanes > 0; ++t) {
        if (fault_here) {
          ctx.run.step_shared(start_input.row(t), ctx.frame.data());
          ++shared_steps;
        } else {
          ctx.run.step_lanes(in_buf.data() + t * in_n * lanes, ctx.frame.data());
        }
        const float* g = golden.data() + t * n;
        ctx.keep.assign(lanes, 1);
        size_t kept = lanes;
        for (size_t lane = 0; lane < lanes; ++lane) {
          double acc = ctx.l1_acc[lane];
          for (size_t i = 0; i < n; ++i) {
            acc += std::abs(static_cast<double>(g[i]) - ctx.frame[i * lanes + lane]);
          }
          ctx.l1_acc[lane] = acc;
          if (acc > config.detection_threshold) {
            fault::DetectionResult& r = results[ctx.result_index[lane]];
            r.detected = true;
            r.output_l1 = acc;
            r.first_detection_frame = static_cast<int64_t>(t);
            if (obs_on) {
              static obs::Counter& early_exits =
                  obs::Registry::instance().counter("campaign/detect_only_early_exits");
              early_exits.add(1);
            }
            counters.lanes_retired_early.fetch_add(1, std::memory_order_relaxed);
            ctx.keep[lane] = 0;
            --kept;
          }
        }
        if (kept < lanes) {
          if (t + 1 < T && kept > 0) {
            ctx.run.compact(ctx.keep.data());
            if (!fault_here) {
              // Repack the future input frames to the new lane count. The
              // compacted frames land at their new-stride offsets, which
              // are strictly behind the old-stride read positions.
              size_t w = (t + 1) * in_n * kept;
              for (size_t tt = t + 1; tt < T; ++tt) {
                const float* src = in_buf.data() + tt * in_n * lanes;
                for (size_t c = 0; c < in_n; ++c) {
                  for (size_t lane = 0; lane < lanes; ++lane) {
                    if (ctx.keep[lane]) in_buf[w++] = src[c * lanes + lane];
                  }
                }
              }
            }
          }
          compact_items(ctx.result_index, ctx.keep.data(), lanes);
          compact_items(ctx.l1_acc, ctx.keep.data(), lanes);
          lanes = kept;
        }
      }
      if (fault_here) count_shared_steps(shared_steps);
      // Survivors never crossed the threshold: undetected, exact full L1.
      for (size_t lane = 0; lane < lanes; ++lane) {
        fault::DetectionResult& r = results[ctx.result_index[lane]];
        r.detected = false;
        r.output_l1 = ctx.l1_acc[lane];
        r.first_detection_frame = -1;
      }
      return;
    }

    std::vector<float>& out_buf = ctx.bufs[flip];
    out_buf.resize(T * n * lanes);
    for (size_t t = 0; t < T; ++t) {
      float* out = out_buf.data() + t * n * lanes;
      if (fault_here) {
        ctx.run.step_shared(start_input.row(t), out);
      } else {
        ctx.run.step_lanes(in_buf.data() + t * in_n * lanes, out);
      }
    }
    if (fault_here) count_shared_steps(T);

    if (config.convergence_pruning && !final_layer) {
      // A lane whose train re-converged onto the golden trajectory is done:
      // every downstream layer would be bit-identical too (same exact early
      // exit as the scalar path). The final layer needs no check — a
      // converged final train makes fill_full_result produce exactly
      // fill_converged_result's values.
      const tensor::Tensor& golden_l = cache.layer_output(l);
      ctx.keep.assign(lanes, 1);
      size_t kept = lanes;
      for (size_t lane = 0; lane < lanes; ++lane) {
        if (lane_equals_golden(out_buf.data(), T, n, lanes, lane, golden_l)) {
          detail::fill_converged_result(results[ctx.result_index[lane]], cache, config);
          counters.pruned.fetch_add(1, std::memory_order_relaxed);
          counters.lanes_retired_early.fetch_add(1, std::memory_order_relaxed);
          ctx.keep[lane] = 0;
          --kept;
        }
      }
      if (kept < lanes) {
        compact_lane_rows(out_buf.data(), T * n, lanes, ctx.keep.data());
        out_buf.resize(T * n * kept);
        compact_items(ctx.result_index, ctx.keep.data(), lanes);
        lanes = kept;
      }
    }
    flip ^= 1;
  }
  if (lanes == 0) return;

  // Full-result extraction: pull each surviving lane's [T, n] train out of
  // the lane-strided final buffer and fill exactly like the scalar path.
  const size_t out_n = net.layer(L - 1).num_neurons();
  const std::vector<float>& final_buf = ctx.bufs[flip ^ 1];
  for (size_t lane = 0; lane < lanes; ++lane) {
    ctx.slice.resize_zero(tensor::Shape{T, out_n});
    float* s = ctx.slice.data();
    for (size_t t = 0; t < T; ++t) {
      const float* f = final_buf.data() + t * out_n * lanes;
      for (size_t i = 0; i < out_n; ++i) s[t * out_n + i] = f[i * lanes + lane];
    }
    fault::DetectionResult& r = results[ctx.result_index[lane]];
    if (config.detect_only) {
      detail::fill_detect_only_result(r, ctx.slice, cache, config.detection_threshold);
    } else {
      detail::fill_full_result(r, ctx.slice, cache, config.detection_threshold);
    }
  }
}

}  // namespace snntest::campaign
