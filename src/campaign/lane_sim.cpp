#include "campaign/lane_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/metrics.hpp"

namespace snntest::campaign {
namespace {

/// ORs, per lane l, the XOR of lane l's bit patterns in the lane-strided
/// frame `f` [n, lanes] with golden frame `g` [n] into diff[l]: nonzero
/// once the lane's train differs from golden (a bitwise comparison of the
/// trains). Branch-free integer work, so the lane loop vectorizes.
template <size_t LANES>
void or_frame_diff(const float* f, const float* g, size_t n, size_t lanes, uint32_t* diff) {
  const size_t width = LANES == 0 ? lanes : LANES;  // 0: run-time lane count
  for (size_t i = 0; i < n; ++i) {
    uint32_t gb;
    std::memcpy(&gb, g + i, sizeof(gb));
    const float* fi = f + i * width;
    for (size_t l = 0; l < width; ++l) {
      uint32_t fb;
      std::memcpy(&fb, fi + l, sizeof(fb));
      diff[l] |= fb ^ gb;
    }
  }
}

void or_frame_diff(const float* f, const float* g, size_t n, size_t lanes, uint32_t* diff) {
  switch (lanes) {
    case 8: return or_frame_diff<8>(f, g, n, lanes, diff);
    case 4: return or_frame_diff<4>(f, g, n, lanes, diff);
    default: return or_frame_diff<0>(f, g, n, lanes, diff);
  }
}

/// Lane `map[j]` of the [rows, stride]-strided frame `src`, for j < lanes,
/// as lane j of the dense [rows, lanes] frame `dst`.
void gather_lanes(const float* src, size_t rows, size_t stride, const uint8_t* map, size_t lanes,
                  float* dst) {
  for (size_t r = 0; r < rows; ++r) {
    const float* s = src + r * stride;
    float* d = dst + r * lanes;
    for (size_t j = 0; j < lanes; ++j) d[j] = s[map[j]];
  }
}

/// Keep the entries of `v` whose keep flag is set, in order.
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

  ++counters.lane_batches;
  counters.lane_batched_faults += count;

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
  // start there (for a conv layer with golden sums, as their casts, which
  // step_shared takes); otherwise step_shared computes each frame in place.
  const float* frames = cache.synaptic_frames(k);
  auto count_shared_steps = [&](size_t steps) {
    (frames || cache.conv_sums(k) ? counters.synaptic_frames_cached
                                  : counters.synaptic_frames_computed) += steps;
    counters.fault_rows_recomputed += ctx.run.fault_rows_recomputed();
    counters.fault_rows_skipped += ctx.run.fault_rows_skipped();
  };
  auto count_delta_work = [&] {
    counters.lane_synaptic_adds += ctx.run.lane_synaptic_adds();
    counters.delta_rows_certified += ctx.run.delta_rows_certified();
    counters.delta_rows_uncertified += ctx.run.delta_rows_uncertified();
  };
  // The input train of a downstream layer is the previous layer's output
  // buffer, strided by `in_stride` lanes. Retired lanes are never repacked
  // out of it: lane j of the current run reads its lane in_map[j], and a
  // frame is gathered into ctx.frame_in only when that map is not the
  // identity.
  size_t in_stride = lanes;
  uint8_t in_map[snn::kMaxLaneWidth];
  for (size_t lane = 0; lane < lanes; ++lane) in_map[lane] = static_cast<uint8_t>(lane);
  auto input_frame = [&](const std::vector<float>& in_buf, size_t in_n, size_t t) {
    const float* src = in_buf.data() + t * in_n * in_stride;
    if (lanes == in_stride) return src;  // no lane retired since the buffer was written
    ctx.frame_in.resize(in_n * lanes);
    gather_lanes(src, in_n, in_stride, in_map, lanes, ctx.frame_in.data());
    return static_cast<const float*>(ctx.frame_in.data());
  };
  auto retire = [&](size_t kept) {
    size_t j = 0;
    for (size_t lane = 0; lane < lanes; ++lane) {
      if (ctx.keep[lane]) in_map[j++] = in_map[lane];
    }
    compact_items(ctx.result_index, ctx.keep.data(), lanes);
    lanes = kept;
  };

  for (size_t l = k; l < L && lanes > 0; ++l) {
    const snn::Layer& layer = net.layer(l);
    const size_t n = layer.num_neurons();
    const size_t in_n = layer.num_inputs();
    const bool fault_here = l == k;
    const bool final_layer = l + 1 == L;
    // Golden-plus-delta operands of a dense, recurrent or conv layer, when
    // the golden cache kept its sums.
    const snn::LaneDelta delta = cache.lane_delta(l, stimulus);
    ctx.run.reset(layer, lanes, fault_here ? ctx.lane_faults.data() : nullptr,
                  config.kernel_mode, fault_here ? frames : nullptr, &delta);
    counters.layer_forwards += lanes;
    const std::vector<float>& in_buf = ctx.bufs[flip ^ 1];  // lane input train when !fault_here

    if (final_layer && config.detect_only) {
      // Frame-by-frame output comparison with mid-window retirement: once a
      // lane's accumulated L1 crosses the threshold the divergence is
      // decisive (later timesteps only grow it), which is exactly the
      // fill_detect_only_result early exit — so the lane retires and the
      // remaining frames run narrower.
      ctx.frame.resize(n * lanes);
      ctx.l1_acc.assign(lanes, 0.0);
      const tensor::Tensor& golden = cache.output();
      size_t shared_steps = 0;
      for (size_t t = 0; t < T && lanes > 0; ++t) {
        if (fault_here) {
          ctx.run.step_shared(start_input.row(t), ctx.frame.data());
          ++shared_steps;
        } else {
          ctx.run.step_lanes(input_frame(in_buf, in_n, t), ctx.frame.data());
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
            ++counters.lanes_retired_early;
            ctx.keep[lane] = 0;
            --kept;
          }
        }
        if (kept < lanes) {
          if (t + 1 < T && kept > 0) ctx.run.compact(ctx.keep.data());
          compact_items(ctx.l1_acc, ctx.keep.data(), lanes);
          retire(kept);
        }
      }
      if (fault_here) count_shared_steps(shared_steps);
      count_delta_work();
      // Survivors never crossed the threshold: undetected, exact full L1.
      for (size_t lane = 0; lane < lanes; ++lane) {
        fault::DetectionResult& r = results[ctx.result_index[lane]];
        r.detected = false;
        r.output_l1 = ctx.l1_acc[lane];
        r.first_detection_frame = -1;
      }
      return;
    }

    // A lane whose train re-converged onto the golden trajectory is done:
    // every downstream layer would be bit-identical too, so the naive walk's
    // result is already known. The final layer needs no check — a
    // converged final train makes fill_full_result produce exactly
    // fill_converged_result's values. The check ORs each frame into a
    // per-lane difference while the frame is hot, and stops once every
    // lane differs.
    const bool check = config.convergence_pruning && !final_layer;
    uint32_t diff[snn::kMaxLaneWidth] = {};
    bool all_differ = !check;
    const float* golden_l = cache.layer_output(l).data();
    std::vector<float>& out_buf = ctx.bufs[flip];
    out_buf.resize(T * n * lanes);
    for (size_t t = 0; t < T; ++t) {
      float* out = out_buf.data() + t * n * lanes;
      if (fault_here) {
        ctx.run.step_shared(start_input.row(t), out);
      } else {
        ctx.run.step_lanes(input_frame(in_buf, in_n, t), out);
      }
      if (!all_differ) {
        or_frame_diff(out, golden_l + t * n, n, lanes, diff);
        all_differ = std::all_of(diff, diff + lanes, [](uint32_t d) { return d != 0; });
      }
    }
    if (fault_here) count_shared_steps(T);
    count_delta_work();
    // The next layer reads this buffer at its own stride.
    in_stride = lanes;
    for (size_t lane = 0; lane < lanes; ++lane) in_map[lane] = static_cast<uint8_t>(lane);

    if (!all_differ) {
      ctx.keep.assign(lanes, 1);
      size_t kept = lanes;
      for (size_t lane = 0; lane < lanes; ++lane) {
        if (diff[lane] != 0) continue;
        detail::fill_converged_result(results[ctx.result_index[lane]], cache, config);
        ++counters.pruned;
        ++counters.lanes_retired_early;
        ctx.keep[lane] = 0;
        --kept;
      }
      if (kept < lanes) retire(kept);
    }
    flip ^= 1;
  }
  if (lanes == 0) return;

  // Full-result extraction: pull each surviving lane's [T, n] train out of
  // the lane-strided final buffer and fill exactly like the reference walk.
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
