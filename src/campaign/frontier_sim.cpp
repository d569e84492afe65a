#include "campaign/frontier_sim.hpp"

#include <bit>
#include <cstring>

#include "obs/metrics.hpp"
#include "snn/conv_layer.hpp"
#include "snn/dense_layer.hpp"
#include "snn/neuron.hpp"
#include "snn/pool_layer.hpp"
#include "snn/recurrent_layer.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

namespace snntest::campaign {
namespace {

static_assert(snn::kMaxLaneWidth <= 16, "union_mask packs lane membership into uint16_t");

/// Lane-strided dense frame kernel over `lanes` interleaved frames — the
/// exact per-layer dispatch of snn::LaneLayerRun::synaptic_lanes' dense
/// mode, so each lane's column of syn_lanes is bit-identical to
/// Layer::frontier_synapse_frame on that lane's frames (the lane kernels'
/// per-lane ordered-double-sum contract, tensor/simd.hpp).
void synapse_frame_lanes(const snn::Layer& layer, const float* in_lanes,
                         const float* prev_lanes, size_t lanes, float* syn_lanes) {
  const size_t n = layer.num_neurons();
  const size_t ni = layer.num_inputs();
  switch (layer.kind()) {
    case snn::LayerKind::kDense:
      std::fill(syn_lanes, syn_lanes + n * lanes, 0.0f);
      tensor::matvec_accumulate_lanes(static_cast<const snn::DenseLayer&>(layer).weights().data(),
                                      n, ni, in_lanes, lanes, syn_lanes);
      break;
    case snn::LayerKind::kRecurrent: {
      const auto& rec = static_cast<const snn::RecurrentLayer&>(layer);
      std::fill(syn_lanes, syn_lanes + n * lanes, 0.0f);
      tensor::matvec_accumulate_lanes(rec.weights().data(), n, ni, in_lanes, lanes, syn_lanes);
      if (prev_lanes != nullptr) {
        tensor::matvec_accumulate_lanes(rec.recurrent_weights().data(), n, n, prev_lanes, lanes,
                                        syn_lanes);
      }
      break;
    }
    case snn::LayerKind::kConv2d: {
      const snn::Conv2dSpec& s = static_cast<const snn::ConvLayer&>(layer).spec();
      tensor::simd::ConvLaneGeom g;
      g.in_channels = s.in_channels;
      g.in_height = s.in_height;
      g.in_width = s.in_width;
      g.out_channels = s.out_channels;
      g.out_height = s.out_height();
      g.out_width = s.out_width();
      g.kernel = s.kernel;
      g.stride = s.stride;
      g.padding = s.padding;
      tensor::simd::lane_ops().conv_lanes_dense(
          g, static_cast<const snn::ConvLayer&>(layer).weights().data(), in_lanes, lanes,
          syn_lanes);
      break;
    }
    case snn::LayerKind::kSumPool: {
      const snn::SumPoolSpec& s = static_cast<const snn::SumPoolLayer&>(layer).spec();
      tensor::simd::lane_ops().pool_lanes(s.channels, s.in_height, s.in_width, s.window, in_lanes,
                                          lanes, syn_lanes);
      break;
    }
  }
}

}  // namespace

void simulate_fault_frontier(snn::Network& net, const tensor::Tensor& stimulus,
                             const GoldenCache& cache, const EngineConfig& config,
                             const std::vector<fault::LayerWeightStats>& stats,
                             const std::vector<fault::FaultDescriptor>& faults,
                             const size_t* batch, size_t count,
                             std::vector<fault::DetectionResult>& results,
                             detail::SimCounters& counters, FrontierSimContext& ctx) {
  const size_t L = cache.num_layers();
  const size_t k = fault_layer(faults[batch[0]]);
  const size_t T = stimulus.shape().dim(0);
  const bool obs_on = obs::telemetry_enabled();

  counters.frontier_faults.fetch_add(count, std::memory_order_relaxed);
  if (count > 1) {
    counters.lane_batches.fetch_add(1, std::memory_order_relaxed);
    counters.lane_batched_faults.fetch_add(count, std::memory_order_relaxed);
  }
  // Hot-loop tallies stay in locals; flushed to the shared atomics once.
  size_t updates = 0;
  size_t updates_dense = 0;
  size_t fallback_frames = 0;
  size_t forwards = 0;
  size_t pruned = 0;
  size_t retired = 0;

  if (ctx.lanes.size() < count) ctx.lanes.resize(count);
  for (size_t b = 0; b < count; ++b) {
    FrontierLaneState& lane = ctx.lanes[b];
    lane.fault = fault::resolve_lane_fault(net, stats, faults[batch[b]]);
    lane.result_index = batch[b];
    lane.active = true;
    // The fault layer reads the golden prefix directly: no input divergence.
    lane.in_div_idx.clear();
    lane.in_div_off.assign(1, 0);
  }
  size_t active_count = count;

  for (size_t l = k; l < L && active_count > 0; ++l) {
    snn::Layer& layer = net.layer(l);
    const size_t n = layer.num_neurons();
    const size_t ni = layer.num_inputs();
    const bool fault_here = l == k;
    const bool final_layer = l + 1 == L;
    const bool recurrent = layer.kind() == snn::LayerKind::kRecurrent;
    const float* gtrain = cache.layer_output(l).data();
    const GoldenLayerState& gstate = cache.state[l];
    const snn::LifBank& bank = layer.lif();
    const float reset = bank.defaults().reset_potential;
    const tensor::Tensor* golden_in =
        fault_here ? (l == 0 ? &stimulus : &cache.layer_output(l - 1)) : nullptr;
    forwards += active_count;
    if (ctx.union_mask.size() < n) ctx.union_mask.assign(n, 0);

    // A newly dirty neuron enters the walk carrying its exact pre-frame
    // state: the golden traces at t-1 (it was bit-identical to golden until
    // now), or the begin_run reset state at t = 0.
    auto mark_dirty = [&](FrontierLaneState& lane, size_t t, uint32_t i) {
      if (lane.dirty[i]) return;
      lane.dirty[i] = 1;
      lane.dirty_list.push_back(i);
      if (t == 0) {
        lane.u[i] = reset;
        lane.refrac[i] = 0;
      } else {
        const size_t p = (t - 1) * n + i;
        lane.u[i] = gstate.u_post[p];
        lane.refrac[i] = static_cast<int>(gstate.refrac[p]);
      }
    };
    auto mark_all = [&](FrontierLaneState& lane, size_t t) {
      for (size_t i = 0; i < n; ++i) mark_dirty(lane, t, static_cast<uint32_t>(i));
    };
    // One neuron-timestep: the exact LifBank::step float expressions via
    // the shared snn::lif_step_neuron, with the lane's single-neuron
    // parameter override substituted at the fault layer.
    auto step_neuron = [&](FrontierLaneState& lane, size_t t, uint32_t i, float syn_i) {
      const snn::LaneNeuronOverride& o = lane.fault.neuron;
      const bool over = fault_here && o.active && o.neuron == i;
      const snn::LifStepResult r = snn::lif_step_neuron(
          lane.u[i], lane.refrac[i], syn_i, over ? o.mode : bank.modes()[i],
          over ? o.threshold : bank.thresholds()[i], over ? o.leak : bank.leaks()[i],
          over ? o.refractory : bank.refractories()[i], reset);
      ++updates;
      const size_t idx = t * n + i;
      lane.train[idx] = r.spike;
      if (r.spike != gtrain[idx]) {
        lane.div_idx.push_back(i);
        if (final_layer) {
          // Divergent output spikes are exactly one unit of L1 mass apart
          // (both trains are exact 0.0f/1.0f), so the ledger's running sum
          // of 1.0s is the bit-exact value of the dense frame walks'
          // element-order double accumulation.
          lane.l1 += 1.0;
          if (!config.detect_only) lane.class_diff[i] += r.spike > 0.5f ? 1 : -1;
        }
      }
    };

    // --- per-layer lane init: start bit-identical to golden -----------------
    for (size_t b = 0; b < count; ++b) {
      FrontierLaneState& lane = ctx.lanes[b];
      if (!lane.active) continue;
      lane.train.resize(T * n);
      std::memcpy(lane.train.data(), gtrain, T * n * sizeof(float));
      lane.dirty.assign(n, 0);
      lane.param_dirty.assign(n, 0);
      lane.dirty_list.clear();
      lane.u.resize(n);
      lane.refrac.resize(n);
      lane.div_idx.clear();
      lane.div_off.assign(1, 0);
      if (final_layer) {
        lane.l1 = 0.0;
        lane.first_frame = -1;
        if (!config.detect_only) lane.class_diff.assign(n, 0);
      }
      if (fault_here) {
        // Seed the neurons the fault acts on directly. They stay
        // param-dirty for the whole window: the perturbation re-applies
        // every frame, so state re-convergence is not decisive for them.
        ctx.fanout.clear();
        bool seed_all = false;
        const snn::LaneFault& f = lane.fault;
        if (f.neuron.active) {
          ctx.fanout.push_back(f.neuron.neuron);
        } else {
          using Kind = snn::LaneSynapseFault::Kind;
          switch (f.synapse.kind) {
            case Kind::kNone:
              break;
            case Kind::kWeight:
              seed_all = !layer.frontier_weight_fanout(0, f.synapse.index, ctx.fanout);
              break;
            case Kind::kRecurrentWeight:
              seed_all = !layer.frontier_weight_fanout(1, f.synapse.index, ctx.fanout);
              break;
            case Kind::kConvWeight:
              seed_all = !layer.frontier_weight_fanout(0, f.synapse.index, ctx.fanout);
              break;
            case Kind::kConvConnection:
              ctx.fanout.push_back(static_cast<uint32_t>(f.synapse.out_index));
              break;
          }
        }
        if (seed_all) {
          for (size_t i = 0; i < n; ++i) ctx.fanout.push_back(static_cast<uint32_t>(i));
        }
        for (uint32_t i : ctx.fanout) {
          lane.param_dirty[i] = 1;
          mark_dirty(lane, 0, i);
        }
      }
    }

    // --- frame loop ---------------------------------------------------------
    for (size_t t = 0; t < T && active_count > 0; ++t) {
      // Phase A: grow each lane's dirty set with this frame's frontier.
      for (size_t b = 0; b < count; ++b) {
        FrontierLaneState& lane = ctx.lanes[b];
        if (!lane.active) continue;
        updates_dense += n;
        lane.full_frame = false;
        bool dirty_all = false;
        // Lateral feedback fans out densely: one divergent own-output spike
        // at t-1 perturbs every neuron's recurrent sum at t.
        if (recurrent && t > 0 && lane.div_off[t] > lane.div_off[t - 1]) dirty_all = true;
        if (!dirty_all && !fault_here) {
          const uint32_t e0 = lane.in_div_off[t];
          const uint32_t e1 = lane.in_div_off[t + 1];
          for (uint32_t e = e0; e < e1; ++e) {
            ctx.fanout.clear();
            if (!layer.frontier_fanout(lane.in_div_idx[e], ctx.fanout)) {
              dirty_all = true;  // dense fan-out: every neuron sees the change
              break;
            }
            for (uint32_t o : ctx.fanout) mark_dirty(lane, t, o);
          }
        }
        if (dirty_all) {
          mark_all(lane, t);
          lane.full_frame = true;
        } else if (static_cast<double>(lane.dirty_list.size()) >
                   config.frontier_threshold * static_cast<double>(n)) {
          mark_all(lane, t);
          lane.full_frame = true;
          ++fallback_frames;
        } else if (lane.dirty_list.size() == n) {
          lane.full_frame = true;  // the frame kernel is cheaper than n gathers
        }
      }

      // Phase B: recompute the dirty neurons' synapses and step them.
      if (fault_here) {
        // Synapse faults are poked into the shared worker clone, so the
        // fault layer runs its lanes strictly one at a time.
        const float* in_frame = golden_in->row(t);
        for (size_t b = 0; b < count; ++b) {
          FrontierLaneState& lane = ctx.lanes[b];
          if (!lane.active || lane.dirty_list.empty()) continue;
          const auto poke = fault::apply_synapse_fault(layer, lane.fault.synapse);
          const float* prev = recurrent && t > 0 ? lane.train.data() + (t - 1) * n : nullptr;
          if (lane.full_frame) {
            lane.syn.resize(n);
            layer.frontier_synapse_frame(in_frame, prev, lane.syn.data());
            for (uint32_t i : lane.dirty_list) step_neuron(lane, t, i, lane.syn[i]);
          } else {
            for (uint32_t i : lane.dirty_list) {
              step_neuron(lane, t, i, layer.frontier_synapse(in_frame, prev, i));
            }
          }
          fault::restore_synapse_fault(poke);
        }
      } else {
        // Downstream layers are fault-free and shared. Full-frame lanes are
        // interleaved and batched through the SIMD lane kernels (one weight
        // stream for all of them); the remaining partial lanes are
        // union-scheduled so a weight row streams once for every lane that
        // needs it (consecutive lane visits keep it cache-hot).
        uint16_t partial = 0;
        ctx.full_list.clear();
        for (size_t b = 0; b < count; ++b) {
          FrontierLaneState& lane = ctx.lanes[b];
          if (!lane.active || lane.dirty_list.empty()) continue;
          if (lane.full_frame) {
            ctx.full_list.push_back(b);
          } else {
            partial |= static_cast<uint16_t>(1u << b);
          }
        }
        if (ctx.full_list.size() == 1) {
          FrontierLaneState& lane = ctx.lanes[ctx.full_list[0]];
          lane.syn.resize(n);
          layer.frontier_synapse_frame(
              lane.in_train.data() + t * ni,
              recurrent && t > 0 ? lane.train.data() + (t - 1) * n : nullptr, lane.syn.data());
          for (uint32_t i : lane.dirty_list) step_neuron(lane, t, i, lane.syn[i]);
        } else if (!ctx.full_list.empty()) {
          const size_t W = ctx.full_list.size();
          ctx.in_lanes.resize(ni * W);
          ctx.syn_lanes.resize(n * W);
          for (size_t j = 0; j < W; ++j) {
            const float* src = ctx.lanes[ctx.full_list[j]].in_train.data() + t * ni;
            for (size_t c = 0; c < ni; ++c) ctx.in_lanes[c * W + j] = src[c];
          }
          const float* prev_lanes = nullptr;
          if (recurrent && t > 0) {
            ctx.prev_lanes.resize(n * W);
            for (size_t j = 0; j < W; ++j) {
              const float* src = ctx.lanes[ctx.full_list[j]].train.data() + (t - 1) * n;
              for (size_t i = 0; i < n; ++i) ctx.prev_lanes[i * W + j] = src[i];
            }
            prev_lanes = ctx.prev_lanes.data();
          }
          synapse_frame_lanes(layer, ctx.in_lanes.data(), prev_lanes, W, ctx.syn_lanes.data());
          for (size_t j = 0; j < W; ++j) {
            FrontierLaneState& lane = ctx.lanes[ctx.full_list[j]];
            for (uint32_t i : lane.dirty_list) {
              step_neuron(lane, t, i, ctx.syn_lanes[i * W + j]);
            }
          }
        }
        if (partial != 0 && (partial & (partial - 1)) == 0) {
          // Single partial lane: plain gather loop, no union bookkeeping.
          FrontierLaneState& lane = ctx.lanes[static_cast<size_t>(std::countr_zero(partial))];
          const float* in_frame = lane.in_train.data() + t * ni;
          const float* prev = recurrent && t > 0 ? lane.train.data() + (t - 1) * n : nullptr;
          for (uint32_t i : lane.dirty_list) {
            step_neuron(lane, t, i, layer.frontier_synapse(in_frame, prev, i));
          }
        } else if (partial != 0) {
          ctx.union_list.clear();
          for (size_t b = 0; b < count; ++b) {
            if (!(partial & (1u << b))) continue;
            for (uint32_t i : ctx.lanes[b].dirty_list) {
              if (ctx.union_mask[i] == 0) ctx.union_list.push_back(i);
              ctx.union_mask[i] |= static_cast<uint16_t>(1u << b);
            }
          }
          for (uint32_t i : ctx.union_list) {
            uint16_t m = ctx.union_mask[i];
            ctx.union_mask[i] = 0;  // leave the mask all-zero for the next frame
            while (m != 0) {
              const size_t b = static_cast<size_t>(std::countr_zero(m));
              m &= static_cast<uint16_t>(m - 1);
              FrontierLaneState& lane = ctx.lanes[b];
              step_neuron(lane, t, i,
                          layer.frontier_synapse(lane.in_train.data() + t * ni,
                                                 recurrent && t > 0
                                                     ? lane.train.data() + (t - 1) * n
                                                     : nullptr,
                                                 i));
            }
          }
        }
      }

      // Phase C: close the frame — record the divergence offsets, retire
      // re-converged neurons from the dirty sets, and run the final layer's
      // detection ledger.
      for (size_t b = 0; b < count; ++b) {
        FrontierLaneState& lane = ctx.lanes[b];
        if (!lane.active) continue;
        lane.div_off.push_back(static_cast<uint32_t>(lane.div_idx.size()));
        const float* gu = gstate.u_post.data() + t * n;
        const int32_t* gr = gstate.refrac.data() + t * n;
        for (size_t s = 0; s < lane.dirty_list.size();) {
          const uint32_t i = lane.dirty_list[s];
          // Numeric equality is exact here: future spike decisions compare
          // values numerically, so +0.0 == -0.0 states are interchangeable;
          // a NaN membrane never retires (conservative).
          if (!lane.param_dirty[i] && lane.u[i] == gu[i] &&
              lane.refrac[i] == static_cast<int>(gr[i])) {
            lane.dirty[i] = 0;
            lane.dirty_list[s] = lane.dirty_list.back();
            lane.dirty_list.pop_back();
          } else {
            ++s;
          }
        }
        if (final_layer) {
          if (lane.first_frame < 0 && lane.l1 > config.detection_threshold) {
            lane.first_frame = static_cast<int64_t>(t);
          }
          if (config.detect_only && lane.first_frame >= 0) {
            // Decisive divergence: the scalar fill_detect_only_result early
            // exit, lane-retired mid-window like the lane-batched path.
            fault::DetectionResult& r = results[lane.result_index];
            r.detected = true;
            r.output_l1 = lane.l1;
            r.first_detection_frame = lane.first_frame;
            if (obs_on) {
              static obs::Counter& early_exits =
                  obs::Registry::instance().counter("campaign/detect_only_early_exits");
              early_exits.add(1);
            }
            if (count > 1) ++retired;
            lane.active = false;
            --active_count;
          }
        }
      }
    }

    // --- layer end ----------------------------------------------------------
    for (size_t b = 0; b < count; ++b) {
      FrontierLaneState& lane = ctx.lanes[b];
      if (!lane.active) continue;
      if (final_layer) {
        fault::DetectionResult& r = results[lane.result_index];
        if (config.detect_only) {
          // Survivors never crossed the threshold: exact full L1.
          r.detected = false;
          r.output_l1 = lane.l1;
          r.first_detection_frame = -1;
        } else {
          r.output_l1 = lane.l1;
          r.detected = lane.l1 > config.detection_threshold;
          r.first_detection_frame = lane.first_frame;
          r.class_count_diff = lane.class_diff;
          detail::first_spike_frames(lane.train.data(), T, n, r.class_first_spike);
        }
        continue;
      }
      if (lane.div_idx.empty() && config.convergence_pruning) {
        // Whole-window output identical to golden: the exact convergence
        // early exit (downstream is bit-identical too).
        detail::fill_converged_result(results[lane.result_index], cache, config);
        ++pruned;
        if (count > 1) ++retired;
        lane.active = false;
        --active_count;
        continue;
      }
      std::swap(lane.train, lane.in_train);
      std::swap(lane.div_idx, lane.in_div_idx);
      std::swap(lane.div_off, lane.in_div_off);
    }
  }

  ctx.last_updates = updates;
  ctx.last_updates_dense = updates_dense;
  counters.layer_forwards.fetch_add(forwards, std::memory_order_relaxed);
  counters.pruned.fetch_add(pruned, std::memory_order_relaxed);
  counters.lanes_retired_early.fetch_add(retired, std::memory_order_relaxed);
  counters.frontier_neuron_updates.fetch_add(updates, std::memory_order_relaxed);
  counters.frontier_neuron_updates_dense.fetch_add(updates_dense, std::memory_order_relaxed);
  counters.frontier_fallback_frames.fetch_add(fallback_frames, std::memory_order_relaxed);
}

}  // namespace snntest::campaign
