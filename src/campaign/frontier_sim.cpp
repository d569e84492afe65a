#include "campaign/frontier_sim.hpp"

#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"
#include "snn/conv_layer.hpp"
#include "snn/neuron.hpp"

namespace snntest::campaign {

void simulate_fault_frontier(const snn::Network& net, const tensor::Tensor& stimulus,
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

  counters.frontier_faults += count;
  ++counters.lane_batches;
  counters.lane_batched_faults += count;
  // Hot-loop tallies stay in locals; added to the worker's counters once.
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
    const snn::Layer& layer = net.layer(l);
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
    // Golden-plus-delta operands of a dense or recurrent layer (DESIGN.md
    // §12), and the fault layer's cached fault-free frames.
    const snn::LaneDelta delta = cache.lane_delta(l, stimulus);
    const bool use_delta = delta.w.sums != nullptr;
    if (use_delta) {
      ctx.exact_rows.assign(n, 1);
      for (size_t u = 0; u < delta.w.num_uncertified; ++u) {
        ctx.exact_rows[delta.w.uncertified[u]] = 0;
      }
      for (size_t u = 0; u < delta.v.num_uncertified; ++u) {
        ctx.exact_rows[delta.v.uncertified[u]] = 0;
      }
    }
    const float* frames = fault_here ? cache.synaptic_frames(l) : nullptr;

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

    // The fault-free synaptic current of neuron i in the lane's frame t.
    // With golden sums and certified rows it is the golden sum plus the
    // lane's divergent inputs: the fault layer's input is golden, a
    // downstream layer's differs at the previous layer's divergent spikes,
    // and a recurrent layer's lateral term at its own divergent spikes of
    // t - 1. Each partial sum is a 0/1 subset sum of the row, exact in
    // double, so the cast is the ordered row sweep's float; uncertified
    // rows take that sweep (Layer::frontier_synapse).
    auto synapse = [&](const FrontierLaneState& lane, size_t t, uint32_t i) -> float {
      const float* prev = recurrent && t > 0 ? lane.train.data() + (t - 1) * n : nullptr;
      if (frames && !recurrent) return frames[t * n + i];
      if (!use_delta || !ctx.exact_rows[i]) {
        return layer.frontier_synapse(
            fault_here ? golden_in->row(t) : lane.in_train.data() + t * ni, prev, i);
      }
      double w = delta.w.sums[t * n + i];
      if (!fault_here) {
        const float* x = lane.in_train.data() + t * ni;
        for (uint32_t e = lane.in_div_off[t]; e < lane.in_div_off[t + 1]; ++e) {
          const uint32_t j = lane.in_div_idx[e];
          const double wj = delta.w.wt[j * n + i];
          w += x[j] != 0.0f ? wj : -wj;
        }
      }
      // Layer::frontier_synapse's cast points: a zeroed float, plus the
      // feed-forward float, plus the lateral float.
      float syn = 0.0f;
      syn += static_cast<float>(w);
      if (prev != nullptr) {
        double v = delta.v.sums[t * n + i];
        for (uint32_t e = lane.div_off[t - 1]; e < lane.div_off[t]; ++e) {
          const uint32_t j = lane.div_idx[e];
          const double vj = delta.v.wt[j * n + i];
          v += prev[j] != 0.0f ? vj : -vj;
        }
        syn += static_cast<float>(v);
      }
      return syn;
    };

    // --- per-layer lane init: start bit-identical to golden -----------------
    for (size_t b = 0; b < count; ++b) {
      FrontierLaneState& lane = ctx.lanes[b];
      if (!lane.active) continue;
      lane.train.resize(T * n);
      std::memcpy(lane.train.data(), gtrain, T * n * sizeof(float));
      lane.dirty.assign(n, 0);
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
        // The neurons the fault acts on directly. A neuron fault's seed is
        // pinned dirty for the whole window: its parameters differ every
        // frame, so state re-convergence is not decisive for it. A synapse
        // fault's seeds are marked dirty only in the frames where its tap
        // reads a nonzero input (phase A); in every other frame their
        // current is the fault-free one, and they retire like any neuron.
        // A weight, a lateral weight or a conv connection feeds the one
        // output resolve_lane_fault names; a conv kernel tap feeds every
        // pixel of its channel.
        lane.seeds.clear();
        const snn::LaneFault& f = lane.fault;
        lane.pinned = f.neuron.active;
        if (f.neuron.active) {
          lane.seeds.push_back(f.neuron.neuron);
        } else if (f.synapse.kind == snn::LaneSynapseFault::Kind::kConvWeight) {
          static_cast<const snn::ConvLayer&>(layer).tap_fanout(f.synapse.index, lane.seeds);
        } else if (f.synapse.kind != snn::LaneSynapseFault::Kind::kNone) {
          lane.seeds.push_back(static_cast<uint32_t>(f.synapse.out_index));
        }
        lane.seeded.assign(n, 0);
        for (uint32_t i : lane.seeds) lane.seeded[i] = 1;
        if (lane.pinned) mark_dirty(lane, 0, lane.seeds[0]);
      }
    }

    // Whether the lane's synapse fault reads a nonzero input at its seed i
    // in frame t.
    auto tap_live = [&](const FrontierLaneState& lane, size_t t, uint32_t i) {
      const float* prev = recurrent && t > 0 ? lane.train.data() + (t - 1) * n : nullptr;
      return snn::fault_tap_live(layer, lane.fault.synapse, i, golden_in->row(t), prev);
    };

    // The first frame from `t` on in which some lane has work: a dirty or
    // pinned neuron, an input divergence, a live fault tap, an own
    // divergent spike feeding back, or a detection threshold to record.
    // Until then every lane's frames are its golden frames.
    auto next_busy_frame = [&](size_t t) -> size_t {
      size_t next = T;
      for (size_t b = 0; b < count && next > t; ++b) {
        const FrontierLaneState& lane = ctx.lanes[b];
        if (!lane.active) continue;
        if (!lane.dirty_list.empty() || (fault_here && lane.pinned) ||
            (recurrent && t > 0 && lane.div_off[t] > lane.div_off[t - 1]) ||
            (final_layer && lane.first_frame < 0 && lane.l1 > config.detection_threshold)) {
          return t;
        }
        size_t e = t;
        if (fault_here) {
          auto any_live = [&](size_t f) {
            return std::any_of(lane.seeds.begin(), lane.seeds.end(),
                               [&](uint32_t i) { return tap_live(lane, f, i); });
          };
          while (e < next && !any_live(e)) ++e;
        } else {
          while (e < next && lane.in_div_off[e + 1] == lane.in_div_off[e]) ++e;
        }
        next = e;
      }
      return next;
    };

    // --- frame loop ---------------------------------------------------------
    for (size_t t = 0; t < T && active_count > 0; ++t) {
      const size_t busy = next_busy_frame(t);
      if (busy > t) {
        // Quiet frames: no divergence to record, no neuron to step.
        for (size_t b = 0; b < count; ++b) {
          FrontierLaneState& lane = ctx.lanes[b];
          if (!lane.active) continue;
          lane.div_off.resize(lane.div_off.size() + (busy - t), lane.div_off.back());
          updates_dense += n * (busy - t);
        }
        t = busy - 1;
        continue;
      }
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
        if (!dirty_all && fault_here && !lane.pinned) {
          for (uint32_t i : lane.seeds) {
            if (tap_live(lane, t, i)) mark_dirty(lane, t, i);
          }
        }
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
                   kFrontierFallbackFraction * static_cast<double>(n)) {
          mark_all(lane, t);
          lane.full_frame = true;
          ++fallback_frames;
        } else if (lane.dirty_list.size() == n) {
          lane.full_frame = true;  // the frame kernel is cheaper than n gathers
        }
      }

      // Phase B: recompute the dirty neurons' synapses and step them. On
      // the fault layer the seeds of a synapse fault take their current
      // from the resolved fault (snn::fault_row); every other neuron reads
      // the fault-free layer: a golden-plus-delta row or the cached frame
      // where the golden cache has them, else the frame kernel for a full
      // frame and the ordered row sweep per neuron.
      snn::FaultFrame fault_frame;
      if (fault_here) {
        fault_frame.in = golden_in->row(t);
        if (frames) fault_frame.clean = frames + t * n;
        if (use_delta) {
          fault_frame.sums = delta.w.sums + t * n;
          fault_frame.binary_in = delta.binary_input;
        }
      }
      for (size_t b = 0; b < count; ++b) {
        FrontierLaneState& lane = ctx.lanes[b];
        if (!lane.active || lane.dirty_list.empty()) continue;
        const snn::LaneSynapseFault& sf = lane.fault.synapse;
        const bool synapse_fault = fault_here && sf.kind != snn::LaneSynapseFault::Kind::kNone;
        const float* prev = recurrent && t > 0 ? lane.train.data() + (t - 1) * n : nullptr;
        const bool full = lane.full_frame && !use_delta && !frames;
        if (full) {
          lane.syn.resize(n);
          layer.frontier_synapse_frame(
              fault_here ? fault_frame.in : lane.in_train.data() + t * ni, prev, lane.syn.data());
        }
        for (uint32_t i : lane.dirty_list) {
          const float syn = synapse_fault && lane.seeded[i]
                                ? snn::fault_row(layer, sf, i, fault_frame, prev)
                            : full ? lane.syn[i]
                                   : synapse(lane, t, i);
          step_neuron(lane, t, i, syn);
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
          if (!(fault_here && lane.pinned && lane.seeded[i]) && lane.u[i] == gu[i] &&
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
            // Decisive divergence: the fill_detect_only_result early exit,
            // lane-retired mid-window like the lane-batched path.
            fault::DetectionResult& r = results[lane.result_index];
            r.detected = true;
            r.output_l1 = lane.l1;
            r.first_detection_frame = lane.first_frame;
            if (obs_on) {
              static obs::Counter& early_exits =
                  obs::Registry::instance().counter("campaign/detect_only_early_exits");
              early_exits.add(1);
            }
            ++retired;
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
        ++retired;
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
  counters.layer_forwards += forwards;
  counters.pruned += pruned;
  counters.lanes_retired_early += retired;
  counters.frontier_neuron_updates += updates;
  counters.frontier_neuron_updates_dense += updates_dense;
  counters.frontier_fallback_frames += fallback_frames;
}

}  // namespace snntest::campaign
