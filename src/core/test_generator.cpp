#include "core/test_generator.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "snn/spike_train.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace snntest::core {
namespace {

/// Activation bookkeeping: one bit per neuron, layer-major.
struct ActivationSet {
  explicit ActivationSet(const snn::Network& net) {
    layers.resize(net.num_layers());
    for (size_t l = 0; l < net.num_layers(); ++l) {
      layers[l].assign(net.layer(l).num_neurons(), 0);
    }
  }

  /// Mark neurons with >= min_spikes in `fwd`; returns how many were new.
  size_t absorb(const snn::ForwardResult& fwd, size_t min_spikes) {
    size_t newly = 0;
    for (size_t l = 0; l < layers.size(); ++l) {
      const auto counts = snn::spike_counts(fwd.layer_outputs[l]);
      for (size_t i = 0; i < counts.size(); ++i) {
        if (!layers[l][i] && counts[i] >= min_spikes) {
          layers[l][i] = 1;
          ++newly;
        }
      }
    }
    return newly;
  }

  size_t count() const {
    size_t n = 0;
    for (const auto& layer : layers) {
      for (uint8_t b : layer) n += b;
    }
    return n;
  }

  /// Target mask N_T = complement of the activated set.
  NeuronMask target_mask() const {
    NeuronMask mask(layers.size());
    for (size_t l = 0; l < layers.size(); ++l) {
      mask[l].resize(layers[l].size());
      for (size_t i = 0; i < layers[l].size(); ++i) mask[l][i] = layers[l][i] ? 0 : 1;
    }
    return mask;
  }

  std::vector<std::vector<uint8_t>> layers;
};

/// Overwrite logits so that deterministic rounding reproduces `binary`
/// exactly — stage 2 must fine-tune *from* the stage-1 result.
void seed_logits_from(GumbelSoftmaxInput& input, const Tensor& binary) {
  Tensor& real = input.mutable_real();
  for (size_t i = 0; i < real.numel(); ++i) real[i] = binary[i] > 0.5f ? 3.0f : -3.0f;
}

bool all_output_neurons_fire(const snn::ForwardResult& fwd) {
  const auto counts = snn::spike_counts(fwd.output());
  return std::all_of(counts.begin(), counts.end(), [](size_t c) { return c >= 1; });
}

/// Re-evaluate a stage's composite on its best forward pass and record the
/// unweighted per-term values into "testgen/loss/<term>" histograms (L1-L5
/// plus the stage-2 constancy penalty). Telemetry only — the local gradient
/// accumulators are discarded, nothing observable by the optimizer changes.
void record_loss_terms(const CompositeLoss& loss, const snn::ForwardResult& fwd) {
  auto accum = make_grad_accumulators(fwd);
  std::vector<double> per_term;
  loss.compute(fwd, accum, &per_term);
  obs::Registry& reg = obs::Registry::instance();
  for (size_t i = 0; i < per_term.size(); ++i) {
    reg.histogram("testgen/loss/" + loss.term_name(i),
                  obs::Histogram::exponential_bounds(1e-3, 4.0, 14))
        .observe(per_term[i]);
  }
}

/// Result of one independent stage-1/stage-2 restart within an iteration.
struct RestartOutcome {
  Tensor chunk;
  snn::ForwardResult chunk_fwd;
  size_t newly_activated = 0;
  size_t duration_steps = 0;
  size_t growths = 0;
  double stage1_loss = 0.0;
  double stage2_loss = 0.0;
  bool stage2_accepted = false;
  bool valid = false;
};

}  // namespace

TestGenerator::TestGenerator(snn::Network& net, TestGenConfig config)
    : net_(&net), config_(config) {
  // The schedules feed every optimizer step: a bad value must fail here, on
  // the caller's thread, not deep inside a stage on a restart worker.
  const std::pair<const char*, double> schedule_fields[] = {
      {"tau_max", config_.tau_max},
      {"tau_min", config_.tau_min},
      {"lr_initial", config_.lr_initial},
      {"lr_final", config_.lr_final},
  };
  for (const auto& [field, value] : schedule_fields) {
    if (!std::isfinite(value) || !(value > 0.0)) {
      throw std::invalid_argument(std::string("TestGenConfig::") + field +
                                  " must be finite and > 0, got " + std::to_string(value));
    }
  }
  if (config_.steps_stage2 == 0) config_.steps_stage2 = std::max<size_t>(1, config_.steps_stage1 / 2);
}

size_t TestGenerator::find_min_input_duration(snn::Network& net, const TestGenConfig& config,
                                              util::Rng& rng) {
  net.set_kernel_mode(snn::KernelMode::kAuto);
  StageConfig stage;
  stage.num_steps = std::max<size_t>(40, config.steps_stage1 / 4);
  stage.lr_initial = config.lr_initial;
  stage.lr_final = config.lr_final;
  stage.tau_max = config.tau_max;
  stage.tau_min = config.tau_min;
  stage.eval_every = std::max<size_t>(1, config.eval_every / 2);

  CompositeLoss l1_only;
  l1_only.add(std::make_shared<OutputActivationLoss>(), 1.0);

  size_t duration = std::max<size_t>(1, config.t_in_start);
  while (true) {
    GumbelSoftmaxInput input(duration, net.input_size(), rng,
                             static_cast<float>(config.input_init_bias));
    InputOptimizer optimizer(net, input, stage);
    const StageOutcome outcome = optimizer.run(l1_only);
    if (!outcome.best_input.empty() && all_output_neurons_fire(outcome.best_forward)) {
      return duration;
    }
    if (duration >= config.t_in_max) return config.t_in_max;
    duration = std::min(config.t_in_max, duration + std::max<size_t>(2, duration / 2));
  }
}

TestGenReport TestGenerator::generate() {
  OBS_SPAN("testgen/generate");
  util::Timer total_timer;
  util::Rng rng(config_.seed);
  TestGenReport report;
  report.total_neurons = net_->total_neurons();

  // Config fingerprint for the run report (obs/report.hpp).
  obs::set_report_field("testgen_seed", static_cast<uint64_t>(config_.seed));
  obs::set_report_field("testgen_restarts",
                        static_cast<uint64_t>(std::max<size_t>(1, config_.restarts)));

  // The Gumbel input emits hard 0/1 spike frames, so every optimization
  // forward *and* backward benefits from the sparse kernels; kAuto falls
  // back to the dense sweep per frame whenever a candidate is busy
  // (bit-identical results in every mode).
  net_->set_kernel_mode(snn::KernelMode::kAuto);

  // --- T_in,min (Sec. V-C) ---
  report.t_in_min = config_.t_in_min != 0
                        ? config_.t_in_min
                        : find_min_input_duration(*net_, config_, rng);
  const size_t td_min = config_.td_min_override != 0
                            ? config_.td_min_override
                            : std::max<size_t>(1, report.t_in_min / 10);

  report.stimulus = TestStimulus(net_->input_size());
  ActivationSet activated(*net_);

  StageConfig stage1_cfg;
  stage1_cfg.num_steps = config_.steps_stage1;
  stage1_cfg.lr_initial = config_.lr_initial;
  stage1_cfg.lr_final = config_.lr_final;
  stage1_cfg.tau_max = config_.tau_max;
  stage1_cfg.tau_min = config_.tau_min;
  stage1_cfg.eval_every = config_.eval_every;
  StageConfig stage2_cfg = stage1_cfg;
  stage2_cfg.num_steps = config_.steps_stage2;

  const size_t restarts = std::max<size_t>(1, config_.restarts);
  std::unique_ptr<util::ThreadPool> pool;
  if (restarts > 1 && config_.num_threads != 1) {
    pool = std::make_unique<util::ThreadPool>(config_.num_threads);
  }

  // One independent stage-1/stage-2 restart (the seed's whole iteration
  // body). Determinism across thread counts: the restart clones the
  // network (forward traces and weight grads are per-clone), seeds its own
  // Gumbel stream from (seed, iteration, r) via mix_seed, reads only
  // immutable shared state (config, target mask, activated-set copies) and
  // never consults the wall clock — its outcome is a pure function of the
  // master seed.
  auto run_restart = [&](size_t iteration, size_t r, const NeuronMask& target) {
    OBS_SPAN("testgen/restart");
    // Telemetry clocks below observe the restart, they never steer it: no
    // decision (growth, acceptance, winner) reads them, so the stimulus
    // stays a pure function of the master seed with tracing on or off.
    const bool obs_on = obs::telemetry_enabled();
    RestartOutcome out;
    snn::Network net(*net_);  // kernel mode is cloned with the layers
    util::Rng restart_rng(util::mix_seed(config_.seed, iteration, r));

    // --- stage 1: excitation + observability ---
    CompositeLoss stage1_loss;
    if (config_.use_l1) stage1_loss.add(std::make_shared<OutputActivationLoss>());
    if (config_.use_l2) stage1_loss.add(std::make_shared<NeuronActivationLoss>(&target));
    if (config_.use_l3) {
      stage1_loss.add(std::make_shared<TemporalDiversityLoss>(td_min, &target));
    }
    if (config_.use_l4) stage1_loss.add(std::make_shared<SynapseUniformityLoss>(net));

    size_t beta = config_.beta;
    GumbelSoftmaxInput input(report.t_in_min, net.input_size(), restart_rng,
                             static_cast<float>(config_.input_init_bias));

    // alpha_i = 1 / expected magnitude, measured on the initial input.
    {
      const Tensor& initial = input.forward(config_.tau_max, /*stochastic=*/false);
      const auto fwd0 = net.forward(initial, /*record_traces=*/false);
      stage1_loss.calibrate_weights(fwd0);
    }

    StageOutcome stage1;
    {
      OBS_SPAN("testgen/stage1");
      const int64_t t0 = obs_on ? obs::trace_now_us() : 0;
      for (size_t growth = 0;; ++growth) {
        InputOptimizer optimizer(net, input, stage1_cfg);
        stage1 = optimizer.run(stage1_loss);
        // Did this candidate activate anything new?
        ActivationSet probe = activated;
        const size_t newly =
            stage1.best_input.empty()
                ? 0
                : probe.absorb(stage1.best_forward, config_.activation_min_spikes);
        if (newly > 0 || growth >= config_.max_growths_per_iteration) {
          out.growths = growth;
          break;
        }
        // Sec. IV-C3: no new neuron activated -> extend the window by beta
        // (doubling each time) and rerun the stage. The time limit is
        // enforced between iterations only — the decision to grow must not
        // depend on any clock read, telemetry ones included.
        input.grow(beta, restart_rng, static_cast<float>(config_.input_init_bias));
        beta *= 2;
      }
      if (obs_on) {
        static obs::Histogram& stage1_seconds = obs::Registry::instance().histogram(
            "testgen/stage1_seconds", obs::Histogram::exponential_bounds(1e-3, 2.0, 16));
        stage1_seconds.observe(static_cast<double>(obs::trace_now_us() - t0) * 1e-6);
      }
    }
    if (stage1.best_input.empty()) return out;  // nothing usable; valid stays false
    if (obs_on) record_loss_terms(stage1_loss, stage1.best_forward);
    out.duration_steps = stage1.best_input.shape().dim(0);
    out.stage1_loss = stage1.best_loss;
    out.chunk = stage1.best_input;
    out.chunk_fwd = stage1.best_forward;

    // --- stage 2: spike sparsification under constant O^L ---
    if (config_.enable_stage2 && config_.steps_stage2 > 0) {
      OBS_SPAN("testgen/stage2");
      const int64_t stage2_t0 = obs_on ? obs::trace_now_us() : 0;
      seed_logits_from(input, out.chunk);
      const Tensor reference = out.chunk_fwd.output();
      CompositeLoss stage2_loss;
      stage2_loss.add(std::make_shared<SparsityLoss>());
      stage2_loss.add(std::make_shared<OutputConstancyPenalty>(reference, config_.constancy_mu));
      {
        const Tensor& start = input.forward(config_.tau_max, /*stochastic=*/false);
        const auto fwd0 = net.forward(start, /*record_traces=*/false);
        stage2_loss.calibrate_weights(fwd0);
      }
      auto accept = [&reference](const snn::ForwardResult& fwd) {
        return snn::output_distance(fwd.output(), reference) == 0.0;
      };
      InputOptimizer optimizer(net, input, stage2_cfg);
      const StageOutcome stage2 = optimizer.run(stage2_loss, accept);
      if (!stage2.best_input.empty()) {
        // Keep the sparsified input only if it does not lose activations —
        // stage 2 trims excess spikes but must not undo stage 1's work.
        ActivationSet probe = activated;
        const size_t newly_s2 = probe.absorb(stage2.best_forward, config_.activation_min_spikes);
        ActivationSet probe1 = activated;
        const size_t newly_s1 = probe1.absorb(out.chunk_fwd, config_.activation_min_spikes);
        if (newly_s2 >= newly_s1) {
          out.chunk = stage2.best_input;
          out.chunk_fwd = stage2.best_forward;
          out.stage2_accepted = true;
        }
        out.stage2_loss = stage2.best_loss;
        if (obs_on) record_loss_terms(stage2_loss, stage2.best_forward);
      }
      if (obs_on) {
        static obs::Histogram& stage2_seconds = obs::Registry::instance().histogram(
            "testgen/stage2_seconds", obs::Histogram::exponential_bounds(1e-3, 2.0, 16));
        stage2_seconds.observe(static_cast<double>(obs::trace_now_us() - stage2_t0) * 1e-6);
      }
    }

    ActivationSet probe = activated;
    out.newly_activated = probe.absorb(out.chunk_fwd, config_.activation_min_spikes);
    out.valid = true;
    return out;
  };

  for (size_t iteration = 0; iteration < config_.max_iterations; ++iteration) {
    if (activated.count() >= report.total_neurons) break;
    if (total_timer.seconds() >= config_.t_limit_seconds) {
      report.hit_time_limit = true;
      break;
    }
    OBS_SPAN("testgen/iteration");
    util::Timer iter_timer;
    const NeuronMask target = activated.target_mask();

    std::vector<RestartOutcome> outcomes(restarts);
    util::parallel_for_dynamic(pool.get(), restarts, /*grain=*/1,
                               [&](size_t /*worker*/, size_t r) {
                                 outcomes[r] = run_restart(iteration, r, target);
                               });

    // Deterministic winner: most newly activated neurons, then lowest
    // stage-1 loss, then lowest restart index — never wall clock.
    size_t best = restarts;
    for (size_t r = 0; r < restarts; ++r) {
      if (!outcomes[r].valid) continue;
      if (best == restarts) {
        best = r;
        continue;
      }
      const RestartOutcome& a = outcomes[r];
      const RestartOutcome& b = outcomes[best];
      if (a.newly_activated > b.newly_activated ||
          (a.newly_activated == b.newly_activated && a.stage1_loss < b.stage1_loss)) {
        best = r;
      }
    }
    if (best == restarts) {
      // Every restart failed to produce a usable chunk; stop rather than
      // emit a broken one.
      report.hit_time_limit = total_timer.seconds() >= config_.t_limit_seconds;
      break;
    }
    RestartOutcome& winner = outcomes[best];

    IterationRecord record;
    record.iteration = iteration;
    record.duration_steps = winner.duration_steps;
    record.growths = winner.growths;
    record.stage1_loss = winner.stage1_loss;
    record.stage2_loss = winner.stage2_loss;
    record.stage2_accepted = winner.stage2_accepted;
    record.winning_restart = best;
    record.newly_activated = activated.absorb(winner.chunk_fwd, config_.activation_min_spikes);
    record.total_activated = activated.count();
    record.seconds = iter_timer.seconds();
    report.stimulus.add_chunk(std::move(winner.chunk));

    // Coarse per-iteration metrics: one registry touch each per iteration,
    // recorded regardless of the telemetry flag (negligible cost).
    {
      obs::Registry& reg = obs::Registry::instance();
      static obs::Counter& iters = reg.counter("testgen/iterations");
      static obs::Gauge& win_r = reg.gauge("testgen/winning_restart");
      static obs::Gauge& gain = reg.gauge("testgen/activation_gain");
      static obs::Gauge& total = reg.gauge("testgen/total_activated");
      static obs::Histogram& iter_seconds = reg.histogram(
          "testgen/iteration_seconds", obs::Histogram::exponential_bounds(1e-3, 2.0, 16));
      iters.add(1);
      win_r.set(static_cast<double>(record.winning_restart));
      gain.set(static_cast<double>(record.newly_activated));
      total.set(static_cast<double>(record.total_activated));
      iter_seconds.observe(record.seconds);
    }
    report.iterations.push_back(record);

    if (config_.verbose) {
      SNNTEST_LOG_INFO(
          "testgen iter %zu: T=%zu, +%zu neurons (%zu/%zu), stage1 loss %.3f%s, restart %zu/%zu "
          "(%s)",
          iteration, record.duration_steps, record.newly_activated, record.total_activated,
          report.total_neurons, record.stage1_loss,
          record.stage2_accepted ? ", stage2 ok" : "", record.winning_restart, restarts,
          util::format_duration(record.seconds).c_str());
    }
    if (record.newly_activated == 0) {
      // The remaining neurons are unreachable (e.g. receptive fields outside
      // active input, dead weights): further iterations would loop forever.
      break;
    }
  }

  report.activated_neurons = activated.count();
  report.runtime_seconds = total_timer.seconds();
  return report;
}

}  // namespace snntest::core
