// Leaky Integrate-and-Fire neuron bank.
//
// Implements the discrete-time LIF dynamics of paper Sec. II (Fig. 1):
// the membrane potential integrates weighted input spikes, leaks
// multiplicatively each step, fires when it crosses the threshold, resets,
// and enters a refractory period during which incoming spikes are dropped.
//
// One `LifBank` holds all neurons of one layer, with *per-neuron* parameter
// vectors so the fault injector can perturb a single neuron's threshold,
// leak or refractory period (timing-variation faults, Sec. III) or force its
// output dead/saturated without touching its siblings.
//
// Backward pass: surrogate-gradient BPTT with detached reset. Notation:
//   u_pre[t]  = leak * u_post[t-1] + syn[t]      (membrane after integration)
//   s[t]      = H(u_pre[t] - threshold)
//   u_post[t] = s[t] ? reset : u_pre[t]
// A refractory step freezes u_post at reset and emits no spike, cutting the
// gradient chain (u no longer depends on its past).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "snn/surrogate.hpp"

namespace snntest::snn {

/// Behavioural operating mode of a neuron; kDead / kSaturated are the
/// extreme neuron fault models of Sec. III.
enum class NeuronMode : uint8_t {
  kNormal = 0,
  kDead = 1,       // halts spike propagation: output forced to 0
  kSaturated = 2,  // fires non-stop regardless of input
};

/// Nominal LIF parameters shared by a bank at construction.
struct LifParams {
  float threshold = 1.0f;       // firing threshold θ (> 0)
  float leak = 0.9f;            // multiplicative membrane decay λ per step, in (0, 1]
  int refractory = 1;           // steps of refractoriness after a spike (>= 0)
  float reset_potential = 0.0f; // membrane value after a spike
};

/// Outcome of one neuron's single-timestep LIF update (lif_step_neuron).
struct LifStepResult {
  float spike = 0.0f;
  float u_pre = 0.0f;       // trace value: post-integration membrane, or the
                            // entering membrane when no integration happened
  bool integrated = false;  // false for dead/saturated/refractory steps
};

/// Advance ONE neuron by one timestep, mutating (u, refrac_left) in place.
/// The per-neuron statement of the LIF float expressions: the campaign
/// frontier simulator calls it, and LifBank::step runs the SIMD table's
/// frame kernels (tensor::simd::LaneKernels::lif_frame / lif_frame_traced),
/// which tests/test_simd.cpp checks against it element by element, so a
/// neuron resimulated from a snapshotted (u, refrac_left) reproduces the
/// dense path bit-for-bit. Must be compiled with -ffp-contract=off in every
/// TU that uses it (see src/CMakeLists.txt).
inline LifStepResult lif_step_neuron(float& u, int& refrac_left, float syn, NeuronMode mode,
                                     float threshold, float leak, int refractory,
                                     float reset_potential) {
  LifStepResult r;
  r.u_pre = u;
  switch (mode) {
    case NeuronMode::kDead:
      // Dead neuron halts propagation: no output ever. Membrane is left
      // untouched — the hardware cell produces no events either way.
      break;
    case NeuronMode::kSaturated:
      // Saturated neuron fires non-stop even with zero input (Sec. III).
      r.spike = 1.0f;
      break;
    case NeuronMode::kNormal: {
      if (refrac_left > 0) {
        // Refractory: incoming spikes are dropped, membrane stays at reset.
        --refrac_left;
        u = reset_potential;
      } else {
        r.integrated = true;
        const float u_pre = leak * u + syn;
        r.u_pre = u_pre;
        if (u_pre >= threshold) {
          r.spike = 1.0f;
          u = reset_potential;
          refrac_left = refractory;
        } else {
          u = u_pre;
        }
      }
      break;
    }
  }
  return r;
}

/// State + traces for a bank of `n` LIF neurons advanced one timestep at a
/// time. The forward traces are retained (when recording) for BPTT.
class LifBank {
 public:
  LifBank(size_t n, LifParams defaults);

  size_t size() const { return n_; }
  const LifParams& defaults() const { return defaults_; }

  // --- per-neuron parameters (fault-injection access points) ---
  std::vector<float>& thresholds() { return threshold_; }
  std::vector<float>& leaks() { return leak_; }
  std::vector<int>& refractories() { return refractory_; }
  std::vector<NeuronMode>& modes() { return mode_; }
  const std::vector<float>& thresholds() const { return threshold_; }
  const std::vector<float>& leaks() const { return leak_; }
  const std::vector<int>& refractories() const { return refractory_; }
  const std::vector<NeuronMode>& modes() const { return mode_; }

  /// Restore all per-neuron parameters/modes to the construction defaults.
  void restore_defaults();

  // --- simulation ---

  /// Reset membrane/refractory state and (re)allocate traces for a run of
  /// `T` steps. Must be called before the first `step` of a window.
  void begin_run(size_t num_steps, bool record_traces);

  /// Advance one timestep: `syn` is the frame of synaptic currents
  /// (length n), `spikes_out` receives 0/1 (length n).
  void step(const float* syn, float* spikes_out);

  size_t steps_run() const { return t_; }
  bool recording() const { return recording_; }

  // --- recorded traces (valid after a recording run; time-major [T, n]) ---
  // Read-only access for external gradient references: the gradient-check
  // harness (tests/test_gradcheck.cpp) replays the window in double
  // precision with the branch decisions (spike / integrated) frozen to
  // these traces.
  const std::vector<float>& trace_u_pre() const { return trace_u_pre_; }
  const std::vector<uint8_t>& trace_spikes() const { return trace_spike_; }
  const std::vector<uint8_t>& trace_integrated() const { return trace_integrated_; }

  // --- BPTT (requires a recorded forward run of exactly T steps) ---

  /// Full-window backward: grad_spikes and grad_syn are [T, n] time-major.
  /// grad_syn is overwritten with dL/d(synaptic current).
  void backward(const float* grad_spikes, size_t num_steps, const SurrogateConfig& surrogate,
                float* grad_syn) const;

  /// Stepwise backward for layers with temporal recurrence. Call
  /// `step(t, ...)` strictly for t = T-1, T-2, ..., 0.
  class Backward {
   public:
    Backward(const LifBank& bank, const SurrogateConfig& surrogate, size_t num_steps);
    /// grad_spike_t: dL/ds[t] (length n); grad_syn_t receives dL/dsyn[t].
    void step(size_t t, const float* grad_spike_t, float* grad_syn_t);

   private:
    const LifBank& bank_;
    SurrogateConfig surrogate_;
    size_t num_steps_;
    std::vector<float> carry_;  // dL/du_post[t] flowing backwards
  };

 private:
  friend class Backward;

  size_t n_;
  LifParams defaults_;
  std::vector<float> threshold_;
  std::vector<float> leak_;
  std::vector<int> refractory_;
  std::vector<NeuronMode> mode_;

  // runtime state
  std::vector<float> u_;
  std::vector<int> refrac_left_;
  size_t t_ = 0;
  size_t planned_steps_ = 0;
  bool recording_ = false;

  // traces, time-major [T, n]
  std::vector<float> trace_u_pre_;
  std::vector<uint8_t> trace_spike_;
  std::vector<uint8_t> trace_integrated_;
};

}  // namespace snntest::snn
