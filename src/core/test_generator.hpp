// The complete test-generation algorithm (paper Sec. IV-C, Fig. 2).
//
// Outer loop: each iteration optimizes one input chunk in two stages
// (stage 1: L1+L2+L3+L4 excitation/observability; stage 2: L5 sparsification
// under constant O^L), records the newly activated neurons, retargets the
// remaining set N_T = N \ N_A, and stops when every neuron is activated or
// the time limit elapses. The final test is the chunk sequence interleaved
// with sleep inputs (TestStimulus).
//
// Defaults follow Sec. V-C scaled to CPU budgets (paper values in
// parentheses): N^1_steps configurable (2000), N^2 = N^1/2, lr 0.1 annealed,
// tau annealed with max 0.9, beta doubling on growth, TD_min = T_in,min/10,
// alpha_i = 1/expected-magnitude, t_limit (3 h).
#pragma once

#include <vector>

#include "core/input_optimizer.hpp"
#include "core/test_stimulus.hpp"

namespace snntest::core {

struct TestGenConfig {
  // stage optimization
  size_t steps_stage1 = 300;  // paper: 2000
  size_t steps_stage2 = 0;    // 0 -> steps_stage1 / 2 (Sec. V-C)
  double lr_initial = 0.1;
  double lr_final = 0.01;
  double tau_max = 0.9;
  double tau_min = 0.25;
  size_t eval_every = 5;

  // input duration control (timesteps)
  size_t t_in_min = 0;   // 0 = auto-search via min L1 (Sec. V-C)
  size_t t_in_start = 4; // starting duration of the auto-search ("1 ms")
  size_t t_in_max = 64;  // cap for the auto-search
  size_t beta = 10;      // growth increment; doubles after every growth
  size_t max_growths_per_iteration = 2;

  // termination
  double t_limit_seconds = 600.0;  // paper: 3 h
  size_t max_iterations = 24;
  size_t activation_min_spikes = 1;

  // multi-restart stage optimization: each outer iteration runs `restarts`
  // independent stage-1/stage-2 optimizations (per-restart Gumbel seed
  // derived from `seed` via util::mix_seed) and keeps the restart that
  // activates the most new neurons. The generated stimulus is bit-identical
  // for a given seed regardless of `num_threads` — restarts share no
  // mutable state and the winner is picked by a deterministic rule, never
  // by wall clock (DESIGN.md §10).
  size_t restarts = 1;
  size_t num_threads = 1;  // threads for the restart fan-out (0 = hardware)

  // losses
  size_t td_min_override = 0;  // 0 -> max(1, t_in_min / 10)
  bool use_l1 = true;          // ablation switches
  bool use_l2 = true;
  bool use_l3 = true;
  bool use_l4 = true;
  bool enable_stage2 = true;
  double constancy_mu = 4.0;  // penalty weight for the Eq. (15) constraint

  double input_init_bias = -1.0;  // starting logit bias (density control)
  uint64_t seed = 0xC0FFEEull;
  bool verbose = false;
};

struct IterationRecord {
  size_t iteration = 0;
  size_t duration_steps = 0;
  size_t growths = 0;
  double stage1_loss = 0.0;
  double stage2_loss = 0.0;
  bool stage2_accepted = false;
  size_t newly_activated = 0;
  size_t total_activated = 0;
  size_t winning_restart = 0;  // index of the restart that produced the chunk
  double seconds = 0.0;
};

struct TestGenReport {
  TestStimulus stimulus;
  double runtime_seconds = 0.0;
  size_t total_neurons = 0;
  size_t activated_neurons = 0;
  size_t t_in_min = 0;
  bool hit_time_limit = false;
  std::vector<IterationRecord> iterations;

  double activated_fraction() const {
    return total_neurons == 0
               ? 0.0
               : static_cast<double>(activated_neurons) / static_cast<double>(total_neurons);
  }
};

class TestGenerator {
 public:
  TestGenerator(snn::Network& net, TestGenConfig config = {});

  TestGenReport generate();

  /// Sec. V-C: minimum input duration that produces non-zero output for all
  /// output-layer neurons, found by optimizing min_I L1(O^L) with growing T.
  static size_t find_min_input_duration(snn::Network& net, const TestGenConfig& config,
                                        util::Rng& rng);

 private:
  snn::Network* net_;
  TestGenConfig config_;
};

}  // namespace snntest::core
