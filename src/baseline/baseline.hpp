// Shared machinery for the prior-work baselines the paper compares against
// in Table IV.
//
// All three baselines ([17] adversarial, [18] dataset compaction, [20]
// random inputs) are greedy: build a candidate-input pool, fault-simulate
// every candidate against the fault list (this is the unbounded
// fault-simulation cost the paper criticizes — we count the simulations),
// then greedily select candidates by marginal coverage until coverage
// saturates. The selected inputs applied back-to-back form the baseline
// test, whose duration Table IV compares with the optimized stimulus.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "snn/network.hpp"

namespace snntest::baseline {

using tensor::Tensor;

struct BaselineResult {
  std::string method;
  std::vector<size_t> selected;       // candidate indices in selection order
  std::vector<Tensor> selected_inputs;
  size_t candidates_evaluated = 0;
  /// Total single-fault inference runs spent during generation (the
  /// O(M * T_FS) cost of Sec. IV-B).
  size_t fault_sims = 0;
  double coverage = 0.0;  // on the fault list used during generation
  double generation_seconds = 0.0;

  size_t total_steps() const;
  /// Test duration in dataset-sample equivalents.
  double duration_in_samples(size_t steps_per_sample) const;
  /// Back-to-back concatenation of the selected inputs (the baseline test).
  Tensor assemble() const;
};

struct GreedyConfig {
  /// Stop once this fraction of the fault list is covered (1.0 = only stops
  /// when no candidate adds coverage).
  double target_coverage = 1.0;
  size_t max_selected = 0;  // 0 = unlimited
  size_t num_threads = 0;
};

/// Candidate pool interface: `count` inputs, produced lazily.
using CandidateProvider = std::function<Tensor(size_t)>;

/// Core greedy set-cover: fault-simulate every candidate against `faults`
/// (building the detection matrix), then select by marginal coverage.
BaselineResult greedy_select(const snn::Network& net,
                             const std::vector<fault::FaultDescriptor>& faults,
                             size_t num_candidates, const CandidateProvider& candidate,
                             const GreedyConfig& config, std::string method_name);

}  // namespace snntest::baseline
