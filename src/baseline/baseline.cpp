#include "baseline/baseline.hpp"

#include <algorithm>
#include <stdexcept>

#include "campaign/engine.hpp"
#include "snn/spike_train.hpp"
#include "util/timer.hpp"

namespace snntest::baseline {

size_t BaselineResult::total_steps() const {
  size_t steps = 0;
  for (const auto& input : selected_inputs) steps += input.shape().dim(0);
  return steps;
}

double BaselineResult::duration_in_samples(size_t steps_per_sample) const {
  if (steps_per_sample == 0) throw std::invalid_argument("duration_in_samples: zero divisor");
  return static_cast<double>(total_steps()) / static_cast<double>(steps_per_sample);
}

Tensor BaselineResult::assemble() const {
  if (selected_inputs.empty()) throw std::logic_error("BaselineResult::assemble: empty test");
  return snn::concat_time(selected_inputs);
}

BaselineResult greedy_select(const snn::Network& net,
                             const std::vector<fault::FaultDescriptor>& faults,
                             size_t num_candidates, const CandidateProvider& candidate,
                             const GreedyConfig& config, std::string method_name) {
  util::Timer timer;
  BaselineResult result;
  result.method = std::move(method_name);
  result.candidates_evaluated = num_candidates;

  // Detection matrix: candidate x fault. Each row is one full fault
  // simulation campaign — the dominant cost of all greedy prior work.
  std::vector<Tensor> inputs;
  inputs.reserve(num_candidates);
  std::vector<std::vector<uint8_t>> detects(num_candidates);
  campaign::EngineConfig campaign_config;
  campaign_config.num_threads = config.num_threads;
  for (size_t c = 0; c < num_candidates; ++c) {
    inputs.push_back(candidate(c));
    const auto outcome = campaign::run_campaign(net, inputs.back(), faults, campaign_config);
    detects[c].resize(faults.size());
    for (size_t j = 0; j < faults.size(); ++j) detects[c][j] = outcome.results[j].detected;
    result.fault_sims += faults.size();
  }

  // Greedy set cover by marginal gain.
  std::vector<uint8_t> covered(faults.size(), 0);
  std::vector<uint8_t> used(num_candidates, 0);
  size_t covered_count = 0;
  const size_t target =
      static_cast<size_t>(config.target_coverage * static_cast<double>(faults.size()));
  while (covered_count < faults.size()) {
    if (config.max_selected && result.selected.size() >= config.max_selected) break;
    size_t best = num_candidates;
    size_t best_gain = 0;
    for (size_t c = 0; c < num_candidates; ++c) {
      if (used[c]) continue;
      size_t gain = 0;
      for (size_t j = 0; j < faults.size(); ++j) gain += (!covered[j] && detects[c][j]);
      if (gain > best_gain) {
        best_gain = gain;
        best = c;
      }
    }
    if (best == num_candidates || best_gain == 0) break;  // no candidate helps
    used[best] = 1;
    result.selected.push_back(best);
    result.selected_inputs.push_back(inputs[best]);
    for (size_t j = 0; j < faults.size(); ++j) {
      if (!covered[j] && detects[best][j]) {
        covered[j] = 1;
        ++covered_count;
      }
    }
    if (covered_count >= target) break;
  }

  result.coverage = faults.empty()
                        ? 1.0
                        : static_cast<double>(covered_count) / static_cast<double>(faults.size());
  result.generation_seconds = timer.seconds();
  return result;
}

}  // namespace snntest::baseline
