#include "core/naive_fc_optimizer.hpp"

#include "campaign/engine.hpp"
#include "fault/coverage.hpp"
#include "snn/spike_train.hpp"
#include "util/timer.hpp"

namespace snntest::core {

NaiveFcReport naive_fc_optimize(const snn::Network& net,
                                const std::vector<fault::FaultDescriptor>& faults,
                                const NaiveFcConfig& config) {
  util::Timer timer;
  util::Rng rng(config.seed);
  NaiveFcReport report;

  campaign::EngineConfig engine;
  engine.num_threads = config.num_threads;
  auto evaluate = [&](const Tensor& candidate) {
    const auto outcome = campaign::run_campaign(net, candidate, faults, engine);
    report.fault_simulations += faults.size();
    return fault::fault_coverage(outcome.results);
  };

  // Deep-copy forward interface needs a non-const Network; campaigns clone
  // internally, so `net` itself stays untouched.
  report.best_input = snn::random_spike_train(config.num_steps, net.input_size(),
                                              config.initial_density, rng);
  report.best_coverage = evaluate(report.best_input);
  report.coverage_trace.push_back(report.best_coverage);

  for (size_t m = 1; m < config.iterations; ++m) {
    Tensor candidate = report.best_input;
    bool mutated = false;
    for (size_t i = 0; i < candidate.numel(); ++i) {
      if (rng.bernoulli(config.mutation_rate)) {
        candidate[i] = candidate[i] > 0.5f ? 0.0f : 1.0f;
        mutated = true;
      }
    }
    if (!mutated) {
      // force at least one flip so every iteration explores
      const size_t i = rng.uniform_index(candidate.numel());
      candidate[i] = candidate[i] > 0.5f ? 0.0f : 1.0f;
    }
    const double fc = evaluate(candidate);
    if (fc >= report.best_coverage) {
      report.best_coverage = fc;
      report.best_input = std::move(candidate);
    }
    report.coverage_trace.push_back(report.best_coverage);
  }

  report.seconds = timer.seconds();
  return report;
}

}  // namespace snntest::core
