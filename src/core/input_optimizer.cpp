#include "core/input_optimizer.hpp"

#include <limits>

#include "train/adam.hpp"
#include "train/schedule.hpp"

namespace snntest::core {

InputOptimizer::InputOptimizer(snn::Network& net, GumbelSoftmaxInput& input, StageConfig config)
    : net_(&net), input_(&input), config_(config) {}

StageOutcome InputOptimizer::run(
    const CompositeLoss& loss,
    const std::function<bool(const snn::ForwardResult&)>& accept) {
  StageOutcome outcome;
  outcome.best_loss = std::numeric_limits<double>::infinity();

  // "During the input optimization the SNN model stays fixed": dL/dW is
  // never consumed here, so the frozen scope turns parameter-gradient
  // accumulation off (dL/d(input), the only gradient this loop uses, is
  // bit-identical without it) and lets every layer keep its weight packs
  // for the whole stage.
  const snn::FrozenWeights frozen(*net_);
  net_->zero_grad();  // leave no stale weight grads behind for later readers

  train::AdamConfig adam_config;
  adam_config.lr = config_.lr_initial;
  train::AdamOptimizer adam(adam_config);
  adam.attach(input_->real_data(), input_->grad_data(), input_->size());

  const train::CosineSchedule lr_schedule(config_.lr_initial, config_.lr_final);
  const train::CosineSchedule tau_schedule(config_.tau_max, config_.tau_min);

  // Gradient accumulators reused by every step: the stochastic step's, the
  // deterministic evaluation's (discarded), and the per-term scratch of
  // CompositeLoss::compute.
  std::vector<Tensor> grads, det_grads, term_scratch;
  for (size_t step = 0; step < config_.num_steps; ++step) {
    const double tau = tau_schedule.at(step, config_.num_steps);
    adam.set_lr(lr_schedule.at(step, config_.num_steps));

    // --- stochastic step: sample, forward with traces, backward ---
    const Tensor& candidate = input_->forward(tau, /*stochastic=*/true);
    auto fwd = net_->forward(candidate, /*record_traces=*/true);
    zero_grad_accumulators(fwd, grads);
    const double stochastic_loss = loss.compute(fwd, grads, term_scratch);
    const Tensor grad_input = net_->backward(grads);
    input_->backward(grad_input);
    adam.step();
    ++outcome.steps_run;

    // --- candidate tracking with deterministic rounding ---
    // The stochastic forward above already gives an unbiased view; to keep
    // best-candidate selection reproducible we score the deterministic
    // binarization of the *updated* logits every eval_every steps.
    if (step % std::max<size_t>(1, config_.eval_every) == 0 ||
        step + 1 == config_.num_steps) {
      const Tensor& det = input_->forward(tau, /*stochastic=*/false);
      auto det_fwd = net_->forward(det, /*record_traces=*/false);
      zero_grad_accumulators(det_fwd, det_grads);
      const double det_loss = loss.compute(det_fwd, det_grads, term_scratch);
      outcome.loss_trace.push_back(det_loss);
      const bool acceptable = !accept || accept(det_fwd);
      if (acceptable && det_loss < outcome.best_loss) {
        outcome.best_loss = det_loss;
        outcome.best_input = det;
        outcome.best_forward = std::move(det_fwd);
      }
    }
    (void)stochastic_loss;
  }
  return outcome;
}

}  // namespace snntest::core
