// Baseline [17] (Tseng et al., ICCAD'21): adversarial test patterns.
//
// Candidates are dataset samples perturbed by gradient ascent to maximally
// disturb the network's own response (an adversarial example in the spiking
// domain): starting from the sample's spike train, the input logits are
// pushed to maximize the rate-cross-entropy of the golden prediction, using
// the same Gumbel/STE machinery as the proposed method. The perturbed
// samples are then greedily compacted exactly like the other baselines.
#pragma once

#include "baseline/baseline.hpp"
#include "data/dataset.hpp"
#include "util/rng.hpp"

namespace snntest::baseline {

struct AdversarialConfig {
  size_t candidate_count = 32;
  size_t ascent_steps = 40;   // gradient-ascent iterations per candidate
  double lr = 0.1;
  double tau = 0.6;           // fixed Gumbel temperature during the attack
  uint64_t seed = 11;
  GreedyConfig greedy;
};

BaselineResult adversarial_testgen(snn::Network& net,
                                   const std::vector<fault::FaultDescriptor>& faults,
                                   const data::Dataset& dataset,
                                   const AdversarialConfig& config = {});

/// The attack alone: adversarially perturb `input` against `net`.
tensor::Tensor adversarial_perturb(snn::Network& net, const tensor::Tensor& input,
                                   const AdversarialConfig& config, util::Rng& rng);

}  // namespace snntest::baseline
