// The paper's test-generation loss functions L1..L5 (Sec. IV-C).
//
// Every loss takes the recorded spike trains O = [O^1..O^L] of one forward
// pass and returns a scalar plus gradients dL/dO^l accumulated into
// per-layer tensors, which Network::backward then chains to the input via
// surrogate BPTT. Spike counts are step functions of the input, so all
// "gradients" here are the natural subgradients the paper's optimizer uses
// through the surrogate pipeline.
//
//  L1 (Eq. 9)  — every output neuron fires >= 1 spike (fault effects must be
//                observable at the output).
//  L2 (Eq. 10) — every (targeted) neuron fires >= 1 spike (necessary
//                condition for dead / timing neuron fault excitation).
//  L3 (Eq. 12) — temporal diversity of each neuron's output >= TD_min
//                (exposes timing-variation faults).
//  L4 (Eq. 13) — per-postsynaptic-neuron variance of incoming synapse
//                contributions w * |O| is minimized (prevents strong
//                synapses from masking weak ones).
//  L5 (Eq. 16) — total hidden spike count is minimized subject to constant
//                O^L (stage 2: keeps fault effects from being dropped in
//                refractory periods on their way to the output).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "snn/network.hpp"

namespace snntest::snn {
class ConvLayer;
}

namespace snntest::core {

using snn::ForwardResult;
using snn::Network;
using tensor::Tensor;

/// Per-layer, per-neuron 0/1 mask selecting which neurons a loss applies to
/// (the iteration target set N_T of Sec. IV-C). Empty = all neurons.
using NeuronMask = std::vector<std::vector<uint8_t>>;

/// Make an all-ones mask shaped like the network.
NeuronMask full_mask(const Network& net);

class SpikeLoss {
 public:
  virtual ~SpikeLoss() = default;
  virtual std::string name() const = 0;
  /// Compute the loss and ADD dL/dO^l into grad_accum[l] ([T, N_l], must be
  /// preallocated and zeroed by the caller across losses).
  virtual double compute(const ForwardResult& o, std::vector<Tensor>& grad_accum) const = 0;
};

/// L1 — output-layer activation (Eq. 9).
class OutputActivationLoss final : public SpikeLoss {
 public:
  std::string name() const override { return "L1-output-activation"; }
  double compute(const ForwardResult& o, std::vector<Tensor>& grad_accum) const override;
};

/// L2 — all-neuron activation (Eq. 10), restricted to `mask` when provided.
class NeuronActivationLoss final : public SpikeLoss {
 public:
  explicit NeuronActivationLoss(const NeuronMask* mask = nullptr) : mask_(mask) {}
  std::string name() const override { return "L2-neuron-activation"; }
  double compute(const ForwardResult& o, std::vector<Tensor>& grad_accum) const override;

 private:
  const NeuronMask* mask_;
};

/// L3 — temporal diversity (Eqs. 11-12), restricted to `mask` when provided.
class TemporalDiversityLoss final : public SpikeLoss {
 public:
  TemporalDiversityLoss(size_t td_min, const NeuronMask* mask = nullptr)
      : td_min_(td_min), mask_(mask) {}
  std::string name() const override { return "L3-temporal-diversity"; }
  double compute(const ForwardResult& o, std::vector<Tensor>& grad_accum) const override;

  size_t td_min() const { return td_min_; }

 private:
  size_t td_min_;
  const NeuronMask* mask_;
};

/// L4 — synapse contribution uniformity (Eq. 13). Needs the network for the
/// weights; layers report their own incoming-contribution variance through
/// Layer-type-specific code here (dense/recurrent exact, conv per receptive
/// field, pooling skipped — fixed wiring is not a synapse fault site).
class SynapseUniformityLoss final : public SpikeLoss {
 public:
  explicit SynapseUniformityLoss(Network& net) : net_(&net) {}
  std::string name() const override { return "L4-synapse-uniformity"; }
  double compute(const ForwardResult& o, std::vector<Tensor>& grad_accum) const override;

 private:
  Network* net_;
};

/// L5 — hidden spike sparsity (Eq. 16): sum of |O^{l,i}| over l < L.
class SparsityLoss final : public SpikeLoss {
 public:
  std::string name() const override { return "L5-sparsity"; }
  double compute(const ForwardResult& o, std::vector<Tensor>& grad_accum) const override;
};

/// Penalty form of the Eq. (15) constraint "constant O^L":
/// mu * ||O^L - O^L_ref||_1 (DESIGN.md §2.6).
class OutputConstancyPenalty final : public SpikeLoss {
 public:
  OutputConstancyPenalty(Tensor reference, double mu)
      : reference_(std::move(reference)), mu_(mu) {}
  std::string name() const override { return "output-constancy"; }
  double compute(const ForwardResult& o, std::vector<Tensor>& grad_accum) const override;

  const Tensor& reference() const { return reference_; }

 private:
  Tensor reference_;
  double mu_;
};

/// Weighted sum of losses (Eq. 6): value = sum alpha_i * L_i, gradients
/// scaled accordingly.
class CompositeLoss {
 public:
  void add(std::shared_ptr<const SpikeLoss> loss, double weight = 1.0);
  size_t terms() const { return losses_.size(); }
  /// Name of term i (registration order) — per-term telemetry labels.
  std::string term_name(size_t i) const { return losses_[i]->name(); }

  /// Evaluate; `per_term` (optional) receives each unweighted L_i value.
  double compute(const ForwardResult& o, std::vector<Tensor>& grad_accum,
                 std::vector<double>* per_term = nullptr) const;
  /// The same, with each term's gradients collected in the caller-owned
  /// `scratch` (one tensor per layer, re-zeroed per term, storage reused)
  /// before they are scaled into grad_accum. A hot loop passes the same
  /// scratch every call instead of allocating one accumulator per layer per
  /// term.
  double compute(const ForwardResult& o, std::vector<Tensor>& grad_accum,
                 std::vector<Tensor>& scratch, std::vector<double>* per_term = nullptr) const;

  /// Set alpha_i = 1 / max(|L_i(O)|, floor) as per Sec. V-C ("inverse of the
  /// expected magnitude ... to ensure balanced contribution").
  void calibrate_weights(const ForwardResult& o, double floor = 1e-3);

  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<std::shared_ptr<const SpikeLoss>> losses_;
  std::vector<double> weights_;
};

/// The conv layer's part of L4 (SynapseUniformityLoss): adds each output
/// pixel's receptive-field variance into `value`, in (oc, oy, ox) order,
/// and its gradient with respect to the input spike counts into
/// `grad_counts` (doubles, before the loss casts them into the spike
/// gradient). Exposed so tests can check the double sums bit for bit.
void add_conv_synapse_variance(const snn::ConvLayer& conv, const std::vector<double>& counts,
                               std::vector<double>& grad_counts, double& value);

/// Allocate one zeroed [T, N_l] gradient tensor per layer.
std::vector<Tensor> make_grad_accumulators(const ForwardResult& o);
/// Resize `grads` to one zeroed [T, N_l] tensor per layer, reusing storage.
void zero_grad_accumulators(const ForwardResult& o, std::vector<Tensor>& grads);

}  // namespace snntest::core
