// The fault table and fault injection into a live Network (the
// SpikeFI-equivalent substrate).
//
// resolve_lane_fault is the one place a FaultDescriptor becomes faulty
// values: a neuron-parameter override or a faulty synapse weight, packed
// into the plain snn::LaneFault POD. Every simulation path consumes it:
//  * FaultInjector (the scalar path) writes it into a worker's network
//    clone and records exactly what it changed, so removal is a perfect
//    restore. `ScopedFault` is the RAII form used by campaign workers.
//  * The lane kernels (snn/lane_network.hpp) apply it per lane on a const,
//    shared, fault-free network.
//  * The frontier walk (campaign/frontier_sim.hpp) pokes its synapse half
//    into the worker clone around each lane's fault-layer recompute with
//    apply_synapse_fault / restore_synapse_fault, the same pair
//    FaultInjector uses.
#pragma once

#include <optional>

#include "fault/fault.hpp"
#include "fault/registry.hpp"
#include "snn/lane_network.hpp"

namespace snntest::snn {
class ConvLayer;
}

namespace snntest::fault {

/// Resolve `fault` against the fault-free network `net`. `stats` must come
/// from compute_weight_stats on the same network (bit-flip faults need the
/// layer quantization scale). Throws std::out_of_range for a layer, neuron
/// or weight outside `net`, std::invalid_argument for an unconnected conv
/// pair or a synapse fault whose faulty weight is not finite (a NaN or Inf
/// magnitude), and std::logic_error for a target the layer does not have.
snn::LaneFault resolve_lane_fault(const snn::Network& net,
                                  const std::vector<LayerWeightStats>& stats,
                                  const FaultDescriptor& fault);

/// A resolved synapse fault written into a mutable layer, and what it
/// replaced.
struct SynapsePoke {
  float* slot = nullptr;  // stored-weight slot, holds the faulty value
  float clean = 0.0f;
  snn::ConvLayer* conv = nullptr;  // connection-granularity override owner
};

/// Write `sf` into `layer`, the layer it was resolved against: the faulty
/// value into its stored-weight slot, or, for a conv connection, the
/// override set_connection_override(out, in, value), whose delta is
/// bit-for-bit `sf.delta`. Kind::kNone writes nothing. Throws
/// std::logic_error if a connection override is already active.
SynapsePoke apply_synapse_fault(snn::Layer& layer, const snn::LaneSynapseFault& sf);
/// Undo apply_synapse_fault byte-exactly.
void restore_synapse_fault(const SynapsePoke& poke);

class FaultInjector {
 public:
  /// `stats` must come from compute_weight_stats on the same (fault-free)
  /// network — bit-flip faults need the layer quantization scale.
  FaultInjector(snn::Network& net, std::vector<LayerWeightStats> stats);
  /// Convenience: computes the stats itself.
  explicit FaultInjector(snn::Network& net);

  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Apply `fault`. Exactly one fault can be active at a time (the paper's
  /// single-fault assumption); injecting while active throws.
  void inject(const FaultDescriptor& fault);

  /// Restore the saved state. No-op if nothing is active.
  void remove();

  bool active() const { return active_.has_value(); }
  const FaultDescriptor* active_fault() const { return active_ ? &*active_ : nullptr; }

 private:
  snn::Network* net_;
  std::vector<LayerWeightStats> stats_;
  std::optional<FaultDescriptor> active_;
  snn::LaneNeuronOverride saved_neuron_{};  // clean parameters (neuron faults)
  SynapsePoke poke_{};
};

/// RAII single-fault scope.
class ScopedFault {
 public:
  ScopedFault(FaultInjector& injector, const FaultDescriptor& fault) : injector_(injector) {
    injector_.inject(fault);
  }
  ~ScopedFault() { injector_.remove(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  FaultInjector& injector_;
};

}  // namespace snntest::fault
