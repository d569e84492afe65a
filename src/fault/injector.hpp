// The fault table and fault injection into a live Network (the
// SpikeFI-equivalent substrate).
//
// resolve_lane_fault is the one place a FaultDescriptor becomes faulty
// values: a neuron-parameter override or a faulty synapse weight, packed
// into the plain snn::LaneFault POD. Every simulation path consumes it:
//  * The lane kernels (snn/lane_network.hpp) and the frontier walk
//    (campaign/frontier_sim.hpp) apply it per lane on a const, shared,
//    fault-free network; a synapse fault's effect comes from
//    snn::fault_row.
//  * FaultInjector writes it into a mutable network and records exactly
//    what it changed, so removal is a perfect restore. `ScopedFault` is its
//    RAII form. The examples, the test oracles and the campaign engine's
//    naive reference walk (EngineConfig::prefix_reuse = false) use it.
#pragma once

#include <optional>

#include "fault/fault.hpp"
#include "fault/registry.hpp"
#include "snn/lane_network.hpp"

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
  snn::LaneSynapseFault synapse_{};         // the active synapse fault, if any
  float clean_weight_ = 0.0f;               // the stored weight it replaced
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
