// Campaign/coverage identity fingerprints (single shared helper).
//
// Every persistent artifact derived from a fault campaign — the coverage
// fault dictionary (coverage/fault_dictionary.hpp) and the run report's
// campaign_fingerprint — must be invalidated when the inputs it was
// computed from change. These helpers are the one place that defines
// what "the inputs" hash to, all built on util::fnv1a and chainable (each
// takes the previous digest as `seed`):
//
//  * hash_network_topology — layer kinds and geometry. Cheap; catches
//    architecture swaps but NOT retraining.
//  * hash_network_params   — every trainable parameter value. Catches
//    retraining/finetuning; this is what makes a stale coverage dictionary
//    for a retrained model fail loudly instead of silently lying.
//  * hash_stimulus         — shape + raw spike bytes of one input train.
//  * hash_fault_list       — every field of every FaultDescriptor, order
//    sensitive (campaign results are positional).
//  * detection_settings_fingerprint — threshold + detect-only flag.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/injector.hpp"
#include "snn/network.hpp"
#include "tensor/tensor.hpp"
#include "util/hash.hpp"

namespace snntest::campaign {

uint64_t hash_stimulus(const tensor::Tensor& stimulus, uint64_t seed);
uint64_t hash_network_topology(const snn::Network& net, uint64_t seed);
/// Topology plus the value bytes of every trainable parameter (reads the
/// params through a const_cast-internal view; the network is not modified).
uint64_t hash_network_params(const snn::Network& net, uint64_t seed);
uint64_t hash_fault_list(const std::vector<fault::FaultDescriptor>& faults, uint64_t seed);
uint64_t detection_settings_fingerprint(uint64_t seed, double detection_threshold,
                                        bool detect_only);

/// Full model identity: topology + parameters (what the coverage dictionary
/// keys on — a retrained model produces a different fingerprint even when
/// the architecture is unchanged).
uint64_t model_fingerprint(const snn::Network& net);

}  // namespace snntest::campaign
