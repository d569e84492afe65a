// Behavioural fault model for SNN hardware (paper Sec. III).
//
// Neuron faults: dead (halts spike propagation), saturated (non-stop
// spiking), and timing variations modelled as perturbations of the neuron
// parameters (threshold / leak / refractory period).
// Synapse faults: dead (zero weight), positively/negatively saturated
// (outlier weight w.r.t. the weight distribution), and perturbed value
// modelled as a bit-flip in the quantized weight memory.
//
// The paper's evaluated fault universe (reverse-engineered from Table II:
// neuron faults = 2 x #neurons, synapse faults = 3 x #synapses) is
// {dead, saturated} per neuron and {dead, sat+, sat-} per synapse; the
// parametric faults are available behind config flags and exercised by the
// extended benches/tests.
#pragma once

#include <cstdint>
#include <string>

#include "snn/network.hpp"

namespace snntest::fault {

enum class FaultKind : uint8_t {
  // --- neuron faults ---
  kNeuronDead = 0,
  kNeuronSaturated = 1,
  kNeuronThresholdVariation = 2,   // threshold *= (1 + magnitude)
  kNeuronLeakVariation = 3,        // leak clamped((1 + magnitude) * leak, 0.01, 1)
  kNeuronRefractoryVariation = 4,  // refractory += int(magnitude) steps
  // --- synapse faults ---
  kSynapseDead = 5,
  kSynapseSaturatedPositive = 6,  // w = +saturation magnitude
  kSynapseSaturatedNegative = 7,  // w = -saturation magnitude
  kSynapseBitFlip = 8,            // flip bit int(magnitude) of the int8-quantized weight
};

const char* fault_kind_name(FaultKind kind);
bool is_neuron_fault(FaultKind kind);

/// One physical connection in a convolutional layer (paper Table I counts
/// synapses as connections; in a conv accelerator a routing/connection
/// fault hits one (output position, kernel tap) pair rather than the shared
/// stored weight).
struct ConnectionRef {
  size_t layer = 0;
  size_t out_index = 0;  // flattened output-neuron index
  size_t in_index = 0;   // flattened input index
  bool operator==(const ConnectionRef&) const = default;
};

struct FaultDescriptor {
  FaultKind kind = FaultKind::kNeuronDead;
  snn::NeuronRef neuron;  // valid when is_neuron_fault(kind)
  snn::WeightRef weight;  // valid for weight-granularity synapse faults
  /// When true, this synapse fault targets a single conv connection
  /// (`connection`) instead of a stored weight (`weight`).
  bool connection_granularity = false;
  ConnectionRef connection;
  /// Interpretation depends on kind: relative delta for variations,
  /// saturation weight value, or bit index for bit-flips.
  float magnitude = 0.0f;

  bool targets_neuron() const { return is_neuron_fault(kind); }
  std::string to_string() const;
};

/// Layer a fault descriptor is confined to.
size_t fault_layer(const FaultDescriptor& fault);

/// int8 symmetric quantization used to model the digital weight memory for
/// bit-flip faults. `scale` maps int8 code 127 to the given full-scale value.
int8_t quantize_weight(float w, float scale);
float dequantize_weight(int8_t code, float scale);
/// Result of flipping `bit` (0 = LSB .. 7 = sign) of w's stored code.
float bitflip_weight(float w, float scale, int bit);

}  // namespace snntest::fault
