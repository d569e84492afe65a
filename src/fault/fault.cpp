#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace snntest::fault {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNeuronDead: return "neuron-dead";
    case FaultKind::kNeuronSaturated: return "neuron-saturated";
    case FaultKind::kNeuronThresholdVariation: return "neuron-threshold-var";
    case FaultKind::kNeuronLeakVariation: return "neuron-leak-var";
    case FaultKind::kNeuronRefractoryVariation: return "neuron-refractory-var";
    case FaultKind::kSynapseDead: return "synapse-dead";
    case FaultKind::kSynapseSaturatedPositive: return "synapse-sat-pos";
    case FaultKind::kSynapseSaturatedNegative: return "synapse-sat-neg";
    case FaultKind::kSynapseBitFlip: return "synapse-bitflip";
  }
  return "unknown";
}

bool is_neuron_fault(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNeuronDead:
    case FaultKind::kNeuronSaturated:
    case FaultKind::kNeuronThresholdVariation:
    case FaultKind::kNeuronLeakVariation:
    case FaultKind::kNeuronRefractoryVariation:
      return true;
    default:
      return false;
  }
}

size_t fault_layer(const FaultDescriptor& fault) {
  if (fault.targets_neuron()) return fault.neuron.layer;
  if (fault.connection_granularity) return fault.connection.layer;
  return fault.weight.layer;
}

std::string FaultDescriptor::to_string() const {
  std::ostringstream os;
  os << fault_kind_name(kind);
  if (targets_neuron()) {
    os << "@L" << neuron.layer << "n" << neuron.index;
  } else if (connection_granularity) {
    os << "@L" << connection.layer << "c" << connection.in_index << ">" << connection.out_index;
  } else {
    os << "@L" << weight.layer << "p" << weight.param << "w" << weight.index;
  }
  if (magnitude != 0.0f) os << "(m=" << magnitude << ")";
  return os.str();
}

int8_t quantize_weight(float w, float scale) {
  if (scale <= 0.0f) throw std::invalid_argument("quantize_weight: scale must be > 0");
  const float code = std::round(w / scale * 127.0f);
  return static_cast<int8_t>(std::clamp(code, -127.0f, 127.0f));
}

float dequantize_weight(int8_t code, float scale) {
  return static_cast<float>(code) / 127.0f * scale;
}

float bitflip_weight(float w, float scale, int bit) {
  if (bit < 0 || bit > 7) throw std::invalid_argument("bitflip_weight: bit must be in [0, 7]");
  const auto code = static_cast<uint8_t>(quantize_weight(w, scale));
  const auto flipped = static_cast<int8_t>(code ^ (1u << bit));
  return dequantize_weight(flipped, scale);
}

}  // namespace snntest::fault
