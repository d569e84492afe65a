#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "snn/conv_layer.hpp"
#include "snn/dense_layer.hpp"
#include "snn/recurrent_layer.hpp"

namespace snntest::fault {
namespace {

/// Stored (fault-free) weight behind a WeightRef, via the const per-kind
/// accessors (Layer::params() is non-const); also sets the lane kind and
/// the index, row and column the ref maps to.
const float* stored_weight(const snn::Layer& layer, const snn::WeightRef& ref,
                           snn::LaneSynapseFault& sf) {
  using Kind = snn::LaneSynapseFault::Kind;
  const std::vector<float>* w = nullptr;
  switch (layer.kind()) {
    case snn::LayerKind::kDense:
      if (ref.param == 0) w = &static_cast<const snn::DenseLayer&>(layer).weights();
      sf.kind = Kind::kWeight;
      break;
    case snn::LayerKind::kConv2d:
      if (ref.param == 0) w = &static_cast<const snn::ConvLayer&>(layer).weights();
      sf.kind = Kind::kConvWeight;
      break;
    case snn::LayerKind::kRecurrent: {
      const auto& rec = static_cast<const snn::RecurrentLayer&>(layer);
      if (ref.param <= 1) w = ref.param == 0 ? &rec.weights() : &rec.recurrent_weights();
      sf.kind = ref.param == 0 ? Kind::kWeight : Kind::kRecurrentWeight;
      break;
    }
    case snn::LayerKind::kSumPool:
      throw std::logic_error("resolve_lane_fault: layer has no weights");
  }
  if (w == nullptr || ref.index >= w->size()) {
    throw std::out_of_range("resolve_lane_fault: bad weight ref");
  }
  sf.index = ref.index;
  if (sf.kind != Kind::kConvWeight) {
    // A dense or lateral weight matrix is [outputs, inputs] row-major.
    const size_t cols = sf.kind == Kind::kWeight ? layer.num_inputs() : layer.num_neurons();
    sf.out_index = ref.index / cols;
    sf.in_index = ref.index % cols;
  }
  return w->data() + ref.index;
}

snn::LaneNeuronOverride read_neuron(const snn::LifBank& lif, size_t i) {
  return {true, static_cast<uint32_t>(i), lif.thresholds()[i], lif.leaks()[i],
          lif.refractories()[i], lif.modes()[i]};
}

std::invalid_argument non_finite(const FaultDescriptor& fault, const char* what, float value) {
  return std::invalid_argument("resolve_lane_fault: fault " + fault.to_string() + " gives " +
                               what + " " + std::to_string(value) + " (must be finite)");
}

/// The stored-weight slot of a resolved weight fault (not a conv
/// connection, which is an override, not a stored weight).
float& weight_slot(snn::Layer& layer, const snn::LaneSynapseFault& sf) {
  using Kind = snn::LaneSynapseFault::Kind;
  switch (sf.kind) {
    case Kind::kRecurrentWeight:
      return static_cast<snn::RecurrentLayer&>(layer).recurrent_weights()[sf.index];
    case Kind::kConvWeight:
      return static_cast<snn::ConvLayer&>(layer).weights()[sf.index];
    default:
      return layer.kind() == snn::LayerKind::kDense
                 ? static_cast<snn::DenseLayer&>(layer).weights()[sf.index]
                 : static_cast<snn::RecurrentLayer&>(layer).weights()[sf.index];
  }
}

void write_neuron(snn::LifBank& lif, const snn::LaneNeuronOverride& o) {
  lif.thresholds()[o.neuron] = o.threshold;
  lif.leaks()[o.neuron] = o.leak;
  lif.refractories()[o.neuron] = o.refractory;
  lif.modes()[o.neuron] = o.mode;
}

}  // namespace

snn::LaneFault resolve_lane_fault(const snn::Network& net,
                                  const std::vector<LayerWeightStats>& stats,
                                  const FaultDescriptor& fault) {
  const size_t l = fault_layer(fault);
  if (l >= net.num_layers() || l >= stats.size()) {
    throw std::out_of_range("resolve_lane_fault: fault layer " + std::to_string(l) +
                            " out of range (network has " +
                            std::to_string(net.num_layers()) + " layers)");
  }
  const snn::Layer& layer = net.layer(l);
  snn::LaneFault lane;
  snn::LaneNeuronOverride& o = lane.neuron;
  snn::LaneSynapseFault& sf = lane.synapse;
  float stored = 0.0f;
  const float* slot = nullptr;  // the stored weight of a weight fault
  if (fault.targets_neuron()) {
    const snn::LifBank& lif = layer.lif();
    const size_t i = fault.neuron.index;
    if (i >= lif.size()) throw std::out_of_range("resolve_lane_fault: bad neuron index");
    o = read_neuron(lif, i);
  } else if (fault.connection_granularity) {
    if (layer.kind() != snn::LayerKind::kConv2d) {
      throw std::logic_error("resolve_lane_fault: connection faults target conv layers");
    }
    sf.kind = snn::LaneSynapseFault::Kind::kConvConnection;
    sf.out_index = fault.connection.out_index;
    sf.in_index = fault.connection.in_index;
    stored = static_cast<const snn::ConvLayer&>(layer).connection_weight(sf.out_index,
                                                                         sf.in_index);
  } else {
    slot = stored_weight(layer, fault.weight, sf);
    stored = *slot;
  }

  const float m = fault.magnitude;
  switch (fault.kind) {
    case FaultKind::kNeuronDead:
      o.mode = snn::NeuronMode::kDead;
      break;
    case FaultKind::kNeuronSaturated:
      o.mode = snn::NeuronMode::kSaturated;
      break;
    case FaultKind::kNeuronThresholdVariation:
      o.threshold = std::max(1e-3f, o.threshold * (1.0f + m));
      break;
    case FaultKind::kNeuronLeakVariation:
      o.leak = std::clamp(o.leak * (1.0f + m), 0.01f, 1.0f);
      break;
    case FaultKind::kNeuronRefractoryVariation:
      o.refractory = std::max(0, o.refractory + static_cast<int>(m));
      break;
    case FaultKind::kSynapseDead:
      sf.value = 0.0f;
      break;
    case FaultKind::kSynapseSaturatedPositive:
      sf.value = std::fabs(m);
      break;
    case FaultKind::kSynapseSaturatedNegative:
      sf.value = -std::fabs(m);
      break;
    case FaultKind::kSynapseBitFlip:
      if (!std::isfinite(m)) throw non_finite(fault, "bit index", m);
      sf.value = bitflip_weight(stored, stats[l].quant_scale, static_cast<int>(m));
      break;
    default:
      throw std::logic_error("resolve_lane_fault: unknown fault kind");
  }
  // A non-finite faulty weight would make value * 0 NaN, where the dense
  // kernels add that term and the sparse ones skip it; reject it so every
  // path stays exact.
  if (!std::isfinite(sf.value)) throw non_finite(fault, "faulty weight", sf.value);
  if (sf.kind == snn::LaneSynapseFault::Kind::kConvConnection) {
    // The delta ConvLayer::set_connection_override stores for this value.
    sf.delta = sf.value - stored;
    if (!std::isfinite(sf.delta)) throw non_finite(fault, "connection weight delta", sf.delta);
  }
  if (sf.kind == snn::LaneSynapseFault::Kind::kWeight) {
    const snn::RowBound row = snn::row_bound(slot - sf.in_index, layer.num_inputs());
    sf.row_exact = snn::row_sum_exact(snn::with_weight(row, sf.value));
  }
  return lane;
}

FaultInjector::FaultInjector(snn::Network& net, std::vector<LayerWeightStats> stats)
    : net_(&net), stats_(std::move(stats)) {
  if (stats_.size() != net.num_layers()) {
    throw std::invalid_argument("FaultInjector: stats/layer count mismatch");
  }
}

FaultInjector::FaultInjector(snn::Network& net)
    : FaultInjector(net, compute_weight_stats(net)) {}

FaultInjector::~FaultInjector() { remove(); }

void FaultInjector::inject(const FaultDescriptor& fault) {
  if (active_) throw std::logic_error("FaultInjector: a fault is already active");
  const snn::LaneFault resolved = resolve_lane_fault(*net_, stats_, fault);
  snn::Layer& layer = net_->layer(fault_layer(fault));
  synapse_ = resolved.synapse;
  using Kind = snn::LaneSynapseFault::Kind;
  if (resolved.neuron.active) {
    saved_neuron_ = read_neuron(layer.lif(), resolved.neuron.neuron);
    write_neuron(layer.lif(), resolved.neuron);
  } else if (synapse_.kind == Kind::kConvConnection) {
    // The override's delta is bit-for-bit the resolved `delta`.
    auto& conv = static_cast<snn::ConvLayer&>(layer);
    if (conv.connection_override_active()) {
      throw std::logic_error("FaultInjector: connection override already active");
    }
    conv.set_connection_override(synapse_.out_index, synapse_.in_index, synapse_.value);
  } else if (synapse_.kind != Kind::kNone) {
    float& slot = weight_slot(layer, synapse_);
    clean_weight_ = slot;
    slot = synapse_.value;
  }
  active_ = fault;
}

void FaultInjector::remove() {
  if (!active_) return;
  snn::Layer& layer = net_->layer(fault_layer(*active_));
  using Kind = snn::LaneSynapseFault::Kind;
  if (active_->targets_neuron()) {
    write_neuron(layer.lif(), saved_neuron_);
  } else if (synapse_.kind == Kind::kConvConnection) {
    static_cast<snn::ConvLayer&>(layer).clear_connection_override();
  } else if (synapse_.kind != Kind::kNone) {
    weight_slot(layer, synapse_) = clean_weight_;
  }
  active_.reset();
}

}  // namespace snntest::fault
