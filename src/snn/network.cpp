#include "snn/network.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace snntest::snn {

size_t ForwardResult::spike_count(size_t layer, size_t neuron) const {
  const Tensor& o = layer_outputs.at(layer);
  const size_t T = o.shape().dim(0);
  const size_t n = o.shape().dim(1);
  if (neuron >= n) throw std::out_of_range("ForwardResult::spike_count: bad neuron index");
  size_t count = 0;
  for (size_t t = 0; t < T; ++t) count += o.data()[t * n + neuron] > 0.5f;
  return count;
}

size_t ForwardResult::total_spikes() const {
  size_t count = 0;
  for (const auto& o : layer_outputs) count += o.count_nonzero();
  return count;
}

std::vector<size_t> ForwardResult::output_counts() const {
  const Tensor& o = output();
  const size_t T = o.shape().dim(0);
  const size_t n = o.shape().dim(1);
  std::vector<size_t> counts(n, 0);
  for (size_t t = 0; t < T; ++t) {
    const float* row = o.data() + t * n;
    for (size_t i = 0; i < n; ++i) counts[i] += row[i] > 0.5f;
  }
  return counts;
}

std::vector<size_t> ForwardResult::output_first_spike_times() const {
  const Tensor& o = output();
  const size_t T = o.shape().dim(0);
  const size_t n = o.shape().dim(1);
  std::vector<size_t> first(n, T);
  for (size_t t = 0; t < T; ++t) {
    const float* row = o.data() + t * n;
    for (size_t i = 0; i < n; ++i) {
      if (first[i] == T && row[i] > 0.5f) first[i] = t;
    }
  }
  return first;
}

size_t decode_class(const std::vector<size_t>& counts, const std::vector<size_t>& first_spike,
                    Decoding decoding) {
  size_t best = 0;
  for (size_t i = 1; i < counts.size(); ++i) {
    const bool better =
        decoding == Decoding::kRate
            ? counts[i] > counts[best]
            : first_spike[i] < first_spike[best] ||
                  (first_spike[i] == first_spike[best] && counts[i] > counts[best]);
    if (better) best = i;
  }
  return best;
}

size_t ForwardResult::predicted_class() const {
  return decode_class(output_counts(), {}, Decoding::kRate);
}

size_t ForwardResult::predicted_class(Decoding decoding) const {
  if (decoding == Decoding::kRate) return predicted_class();
  return decode_class(output_counts(), output_first_spike_times(), decoding);
}

Network::Network(const Network& other) : name_(other.name_) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

Network& Network::operator=(const Network& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
  return *this;
}

void Network::add_layer(std::unique_ptr<Layer> layer) {
  if (!layers_.empty() && layer->num_inputs() != layers_.back()->num_neurons()) {
    throw std::invalid_argument("Network::add_layer: " + layer->name() + " expects " +
                                std::to_string(layer->num_inputs()) + " inputs but previous layer " +
                                layers_.back()->name() + " has " +
                                std::to_string(layers_.back()->num_neurons()) + " neurons");
  }
  layers_.push_back(std::move(layer));
}

size_t Network::input_size() const {
  if (layers_.empty()) throw std::logic_error("Network::input_size: empty network");
  return layers_.front()->num_inputs();
}

size_t Network::output_size() const {
  if (layers_.empty()) throw std::logic_error("Network::output_size: empty network");
  return layers_.back()->num_neurons();
}

size_t Network::total_neurons() const {
  size_t n = 0;
  for (const auto& l : layers_) n += l->num_neurons();
  return n;
}

size_t Network::total_weights() const {
  size_t n = 0;
  for (const auto& l : layers_) n += l->num_weights();
  return n;
}

size_t Network::total_connections() const {
  size_t n = 0;
  for (const auto& l : layers_) n += l->num_connections();
  return n;
}

std::vector<NeuronRef> Network::all_neurons() const {
  std::vector<NeuronRef> refs;
  refs.reserve(total_neurons());
  for (size_t l = 0; l < layers_.size(); ++l) {
    for (size_t i = 0; i < layers_[l]->num_neurons(); ++i) refs.push_back({l, i});
  }
  return refs;
}

std::vector<WeightRef> Network::all_weights() const {
  std::vector<WeightRef> refs;
  refs.reserve(total_weights());
  for (size_t l = 0; l < layers_.size(); ++l) {
    // params() is non-const by design (exposes grads); cast is safe here as
    // we only read sizes.
    auto params = const_cast<Layer&>(*layers_[l]).params();
    for (size_t p = 0; p < params.size(); ++p) {
      for (size_t i = 0; i < params[p].size; ++i) refs.push_back({l, p, i});
    }
  }
  return refs;
}

size_t Network::neuron_flat_index(const NeuronRef& ref) const {
  size_t base = 0;
  for (size_t l = 0; l < ref.layer; ++l) base += layers_[l]->num_neurons();
  return base + ref.index;
}

ForwardResult Network::forward(const Tensor& input, bool record_traces) {
  return forward_from(0, input, record_traces);
}

ForwardResult Network::forward_from(size_t start_layer, const Tensor& input, bool record_traces) {
  if (layers_.empty()) throw std::logic_error("Network::forward: empty network");
  if (start_layer >= layers_.size()) {
    throw std::out_of_range("Network::forward_from: start_layer " + std::to_string(start_layer) +
                            " out of range (network has " + std::to_string(layers_.size()) +
                            " layers)");
  }
  ForwardResult result;
  result.layer_outputs.reserve(layers_.size() - start_layer);
  const Tensor* current = &input;
  for (size_t l = start_layer; l < layers_.size(); ++l) {
    result.layer_outputs.push_back(layers_[l]->forward(*current, record_traces));
    current = &result.layer_outputs.back();
  }
  return result;
}

Tensor Network::backward(const std::vector<Tensor>& grad_outputs) {
  if (grad_outputs.size() != layers_.size()) {
    throw std::invalid_argument("Network::backward: need one grad tensor per layer");
  }
  Tensor grad;  // dL/dO^l flowing down, starts at the top layer
  for (size_t l = layers_.size(); l-- > 0;) {
    const Tensor& external = grad_outputs[l];
    if (grad.empty()) {
      if (external.empty()) {
        // No gradient reaches this layer yet: zero tensor of the right shape
        // would be wasted work, but this only happens for top layers without
        // loss terms, which is a configuration error worth rejecting.
        throw std::invalid_argument("Network::backward: topmost gradient is empty");
      }
      grad = external;
    } else if (!external.empty()) {
      if (external.shape() != grad.shape()) {
        throw std::invalid_argument("Network::backward: grad shape mismatch at layer " +
                                    std::to_string(l));
      }
      tensor::axpy(grad.data(), external.data(), 1.0f, grad.numel());
    }
    grad = layers_[l]->backward(grad);
  }
  return grad;
}

void Network::zero_grad() {
  for (auto& l : layers_) l->zero_grad();
}

std::vector<ParamView> Network::params() {
  std::vector<ParamView> all;
  for (auto& l : layers_) {
    for (ParamView p : l->params()) all.push_back(p);
  }
  return all;
}

void Network::restore_neuron_defaults() {
  for (auto& l : layers_) l->lif().restore_defaults();
}

void Network::set_surrogate(const SurrogateConfig& config) {
  for (auto& l : layers_) l->surrogate() = config;
}

void Network::set_kernel_mode(KernelMode mode) {
  for (auto& l : layers_) l->set_kernel_mode(mode);
}

KernelMode Network::kernel_mode() const {
  return layers_.empty() ? KernelMode::kDense : layers_.front()->kernel_mode();
}

void Network::set_param_grads_enabled(bool enabled) {
  for (auto& l : layers_) l->set_param_grads_enabled(enabled);
}

bool Network::param_grads_enabled() const {
  return layers_.empty() ? true : layers_.front()->param_grads_enabled();
}

FrozenWeights::FrozenWeights(Network& net)
    : net_(net),
      param_grads_(net.param_grads_enabled()),
      frozen_(!net.layers_.empty() && net.layers_.front()->weights_frozen()) {
  net_.set_param_grads_enabled(false);
  for (auto& l : net_.layers_) l->set_weights_frozen(true);
}

FrozenWeights::~FrozenWeights() {
  net_.set_param_grads_enabled(param_grads_);
  for (auto& l : net_.layers_) l->set_weights_frozen(frozen_);
}

}  // namespace snntest::snn
