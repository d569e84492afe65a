// Network container tests: stacking validation, forward recording,
// backward gradient routing, global neuron/weight indexing, deep copies,
// and serialization round trips.
#include <gtest/gtest.h>


#include "snn/conv_layer.hpp"
#include "snn/dense_layer.hpp"
#include "snn/network.hpp"
#include "snn/recurrent_layer.hpp"
#include "snn/serialization.hpp"
#include "snn/spike_train.hpp"
#include "util/rng.hpp"

namespace snntest::snn {
namespace {

Network make_test_net(uint64_t seed = 1) {
  util::Rng rng(seed);
  LifParams lif;
  Network net("test-net");
  auto l1 = std::make_unique<DenseLayer>(6, 10, lif);
  l1->init_weights(rng, 1.2f);
  net.add_layer(std::move(l1));
  auto l2 = std::make_unique<DenseLayer>(10, 4, lif);
  l2->init_weights(rng, 1.2f);
  net.add_layer(std::move(l2));
  return net;
}

Tensor dense_input(size_t T, size_t n, double density, uint64_t seed) {
  util::Rng rng(seed);
  return random_spike_train(T, n, density, rng);
}

TEST(Network, RejectsMismatchedLayers) {
  Network net;
  net.add_layer(std::make_unique<DenseLayer>(6, 10, LifParams{}));
  EXPECT_THROW(net.add_layer(std::make_unique<DenseLayer>(9, 4, LifParams{})),
               std::invalid_argument);
}

TEST(Network, SizesAndCounts) {
  auto net = make_test_net();
  EXPECT_EQ(net.num_layers(), 2u);
  EXPECT_EQ(net.input_size(), 6u);
  EXPECT_EQ(net.output_size(), 4u);
  EXPECT_EQ(net.total_neurons(), 14u);
  EXPECT_EQ(net.total_weights(), 6u * 10u + 10u * 4u);
}

TEST(Network, EmptyNetworkThrows) {
  Network net;
  EXPECT_THROW(net.input_size(), std::logic_error);
  EXPECT_THROW(net.forward(Tensor(Shape{1, 1})), std::logic_error);
}

TEST(Network, ForwardRecordsEveryLayer) {
  auto net = make_test_net();
  const auto fwd = net.forward(dense_input(7, 6, 0.5, 2));
  ASSERT_EQ(fwd.num_layers(), 2u);
  EXPECT_EQ(fwd.layer_outputs[0].shape(), Shape({7, 10}));
  EXPECT_EQ(fwd.layer_outputs[1].shape(), Shape({7, 4}));
  EXPECT_EQ(&fwd.output(), &fwd.layer_outputs[1]);
}

TEST(Network, ForwardFromMatchesFullForwardSuffix) {
  auto net = make_test_net();
  const auto input = dense_input(9, 6, 0.5, 4);
  const auto full = net.forward(input);
  // Restart from layer 1 with layer 0's recorded output: the suffix must be
  // bit-identical to the full pass (this is the differential-campaign
  // prefix-reuse contract).
  const auto suffix = net.forward_from(1, full.layer_outputs[0]);
  ASSERT_EQ(suffix.num_layers(), 1u);
  ASSERT_EQ(suffix.output().shape(), full.output().shape());
  for (size_t i = 0; i < full.output().numel(); ++i) {
    ASSERT_EQ(suffix.output()[i], full.output()[i]);
  }
  // start_layer == 0 is exactly forward().
  const auto from_zero = net.forward_from(0, input);
  ASSERT_EQ(from_zero.num_layers(), 2u);
  for (size_t i = 0; i < full.output().numel(); ++i) {
    ASSERT_EQ(from_zero.output()[i], full.output()[i]);
  }
}

TEST(Network, ForwardFromValidatesArguments) {
  auto net = make_test_net();
  const auto input = dense_input(5, 6, 0.5, 5);
  EXPECT_THROW(net.forward_from(2, input), std::out_of_range);
  // Width mismatch: layer 1 expects 10 inputs, not 6.
  EXPECT_THROW(net.forward_from(1, input), std::invalid_argument);
}

TEST(Network, OutputCountsAndPrediction) {
  auto net = make_test_net();
  const auto fwd = net.forward(dense_input(10, 6, 0.6, 3));
  const auto counts = fwd.output_counts();
  ASSERT_EQ(counts.size(), 4u);
  size_t best = 0;
  for (size_t i = 1; i < counts.size(); ++i) {
    if (counts[i] > counts[best]) best = i;
  }
  EXPECT_EQ(fwd.predicted_class(), best);
}

TEST(Network, SpikeCountHelper) {
  auto net = make_test_net();
  const auto fwd = net.forward(dense_input(10, 6, 0.6, 4));
  const auto counts = snn::spike_counts(fwd.layer_outputs[0]);
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(fwd.spike_count(0, i), counts[i]);
  }
  EXPECT_THROW(fwd.spike_count(0, 999), std::out_of_range);
}

TEST(Network, BackwardNeedsPerLayerGrads) {
  auto net = make_test_net();
  net.forward(dense_input(5, 6, 0.5, 5), true);
  std::vector<Tensor> wrong(1);
  EXPECT_THROW(net.backward(wrong), std::invalid_argument);
}

TEST(Network, BackwardTopGradientRequired) {
  auto net = make_test_net();
  net.forward(dense_input(5, 6, 0.5, 6), true);
  std::vector<Tensor> grads(2);  // all empty
  EXPECT_THROW(net.backward(grads), std::invalid_argument);
}

TEST(Network, BackwardProducesInputGradAndWeightGrads) {
  auto net = make_test_net();
  const auto fwd = net.forward(dense_input(5, 6, 0.9, 7), true);
  std::vector<Tensor> grads(2);
  grads[1] = Tensor(fwd.output().shape(), 1.0f);
  net.zero_grad();
  const Tensor gin = net.backward(grads);
  EXPECT_EQ(gin.shape(), Shape({5, 6}));
  double weight_grad_norm = 0.0;
  for (const ParamView& p : net.params()) {
    for (size_t i = 0; i < p.size; ++i) weight_grad_norm += std::abs(p.grad[i]);
  }
  EXPECT_GT(weight_grad_norm, 0.0);
}

TEST(Network, HiddenLayerGradientInjection) {
  // Gradients injected at a hidden layer must reach the input even when the
  // output-layer gradient is all zero.
  auto net = make_test_net();
  const auto fwd = net.forward(dense_input(5, 6, 0.9, 8), true);
  std::vector<Tensor> grads(2);
  grads[1] = Tensor(fwd.output().shape());  // zeros at the output layer
  grads[0] = Tensor(fwd.layer_outputs[0].shape(), 0.5f);
  net.zero_grad();
  const Tensor gin = net.backward(grads);
  double norm = 0.0;
  for (size_t i = 0; i < gin.numel(); ++i) norm += std::abs(gin[i]);
  EXPECT_GT(norm, 0.0);
}

TEST(Network, NeuronEnumerationStable) {
  auto net = make_test_net();
  const auto refs = net.all_neurons();
  ASSERT_EQ(refs.size(), 14u);
  EXPECT_EQ(refs[0].layer, 0u);
  EXPECT_EQ(refs[0].index, 0u);
  EXPECT_EQ(refs[10].layer, 1u);
  EXPECT_EQ(refs[10].index, 0u);
  EXPECT_EQ(net.neuron_flat_index(refs[10]), 10u);
}

TEST(Network, WeightEnumerationCoversAllParams) {
  auto net = make_test_net();
  const auto refs = net.all_weights();
  EXPECT_EQ(refs.size(), net.total_weights());
}

TEST(Network, CopyIsDeep) {
  auto net = make_test_net();
  Network copy(net);
  auto params = copy.params();
  params[0].value[0] += 10.0f;
  EXPECT_NE(net.params()[0].value[0], params[0].value[0]);
  copy.layer(0).lif().modes()[0] = NeuronMode::kDead;
  EXPECT_EQ(net.layer(0).lif().modes()[0], NeuronMode::kNormal);
}

TEST(Network, CopyPreservesBehaviour) {
  auto net = make_test_net();
  Network copy(net);
  const auto input = dense_input(8, 6, 0.5, 9);
  const auto a = net.forward(input).output();
  const auto b = copy.forward(input).output();
  for (size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(Network, RestoreNeuronDefaultsClearsAllBanks) {
  auto net = make_test_net();
  net.layer(0).lif().modes()[2] = NeuronMode::kSaturated;
  net.layer(1).lif().thresholds()[1] = 42.0f;
  net.restore_neuron_defaults();
  EXPECT_EQ(net.layer(0).lif().modes()[2], NeuronMode::kNormal);
  EXPECT_EQ(net.layer(1).lif().thresholds()[1], 1.0f);
}

TEST(Serialization, DenseRoundTrip) {
  auto net = make_test_net(77);
  Network loaded = deserialize_network(serialize_network(net));
  EXPECT_EQ(loaded.name(), net.name());
  const auto input = dense_input(6, 6, 0.5, 10);
  const auto a = net.forward(input).output();
  const auto b = loaded.forward(input).output();
  for (size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(Serialization, ConvRecurrentRoundTrip) {
  util::Rng rng(21);
  LifParams lif;
  Network net("mixed");
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.in_height = 6;
  spec.in_width = 6;
  spec.out_channels = 3;
  spec.kernel = 3;
  spec.stride = 2;
  spec.padding = 1;
  auto conv = std::make_unique<ConvLayer>(spec, lif);
  conv->init_weights(rng);
  net.add_layer(std::move(conv));
  auto rec = std::make_unique<RecurrentLayer>(spec.output_size(), 8, lif);
  rec->init_weights(rng);
  net.add_layer(std::move(rec));

  Network loaded = deserialize_network(serialize_network(net));
  const auto input = dense_input(5, spec.input_size(), 0.4, 11);
  const auto a = net.forward(input).output();
  const auto b = loaded.forward(input).output();
  for (size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(Decoding, TtfsPrefersEarliestFirstSpike) {
  // Hand-built output: class 1 fires first (t=0), class 0 fires more often
  // but starting at t=1.
  ForwardResult fwd;
  Tensor out(Shape{4, 3});
  out.at(0, 1) = 1.0f;
  out.at(1, 0) = 1.0f;
  out.at(2, 0) = 1.0f;
  out.at(3, 0) = 1.0f;
  fwd.layer_outputs.push_back(out);
  EXPECT_EQ(fwd.predicted_class(Decoding::kRate), 0u);
  EXPECT_EQ(fwd.predicted_class(Decoding::kTimeToFirstSpike), 1u);
  const auto first = fwd.output_first_spike_times();
  EXPECT_EQ(first[0], 1u);
  EXPECT_EQ(first[1], 0u);
  EXPECT_EQ(first[2], 4u);  // never fires -> T
}

TEST(Decoding, TtfsBreaksTiesByCount) {
  ForwardResult fwd;
  Tensor out(Shape{3, 2});
  out.at(0, 0) = 1.0f;  // both first-fire at t=0
  out.at(0, 1) = 1.0f;
  out.at(2, 1) = 1.0f;  // class 1 fires again
  fwd.layer_outputs.push_back(out);
  EXPECT_EQ(fwd.predicted_class(Decoding::kTimeToFirstSpike), 1u);
}

TEST(Serialization, CorruptStreamRejected) {
  EXPECT_THROW(deserialize_network("definitely not a network file"), std::runtime_error);
}

/// Randomized conv+dense stack for the KernelMode identity contract.
Network make_conv_dense_net(uint64_t seed) {
  util::Rng rng(seed);
  LifParams lif;
  Network net("kernel-mode-net");
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.in_height = 8;
  spec.in_width = 8;
  spec.out_channels = 4;
  spec.kernel = 3;
  spec.stride = 2;
  spec.padding = 1;
  auto conv = std::make_unique<ConvLayer>(spec, lif);
  conv->init_weights(rng, 1.3f);
  net.add_layer(std::move(conv));
  auto fc = std::make_unique<DenseLayer>(spec.output_size(), 12, lif);
  fc->init_weights(rng, 1.3f);
  net.add_layer(std::move(fc));
  return net;
}

TEST(KernelMode, PropagatesToAllLayers) {
  Network net = make_conv_dense_net(31);
  EXPECT_EQ(net.kernel_mode(), KernelMode::kDense);
  net.set_kernel_mode(KernelMode::kAuto);
  EXPECT_EQ(net.kernel_mode(), KernelMode::kAuto);
  for (size_t l = 0; l < net.num_layers(); ++l) {
    EXPECT_EQ(net.layer(l).kernel_mode(), KernelMode::kAuto);
  }
  // Deep copies keep the mode (campaign workers clone configured networks).
  Network copy(net);
  EXPECT_EQ(copy.kernel_mode(), KernelMode::kAuto);
}

TEST(KernelMode, SparseForwardBitIdenticalOnConvDenseNetwork) {
  Network reference = make_conv_dense_net(32);
  for (const double density : {0.02, 0.1, 0.5}) {
    const Tensor in = dense_input(20, reference.input_size(), density, 33);
    Network dense_net(reference);
    dense_net.set_kernel_mode(KernelMode::kDense);
    const auto golden = dense_net.forward(in);
    for (const KernelMode mode : {KernelMode::kSparse, KernelMode::kAuto}) {
      Network net(reference);
      net.set_kernel_mode(mode);
      const auto fwd = net.forward(in);
      ASSERT_EQ(fwd.num_layers(), golden.num_layers());
      for (size_t l = 0; l < fwd.num_layers(); ++l) {
        const Tensor& a = fwd.layer_outputs[l];
        const Tensor& b = golden.layer_outputs[l];
        ASSERT_EQ(a.shape(), b.shape());
        for (size_t i = 0; i < a.numel(); ++i) {
          ASSERT_EQ(a[i], b[i]) << "layer " << l << " element " << i << " density " << density;
        }
      }
    }
  }
}

/// conv -> dense -> recurrent, kAuto: every layer kind that holds weight
/// packs (conv forward and backward, column-major W and V).
Network make_packed_net(uint64_t seed) {
  Network net = make_conv_dense_net(seed);
  util::Rng rng(seed + 1);
  auto rec = std::make_unique<RecurrentLayer>(12, 6, LifParams{});
  rec->init_weights(rng, 1.3f, 0.6f);
  net.add_layer(std::move(rec));
  net.set_kernel_mode(KernelMode::kAuto);
  return net;
}

/// Output spikes of every layer and dL/d(input) of one forward/backward.
std::vector<float> forward_backward(Network& net, const Tensor& in) {
  const ForwardResult fwd = net.forward(in, /*record_traces=*/true);
  std::vector<Tensor> grads;
  for (const Tensor& o : fwd.layer_outputs) grads.emplace_back(o.shape(), 0.25f);
  const Tensor grad_in = net.backward(grads);
  std::vector<float> out(grad_in.data(), grad_in.data() + grad_in.numel());
  for (const Tensor& o : fwd.layer_outputs) out.insert(out.end(), o.data(), o.data() + o.numel());
  return out;
}

TEST(FrozenWeights, ScopeFlagsRestoreAndClonesStartUnfrozen) {
  Network net = make_packed_net(51);
  ASSERT_TRUE(net.param_grads_enabled());
  {
    const FrozenWeights frozen(net);
    EXPECT_FALSE(net.param_grads_enabled());
    for (size_t l = 0; l < net.num_layers(); ++l) EXPECT_TRUE(net.layer(l).weights_frozen());
    const Network copy(net);
    for (size_t l = 0; l < copy.num_layers(); ++l) {
      EXPECT_FALSE(copy.layer(l).weights_frozen()) << "a clone inherited the frozen scope";
    }
    {
      const FrozenWeights nested(net);
      EXPECT_TRUE(net.layer(0).weights_frozen());
    }
    EXPECT_TRUE(net.layer(0).weights_frozen()) << "an inner scope ended the outer one";
  }
  EXPECT_TRUE(net.param_grads_enabled());
  for (size_t l = 0; l < net.num_layers(); ++l) EXPECT_FALSE(net.layer(l).weights_frozen());
}

TEST(FrozenWeights, WeightsWrittenBetweenScopesAreSeen) {
  // Inside a scope each layer keeps the weight packs built by its first
  // call. Weights written after the scope ends must reach the next scope:
  // every result there equals a fresh copy's, run with no scope at all.
  Network net = make_packed_net(52);
  const Tensor in = dense_input(7, net.input_size(), 0.3, 53);
  {
    const FrozenWeights frozen(net);
    Network reference(net);
    const auto want = forward_backward(reference, in);
    EXPECT_EQ(forward_backward(net, in), want);
    EXPECT_EQ(forward_backward(net, in), want) << "a kept pack changed a result";
  }
  for (ParamView p : net.params()) {
    for (size_t i = 0; i < p.size; i += 3) p.value[i] = -1.5f * p.value[i];
  }
  Network reference(net);
  const auto want = forward_backward(reference, in);
  const FrozenWeights frozen(net);
  EXPECT_EQ(forward_backward(net, in), want) << "a pack from the earlier scope was reused";
}

}  // namespace
}  // namespace snntest::snn
