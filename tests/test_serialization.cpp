// Property / fuzz tests for the binary network serialization format.
//
// Round-trip: randomized architectures (dense / conv / pool / recurrent
// stacks with randomized LIF and surrogate parameters) must reload
// bit-exactly — same topology, same weights, same forward spike trains.
// Robustness: every strict prefix of a valid image and every out-of-range
// enum field must fail with std::runtime_error, never crash or yield a
// silently-wrong network (tests/test_formats.cpp fuzzes corruption for all
// four on-disk formats).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "snn/conv_layer.hpp"
#include "snn/dense_layer.hpp"
#include "snn/pool_layer.hpp"
#include "snn/recurrent_layer.hpp"
#include "snn/serialization.hpp"
#include "snn/spike_train.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace snntest::snn {
namespace {

LifParams random_lif(util::Rng& rng) {
  LifParams p;
  p.threshold = static_cast<float>(rng.uniform(0.5, 2.0));
  p.leak = static_cast<float>(rng.uniform(0.5, 1.0));
  p.refractory = static_cast<int>(rng.uniform_index(3));
  return p;
}

SurrogateConfig random_surrogate(util::Rng& rng) {
  SurrogateConfig sg;
  const SurrogateKind kinds[] = {SurrogateKind::kFastSigmoid, SurrogateKind::kAtan,
                                 SurrogateKind::kRectangular};
  sg.kind = kinds[rng.uniform_index(3)];
  sg.alpha = static_cast<float>(rng.uniform(0.5, 4.0));
  return sg;
}

/// Random architecture from one of three templates: pure dense stack,
/// conv -> pool -> dense, or dense -> recurrent.
Network random_network(uint64_t seed) {
  util::Rng rng(seed);
  Network net("fuzz-net-" + std::to_string(seed));
  const size_t arch = rng.uniform_index(3);
  if (arch == 0) {
    size_t width = 4 + rng.uniform_index(8);
    const size_t depth = 2 + rng.uniform_index(3);
    for (size_t l = 0; l < depth; ++l) {
      const size_t out = 2 + rng.uniform_index(10);
      auto layer = std::make_unique<DenseLayer>(width, out, random_lif(rng));
      layer->init_weights(rng, 1.2f);
      layer->surrogate() = random_surrogate(rng);
      width = out;
      net.add_layer(std::move(layer));
    }
  } else if (arch == 1) {
    Conv2dSpec spec;
    spec.in_channels = 1 + rng.uniform_index(2);
    spec.in_height = 4 + 2 * rng.uniform_index(2);  // even, so the pool fits
    spec.in_width = spec.in_height;
    spec.out_channels = 1 + rng.uniform_index(3);
    spec.kernel = 3;
    spec.stride = 1;
    spec.padding = 1;
    auto conv = std::make_unique<ConvLayer>(spec, random_lif(rng));
    conv->init_weights(rng, 1.3f);
    conv->surrogate() = random_surrogate(rng);
    net.add_layer(std::move(conv));
    SumPoolSpec pool;
    pool.channels = spec.out_channels;
    pool.in_height = spec.out_height();
    pool.in_width = spec.out_width();
    pool.window = 2;
    auto pool_layer = std::make_unique<SumPoolLayer>(pool, random_lif(rng));
    net.add_layer(std::move(pool_layer));
    auto fc = std::make_unique<DenseLayer>(pool.output_size(), 3 + rng.uniform_index(5),
                                           random_lif(rng));
    fc->init_weights(rng, 1.2f);
    net.add_layer(std::move(fc));
  } else {
    const size_t width = 4 + rng.uniform_index(6);
    const size_t hidden = 4 + rng.uniform_index(8);
    auto l0 = std::make_unique<DenseLayer>(width, hidden, random_lif(rng));
    l0->init_weights(rng, 1.2f);
    l0->surrogate() = random_surrogate(rng);
    net.add_layer(std::move(l0));
    auto l1 = std::make_unique<RecurrentLayer>(hidden, 3 + rng.uniform_index(6),
                                               random_lif(rng));
    l1->init_weights(rng, 1.2f, 0.8f);
    l1->surrogate() = random_surrogate(rng);
    net.add_layer(std::move(l1));
  }
  return net;
}

void expect_networks_identical(Network& a, Network& b) {
  ASSERT_EQ(a.name(), b.name());
  ASSERT_EQ(a.num_layers(), b.num_layers());
  for (size_t l = 0; l < a.num_layers(); ++l) {
    Layer& la = a.layer(l);
    Layer& lb = b.layer(l);
    ASSERT_EQ(la.kind(), lb.kind()) << "layer " << l;
    EXPECT_EQ(la.name(), lb.name()) << "layer " << l;
    ASSERT_EQ(la.num_inputs(), lb.num_inputs()) << "layer " << l;
    ASSERT_EQ(la.num_neurons(), lb.num_neurons()) << "layer " << l;
    const LifParams& pa = la.lif().defaults();
    const LifParams& pb = lb.lif().defaults();
    EXPECT_EQ(pa.threshold, pb.threshold) << "layer " << l;
    EXPECT_EQ(pa.leak, pb.leak) << "layer " << l;
    EXPECT_EQ(pa.refractory, pb.refractory) << "layer " << l;
    EXPECT_EQ(pa.reset_potential, pb.reset_potential) << "layer " << l;
    EXPECT_EQ(la.surrogate().kind, lb.surrogate().kind) << "layer " << l;
    EXPECT_EQ(la.surrogate().alpha, lb.surrogate().alpha) << "layer " << l;
    const auto params_a = la.params();
    const auto params_b = lb.params();
    ASSERT_EQ(params_a.size(), params_b.size()) << "layer " << l;
    for (size_t p = 0; p < params_a.size(); ++p) {
      ASSERT_EQ(params_a[p].size, params_b[p].size) << "layer " << l << " param " << p;
      for (size_t i = 0; i < params_a[p].size; ++i) {
        ASSERT_EQ(params_a[p].value[i], params_b[p].value[i])
            << "layer " << l << " param " << p << " index " << i;
      }
    }
  }
}

TEST(SerializationFuzz, RandomNetworksRoundTripBitExactly) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Network net = random_network(seed);
    Network loaded = deserialize_network(serialize_network(net));
    expect_networks_identical(net, loaded);

    // Functional equivalence: identical spike trains on a random stimulus.
    util::Rng rng(seed * 977 + 3);
    const auto input = random_spike_train(12, net.input_size(), 0.4, rng);
    const auto out_a = net.forward(input);
    const auto out_b = loaded.forward(input);
    ASSERT_EQ(out_a.layer_outputs.size(), out_b.layer_outputs.size());
    for (size_t l = 0; l < out_a.layer_outputs.size(); ++l) {
      const auto& ta = out_a.layer_outputs[l];
      const auto& tb = out_b.layer_outputs[l];
      ASSERT_EQ(ta.shape(), tb.shape()) << "seed " << seed << " layer " << l;
      for (size_t i = 0; i < ta.numel(); ++i) {
        ASSERT_EQ(ta[i], tb[i]) << "seed " << seed << " layer " << l;
      }
    }
  }
}

TEST(SerializationFuzz, EveryStrictPrefixThrows) {
  // The format declares its layer count up front and sizes every vector, so
  // any truncation must surface as std::runtime_error from the bounded
  // readers — never an out-of-bounds read or a silently shorter network.
  Network net = random_network(4);
  const std::string bytes = serialize_network(net);
  ASSERT_GT(bytes.size(), 64u);

  // All short prefixes, then a random sample of longer ones (the stream can
  // be tens of KB; checking every length would dominate the suite).
  std::vector<size_t> lengths;
  for (size_t len = 0; len < std::min<size_t>(96, bytes.size()); ++len) lengths.push_back(len);
  util::Rng rng(42);
  for (size_t k = 0; k < 200; ++k) lengths.push_back(rng.uniform_index(bytes.size()));
  for (const size_t len : lengths) {
    EXPECT_THROW(deserialize_network(bytes.substr(0, len)), std::runtime_error)
        << "prefix length " << len;
  }
}

TEST(SerializationFuzz, OutOfRangeEnumFieldsAreRejected) {
  // The CRC only proves the bytes are the ones written; a body written with
  // an enum value no reader knows must still fail, naming the field,
  // instead of loading as a layer whose surrogate derivative is always 0.
  Network net = random_network(1);
  const std::string file = serialize_network(net);
  uint32_t magic = 0, version = 0;
  std::memcpy(&magic, file.data(), sizeof(magic));
  std::memcpy(&version, file.data() + 4, sizeof(version));
  // magic | version | u64 body length | body | u32 CRC.
  const std::string body = file.substr(16, file.size() - 20);
  // Body: u64 name length, name, u32 layer count, then layer 0's u32 kind,
  // four LIF fields (16 bytes) and its u32 surrogate kind.
  const size_t layer_kind_at = 8 + net.name().size() + 4;
  const size_t surrogate_at = layer_kind_at + 4 + 16;
  for (const auto& [offset, value, field] :
       {std::tuple<size_t, uint32_t, const char*>{surrogate_at, 3, "surrogate kind"},
        std::tuple<size_t, uint32_t, const char*>{layer_kind_at, 4, "layer kind"}}) {
    std::string mutated = body;
    std::memcpy(mutated.data() + offset, &value, sizeof(value));
    try {
      deserialize_network(util::frame_file(magic, version, mutated));
      FAIL() << field << " " << value << " loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace snntest::snn
