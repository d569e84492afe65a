#include "snn/serialization.hpp"

#include <cstring>
#include <stdexcept>

#include "snn/conv_layer.hpp"
#include "snn/dense_layer.hpp"
#include "snn/pool_layer.hpp"
#include "snn/recurrent_layer.hpp"
#include "util/serialize.hpp"
#include "util/subprocess.hpp"

namespace snntest::snn {
namespace {

constexpr uint32_t kMagic = 0x534E4E54;  // "SNNT"
// Version 3 moved the version-2 body into one CRC-guarded frame.
constexpr uint32_t kVersion = 3;

void write_param(util::Writer& w, Layer& layer, size_t param_index) {
  const ParamView p = layer.params().at(param_index);
  w.f32_array(p.value, p.size);
}

void load_param(Layer& layer, size_t param_index, std::string_view data) {
  const ParamView p = layer.params().at(param_index);
  std::memcpy(p.value, data.data(), data.size());
}

}  // namespace

std::string serialize_network(const Network& net) {
  util::Writer w;
  w.bytes(net.name());
  w.u32(static_cast<uint32_t>(net.num_layers()));
  for (size_t l = 0; l < net.num_layers(); ++l) {
    // Serialization reads weights through the non-const params() view.
    Layer& layer = const_cast<Network&>(net).layer(l);
    w.u32(static_cast<uint32_t>(layer.kind()));
    const LifParams& lif = layer.lif().defaults();
    w.f32(lif.threshold);
    w.f32(lif.leak);
    w.u32(static_cast<uint32_t>(lif.refractory));
    w.f32(lif.reset_potential);
    const SurrogateConfig& sg = layer.surrogate();
    w.u32(static_cast<uint32_t>(sg.kind));
    w.f32(sg.alpha);
    switch (layer.kind()) {
      case LayerKind::kDense: {
        w.u64(layer.num_inputs());
        w.u64(layer.num_neurons());
        write_param(w, layer, 0);
        break;
      }
      case LayerKind::kConv2d: {
        const auto& spec = static_cast<ConvLayer&>(layer).spec();
        w.u64(spec.in_channels);
        w.u64(spec.in_height);
        w.u64(spec.in_width);
        w.u64(spec.out_channels);
        w.u64(spec.kernel);
        w.u64(spec.stride);
        w.u64(spec.padding);
        write_param(w, layer, 0);
        break;
      }
      case LayerKind::kSumPool: {
        const auto& spec = static_cast<SumPoolLayer&>(layer).spec();
        w.u64(spec.channels);
        w.u64(spec.in_height);
        w.u64(spec.in_width);
        w.u64(spec.window);
        break;
      }
      case LayerKind::kRecurrent: {
        w.u64(layer.num_inputs());
        w.u64(layer.num_neurons());
        write_param(w, layer, 0);
        write_param(w, layer, 1);
        break;
      }
    }
  }
  return util::frame_file(kMagic, kVersion, w.str());
}

void save_network(const Network& net, const std::string& path) {
  util::atomic_write_file(path, serialize_network(net));
}

Network deserialize_network(std::string_view bytes, const std::string& source) {
  util::Reader r = util::open_frame_file(bytes, kMagic, kVersion, source);
  Network net(r.string());
  const uint32_t num_layers = r.u32();
  for (uint32_t l = 0; l < num_layers; ++l) {
    const auto kind = r.enumerator(LayerKind::kRecurrent, "layer kind");
    LifParams params;
    params.threshold = r.f32();
    params.leak = r.f32();
    params.refractory = static_cast<int>(r.u32());
    params.reset_potential = r.f32();
    SurrogateConfig sg;
    sg.kind = r.enumerator(SurrogateKind::kRectangular, "surrogate kind");
    sg.alpha = r.f32();
    // Weights are checked against the dimensions before a layer allocates;
    // dimensions no layer accepts fail like any other malformed field.
    std::unique_ptr<Layer> layer;
    try {
      switch (kind) {
        case LayerKind::kDense: {
          const size_t in = r.u64();
          const size_t out = r.u64();
          const auto weights = r.f32_array({in, out}, "dense weights");
          layer = std::make_unique<DenseLayer>(in, out, params);
          load_param(*layer, 0, weights);
          break;
        }
        case LayerKind::kConv2d: {
          Conv2dSpec spec;
          spec.in_channels = r.u64();
          spec.in_height = r.u64();
          spec.in_width = r.u64();
          spec.out_channels = r.u64();
          spec.kernel = r.u64();
          spec.stride = r.u64();
          spec.padding = r.u64();
          const auto weights = r.f32_array(
              {spec.out_channels, spec.in_channels, spec.kernel, spec.kernel}, "conv kernel");
          layer = std::make_unique<ConvLayer>(spec, params);
          load_param(*layer, 0, weights);
          break;
        }
        case LayerKind::kSumPool: {
          SumPoolSpec spec;
          spec.channels = r.u64();
          spec.in_height = r.u64();
          spec.in_width = r.u64();
          spec.window = r.u64();
          layer = std::make_unique<SumPoolLayer>(spec, params);
          break;
        }
        case LayerKind::kRecurrent: {
          const size_t in = r.u64();
          const size_t out = r.u64();
          const auto weights = r.f32_array({in, out}, "recurrent input weights");
          const auto lateral = r.f32_array({out, out}, "recurrent weights");
          layer = std::make_unique<RecurrentLayer>(in, out, params);
          load_param(*layer, 0, weights);
          load_param(*layer, 1, lateral);
          break;
        }
      }
      layer->surrogate() = sg;
      net.add_layer(std::move(layer));
    } catch (const std::invalid_argument& e) {
      r.fail("layer " + std::to_string(l) + ": " + e.what());
    }
  }
  r.expect_end();
  return net;
}

Network load_network(const std::string& path) {
  return deserialize_network(util::read_file(path), path);
}

}  // namespace snntest::snn
