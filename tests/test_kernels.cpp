// Seeded fuzz of the single-frame synaptic kernels against the naive loops
// in tests/support/naive_kernels.hpp.
//
// The library kernels advance many independent outputs per loop (4 matvec
// rows per column sweep; all output channels of a conv pixel per tap), and
// each output must still receive its exact term sequence. Every comparison
// here is memcmp, over geometries, densities and values (non-binary, +/-0.0,
// large magnitudes) where a reordered sum would show.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "snn/conv_layer.hpp"
#include "snn/dense_layer.hpp"
#include "snn/recurrent_layer.hpp"
#include "support/naive_kernels.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace snntest {
namespace {

using snn::Conv2dSpec;
using snn::ConvLayer;
using snn::KernelMode;
using tensor::Shape;
using tensor::Tensor;

/// A weight or activation value: ones, signed zeros, small, ordinary and
/// large magnitudes. The exact +/-2^40 values matter most: their products
/// cancel exactly against each other while swallowing the small terms
/// added in between, so a double sum taken in another order lands on a
/// different float instead of rounding back to the same one.
float fuzz_value(util::Rng& rng) {
  switch (rng.uniform_index(7)) {
    case 0: return 1.0f;
    case 1: return rng.bernoulli(0.5) ? 0.0f : -0.0f;
    case 2: return static_cast<float>(rng.uniform(-1e6, 1e6));
    case 3: return static_cast<float>(rng.uniform(-1e-3, 1e-3));
    case 4: return rng.bernoulli(0.5) ? 0x1p40f : -0x1p40f;
    default: return static_cast<float>(rng.uniform(-2.0, 2.0));
  }
}

/// A frame where each entry is nonzero with probability `density` (a
/// nonzero fuzz value, binary when `binary`) and a signed zero otherwise.
std::vector<float> fuzz_frame(util::Rng& rng, size_t n, double density, bool binary) {
  std::vector<float> x(n);
  for (auto& v : x) {
    if (rng.bernoulli(density)) {
      do {
        v = binary ? 1.0f : fuzz_value(rng);
      } while (v == 0.0f);
    } else {
      v = rng.bernoulli(0.5) ? 0.0f : -0.0f;
    }
  }
  return x;
}

bool same_bytes(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

constexpr double kDensities[] = {0.0, 0.03, 0.2, 0.6, 1.0};

TEST(KernelOracle, MatvecMatchesNaiveForEveryRowCount) {
  util::Rng rng(2801);
  for (const size_t rows : {1, 3, 4, 5, 8, 127}) {
    for (const size_t cols : {0, 1, 6, 33, 130}) {
      std::vector<float> a(rows * cols);
      for (auto& w : a) w = fuzz_value(rng);
      for (const double density : kDensities) {
        for (const bool binary : {true, false}) {
          const std::vector<float> x = fuzz_frame(rng, cols, density, binary);
          std::vector<float> y0(rows);
          for (auto& v : y0) v = fuzz_value(rng);  // kernels accumulate into y

          std::vector<float> want = y0, got = y0;
          test_support::naive_matvec_accumulate(a.data(), rows, cols, x.data(), want.data());
          tensor::matvec_accumulate(a.data(), rows, cols, x.data(), got.data());
          ASSERT_TRUE(same_bytes(want.data(), got.data(), rows))
              << "matvec rows " << rows << " cols " << cols << " density " << density;

          // The gather kernel sums exactly the listed columns: check it on
          // the frame's active set and on an arbitrary ascending subset.
          std::vector<uint32_t> active;
          tensor::extract_active(x.data(), cols, active);
          std::vector<uint32_t> subset;
          for (uint32_t c = 0; c < cols; ++c) {
            if (rng.bernoulli(0.5)) subset.push_back(c);
          }
          for (const auto* list : {&active, &subset}) {
            want = y0;
            got = y0;
            test_support::naive_matvec_accumulate_gather(a.data(), rows, cols, x.data(),
                                                         list->data(), list->size(),
                                                         want.data());
            tensor::matvec_accumulate_gather(a.data(), rows, cols, x.data(), list->data(),
                                             list->size(), got.data());
            ASSERT_TRUE(same_bytes(want.data(), got.data(), rows))
                << "gather rows " << rows << " cols " << cols << " listed " << list->size();
          }
        }
      }
    }
  }
}

Conv2dSpec fuzz_spec(util::Rng& rng) {
  Conv2dSpec s;
  s.kernel = static_cast<size_t>(rng.uniform_int(1, 5));
  s.stride = static_cast<size_t>(rng.uniform_int(1, 3));
  s.padding = static_cast<size_t>(rng.uniform_int(0, 2));
  const int64_t min_extent = std::max<int64_t>(1, static_cast<int64_t>(s.kernel) -
                                                      2 * static_cast<int64_t>(s.padding));
  s.in_height = static_cast<size_t>(rng.uniform_int(min_extent, min_extent + 7));
  s.in_width = static_cast<size_t>(rng.uniform_int(min_extent, min_extent + 7));
  s.in_channels = static_cast<size_t>(rng.uniform_int(1, 17));
  s.out_channels = static_cast<size_t>(rng.uniform_int(1, 17));
  return s;
}

std::string describe(const Conv2dSpec& s) {
  return "ic " + std::to_string(s.in_channels) + " " + std::to_string(s.in_height) + "x" +
         std::to_string(s.in_width) + " oc " + std::to_string(s.out_channels) + " k " +
         std::to_string(s.kernel) + " s " + std::to_string(s.stride) + " p " +
         std::to_string(s.padding);
}

snn::LifParams fuzz_lif() {
  snn::LifParams p;
  p.threshold = 1.0f;
  p.leak = 0.9f;
  p.refractory = 1;
  return p;
}

ConvLayer make_fuzz_conv(const Conv2dSpec& spec, util::Rng& rng) {
  ConvLayer layer(spec, fuzz_lif());
  for (auto& w : layer.weights()) w = fuzz_value(rng);
  return layer;
}

/// Window of frames whose densities vary frame to frame, so kAuto switches
/// between the dense and the event-driven kernel inside one call.
Tensor fuzz_window(util::Rng& rng, size_t T, size_t n, bool binary) {
  Tensor in(Shape{T, n});
  for (size_t t = 0; t < T; ++t) {
    const double density = kDensities[rng.uniform_index(std::size(kDensities))];
    const std::vector<float> frame = fuzz_frame(rng, n, density, binary);
    std::copy(frame.begin(), frame.end(), in.row(t));
  }
  return in;
}

/// The connection override a layer carries, as the oracle applies it.
struct OverrideSpec {
  bool active = false;
  size_t out_index = 0;
  size_t in_index = 0;
  float delta = 0.0f;
};

/// syn frame the oracle expects: the naive gather plus the connection
/// override, applied the way forward_into applies it.
std::vector<float> oracle_syn(const ConvLayer& layer, const OverrideSpec& ov, const float* in) {
  std::vector<float> syn(layer.num_neurons());
  test_support::naive_conv_forward_frame(layer.spec(), layer.weights().data(), in, syn.data());
  if (ov.active) syn[ov.out_index] += ov.delta * in[ov.in_index];
  return syn;
}

/// forward_into under `mode` must leave the LIF bank exactly where an
/// independent LifBank driven by the oracle's syn frames ends up: same
/// spikes and same membrane trace. At t = 0 the trace holds
/// leak * reset + syn, so that row pins every syn bit.
void expect_forward_matches_oracle(ConvLayer& layer, KernelMode mode, const OverrideSpec& ov,
                                   const Tensor& in, const std::string& what) {
  const size_t T = in.shape().dim(0);
  const size_t n = layer.num_neurons();
  layer.set_kernel_mode(mode);
  Tensor out;
  layer.forward_into(in, true, out);

  snn::LifBank bank(n, layer.lif().defaults());
  bank.begin_run(T, true);
  Tensor want(Shape{T, n});
  for (size_t t = 0; t < T; ++t) {
    const std::vector<float> syn = oracle_syn(layer, ov, in.row(t));
    bank.step(syn.data(), want.row(t));
  }
  ASSERT_TRUE(same_bytes(out.data(), want.data(), T * n)) << what << ": spikes";
  ASSERT_TRUE(same_bytes(layer.lif().trace_u_pre().data(), bank.trace_u_pre().data(), T * n))
      << what << ": membrane trace";
}

/// backward's input gradient must equal the naive transpose gather applied
/// to the LIF bank's own grad_syn, plus the override's delta term.
void expect_backward_matches_oracle(ConvLayer& layer, const OverrideSpec& ov,
                                    const Tensor& grad_out, const std::string& what) {
  const size_t T = grad_out.shape().dim(0);
  const size_t n_in = layer.num_inputs();
  Tensor grad_syn(Shape{T, layer.num_neurons()});
  layer.lif().backward(grad_out.data(), T, layer.surrogate(), grad_syn.data());
  Tensor want(Shape{T, n_in});
  for (size_t t = 0; t < T; ++t) {
    test_support::naive_conv_backward_input_frame(layer.spec(), layer.weights().data(),
                                                  grad_syn.row(t), want.row(t));
    if (ov.active) want.row(t)[ov.in_index] += ov.delta * grad_syn.row(t)[ov.out_index];
  }
  const Tensor got = layer.backward(grad_out);
  ASSERT_TRUE(same_bytes(got.data(), want.data(), T * n_in)) << what << ": grad_in";
}

/// Override a random connected (out, in) pair. Returns an inactive spec
/// when no draw finds one: padding can hide every tap of a geometry.
OverrideSpec fuzz_override(ConvLayer& layer, util::Rng& rng) {
  const Conv2dSpec& s = layer.spec();
  const size_t oh = s.out_height();
  const size_t ow = s.out_width();
  for (int attempt = 0; attempt < 64; ++attempt) {
    const size_t out = rng.uniform_index(s.output_size());
    const size_t ic = rng.uniform_index(s.in_channels);
    const long oy = static_cast<long>((out / ow) % oh);
    const long ox = static_cast<long>(out % ow);
    const long iy = oy * static_cast<long>(s.stride) - static_cast<long>(s.padding) +
                    static_cast<long>(rng.uniform_index(s.kernel));
    const long ix = ox * static_cast<long>(s.stride) - static_cast<long>(s.padding) +
                    static_cast<long>(rng.uniform_index(s.kernel));
    if (iy < 0 || ix < 0 || iy >= static_cast<long>(s.in_height) ||
        ix >= static_cast<long>(s.in_width)) {
      continue;
    }
    const size_t in = (ic * s.in_height + static_cast<size_t>(iy)) * s.in_width +
                      static_cast<size_t>(ix);
    const float stored = layer.connection_weight(out, in);
    const float w = fuzz_value(rng);
    layer.set_connection_override(out, in, w);
    return {true, out, in, w - stored};
  }
  return {};
}

TEST(KernelOracle, ConvForwardFrameMatchesNaive) {
  util::Rng rng(2802);
  for (int trial = 0; trial < 120; ++trial) {
    const Conv2dSpec spec = fuzz_spec(rng);
    const ConvLayer layer = make_fuzz_conv(spec, rng);
    for (const double density : kDensities) {
      const std::vector<float> in = fuzz_frame(rng, spec.input_size(), density, trial % 2 == 0);
      std::vector<float> want(spec.output_size()), got(spec.output_size());
      test_support::naive_conv_forward_frame(spec, layer.weights().data(), in.data(),
                                             want.data());
      layer.conv_forward_frame(in.data(), got.data());
      ASSERT_TRUE(same_bytes(want.data(), got.data(), want.size()))
          << describe(spec) << " density " << density;

      // The oracle pair itself: the naive scatter equals the naive gather
      // on the frame's active set (the §9 identity the library relies on).
      std::vector<uint32_t> active;
      tensor::extract_active(in.data(), in.size(), active);
      std::vector<float> scattered(spec.output_size());
      test_support::naive_conv_forward_frame_sparse(spec, layer.weights().data(), in.data(),
                                                    active.data(), active.size(),
                                                    scattered.data());
      ASSERT_TRUE(same_bytes(want.data(), scattered.data(), want.size())) << describe(spec);
    }
  }
}

TEST(KernelOracle, ConvLayerForwardAndBackwardMatchNaiveInEveryMode) {
  util::Rng rng(2803);
  for (int trial = 0; trial < 60; ++trial) {
    const Conv2dSpec spec = fuzz_spec(rng);
    ConvLayer layer = make_fuzz_conv(spec, rng);
    const std::string geometry = describe(spec);
    for (const bool with_override : {false, true}) {
      OverrideSpec ov;
      layer.clear_connection_override();
      if (with_override) ov = fuzz_override(layer, rng);
      for (const KernelMode mode : {KernelMode::kDense, KernelMode::kSparse, KernelMode::kAuto}) {
        const std::string what = geometry + " mode " + snn::kernel_mode_name(mode) +
                                 (with_override ? " override" : "");
        // One-frame windows pin the syn frame exactly; longer ones run the
        // per-call weight packing over many frames.
        for (const size_t T : {1, 7}) {
          const Tensor in = fuzz_window(rng, T, spec.input_size(), trial % 3 == 0);
          expect_forward_matches_oracle(layer, mode, ov, in, what);
          Tensor grad_out(Shape{T, spec.output_size()});
          for (size_t i = 0; i < grad_out.numel(); ++i) {
            grad_out[i] = rng.bernoulli(0.3) ? 0.0f : fuzz_value(rng);
          }
          layer.set_param_grads_enabled(T == 1);
          expect_backward_matches_oracle(layer, ov, grad_out, what);
        }
      }
    }
  }
}

TEST(KernelOracle, ConvLayerSeesWeightsChangedBetweenCalls) {
  // ScopedFault rewrites stored weights in place between two forwards on
  // the same layer object; a reordered weight copy kept from the first
  // call would serve the old weights to the second.
  util::Rng rng(2804);
  for (int trial = 0; trial < 40; ++trial) {
    const Conv2dSpec spec = fuzz_spec(rng);
    ConvLayer layer = make_fuzz_conv(spec, rng);
    const OverrideSpec none;
    for (const KernelMode mode : {KernelMode::kDense, KernelMode::kSparse, KernelMode::kAuto}) {
      const Tensor in = fuzz_window(rng, 4, spec.input_size(), false);
      expect_forward_matches_oracle(layer, mode, none, in, describe(spec) + " first call");
      const Tensor grad_out = fuzz_window(rng, 4, spec.output_size(), false);
      expect_backward_matches_oracle(layer, none, grad_out, describe(spec) + " first call");

      auto& w = layer.weights();
      const size_t idx = rng.uniform_index(w.size());
      w[idx] = w[idx] == 1e5f ? -1e5f : 1e5f;  // one stored-weight fault
      std::vector<float> frame_want(spec.output_size()), frame_got(spec.output_size());
      test_support::naive_conv_forward_frame(spec, w.data(), in.row(0), frame_want.data());
      layer.conv_forward_frame(in.row(0), frame_got.data());
      ASSERT_TRUE(same_bytes(frame_want.data(), frame_got.data(), frame_want.size()))
          << describe(spec) << " conv_forward_frame after weight change";
      expect_forward_matches_oracle(layer, mode, none, in, describe(spec) + " second call");
      expect_backward_matches_oracle(layer, none, grad_out, describe(spec) + " second call");
    }
  }
}

/// A dense or recurrent layer with fuzz weights (both matrices).
template <typename LayerT>
LayerT make_fuzz_fc(size_t in, size_t n, util::Rng& rng) {
  LayerT layer(in, n, fuzz_lif());
  for (const snn::ParamView& p : layer.params()) {
    for (size_t i = 0; i < p.size; ++i) p.value[i] = fuzz_value(rng);
  }
  return layer;
}

/// forward_into and backward of a dense or recurrent layer against the
/// naive matvecs: syn[t] = W x[t] (+ V out[t-1] for t > 0, cast and added
/// separately), driven through an independent LifBank; the input gradient
/// is W^T grad_syn[t], with the recurrent credit V^T grad_syn[t+1] folded
/// into the spike gradient as RecurrentLayer::backward does.
template <typename LayerT>
void expect_fc_matches_oracle(LayerT& layer, KernelMode mode, const Tensor& in,
                              const Tensor& grad_out, const std::string& what) {
  constexpr bool kRecurrent = std::is_same_v<LayerT, snn::RecurrentLayer>;
  const size_t T = in.shape().dim(0);
  const size_t n = layer.num_neurons();
  const size_t cols = layer.num_inputs();
  const float* w = layer.weights().data();
  layer.set_kernel_mode(mode);
  Tensor out;
  layer.forward_into(in, true, out);

  snn::LifBank bank(n, layer.lif().defaults());
  bank.begin_run(T, true);
  Tensor want(Shape{T, n});
  std::vector<float> syn(n);
  for (size_t t = 0; t < T; ++t) {
    std::fill(syn.begin(), syn.end(), 0.0f);
    test_support::naive_matvec_accumulate(w, n, cols, in.row(t), syn.data());
    if constexpr (kRecurrent) {
      if (t > 0) {
        test_support::naive_matvec_accumulate(layer.recurrent_weights().data(), n, n,
                                              want.row(t - 1), syn.data());
      }
    }
    bank.step(syn.data(), want.row(t));
  }
  ASSERT_TRUE(same_bytes(out.data(), want.data(), T * n)) << what << ": spikes";
  ASSERT_TRUE(same_bytes(layer.lif().trace_u_pre().data(), bank.trace_u_pre().data(), T * n))
      << what << ": membrane trace";

  Tensor want_grad(Shape{T, cols});
  std::vector<float> grad_spike(n, 0.0f), grad_syn(n);
  snn::LifBank::Backward bw(bank, layer.surrogate(), T);
  for (size_t t = T; t-- > 0;) {
    for (size_t i = 0; i < n; ++i) grad_spike[i] += grad_out.row(t)[i];
    bw.step(t, grad_spike.data(), grad_syn.data());
    test_support::naive_matvec_transpose_accumulate(w, n, cols, grad_syn.data(),
                                                    want_grad.row(t));
    std::fill(grad_spike.begin(), grad_spike.end(), 0.0f);
    if constexpr (kRecurrent) {
      test_support::naive_matvec_transpose_accumulate(layer.recurrent_weights().data(), n, n,
                                                      grad_syn.data(), grad_spike.data());
    }
  }
  layer.set_param_grads_enabled(false);
  const Tensor got_grad = layer.backward(grad_out);
  ASSERT_TRUE(same_bytes(got_grad.data(), want_grad.data(), T * cols)) << what << ": grad_in";
}

template <typename LayerT>
void check_fc_sees_weight_changes(util::Rng& rng, const char* kind) {
  for (int trial = 0; trial < 20; ++trial) {
    const size_t in = static_cast<size_t>(rng.uniform_int(1, 40));
    const size_t n = static_cast<size_t>(rng.uniform_int(1, 40));
    LayerT layer = make_fuzz_fc<LayerT>(in, n, rng);
    const std::string shape =
        std::string(kind) + " " + std::to_string(in) + "->" + std::to_string(n);
    for (const KernelMode mode : {KernelMode::kDense, KernelMode::kSparse, KernelMode::kAuto}) {
      const std::string what = shape + " mode " + snn::kernel_mode_name(mode);
      const Tensor window = fuzz_window(rng, 6, in, true);
      Tensor grad_out(Shape{6, n});
      for (size_t i = 0; i < grad_out.numel(); ++i) {
        grad_out[i] = rng.bernoulli(0.3) ? 0.0f : fuzz_value(rng);
      }
      expect_fc_matches_oracle(layer, mode, window, grad_out, what + " first call");
      for (const snn::ParamView& p : layer.params()) {
        const size_t idx = rng.uniform_index(p.size);
        p.value[idx] = p.value[idx] == 1e5f ? -1e5f : 1e5f;  // one stored-weight fault
      }
      expect_fc_matches_oracle(layer, mode, window, grad_out, what + " second call");
    }
  }
}

TEST(KernelOracle, DenseAndRecurrentLayersSeeWeightsChangedBetweenCalls) {
  // kAuto runs binary frames as column adds over a column-major copy of W
  // (and V). A copy kept from the first call would serve the old weights to
  // the second after a ScopedFault rewrote one in place. The binary fuzz
  // windows hold +/-0.0 and 1.0 only, with fuzz weights up to +/-2^40.
  util::Rng rng(2806);
  check_fc_sees_weight_changes<snn::DenseLayer>(rng, "dense");
  check_fc_sees_weight_changes<snn::RecurrentLayer>(rng, "recurrent");
}

TEST(KernelOracle, SharedConvLayerFrameKernelFromManyThreads) {
  // LaneNetwork workers call conv_forward_frame concurrently on one const
  // layer; its scratch must be per thread (run under TSan in CI).
  util::Rng rng(2805);
  Conv2dSpec spec;
  spec.in_channels = 5;
  spec.in_height = 11;
  spec.in_width = 9;
  spec.out_channels = 13;
  spec.kernel = 3;
  spec.stride = 2;
  spec.padding = 1;
  const ConvLayer layer = make_fuzz_conv(spec, rng);
  constexpr size_t kThreads = 3;
  constexpr size_t kFrames = 24;
  std::vector<std::vector<float>> frames;
  std::vector<std::vector<float>> want;
  for (size_t f = 0; f < kFrames; ++f) {
    frames.push_back(fuzz_frame(rng, spec.input_size(), kDensities[f % 5], false));
    want.emplace_back(spec.output_size());
    test_support::naive_conv_forward_frame(spec, layer.weights().data(), frames[f].data(),
                                           want[f].data());
  }
  std::vector<std::vector<float>> got(kFrames, std::vector<float>(spec.output_size()));
  std::vector<std::thread> workers;
  for (size_t th = 0; th < kThreads; ++th) {
    workers.emplace_back([&, th] {
      for (size_t f = th; f < kFrames; f += kThreads) {
        layer.conv_forward_frame(frames[f].data(), got[f].data());
      }
    });
  }
  for (auto& w : workers) w.join();
  for (size_t f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(same_bytes(want[f].data(), got[f].data(), want[f].size())) << "frame " << f;
  }
}

}  // namespace
}  // namespace snntest
