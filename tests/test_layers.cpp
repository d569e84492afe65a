// Layer-level numerical correctness.
//
// The strongest checks are equivalence tests:
//  * ConvLayer vs an explicitly materialized DenseLayer with the same
//    connectivity — forward spikes, input gradients and (mapped) weight
//    gradients must agree exactly.
//  * RecurrentLayer with zero lateral weights vs DenseLayer — identical.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "snn/conv_layer.hpp"
#include "snn/dense_layer.hpp"
#include "snn/pool_layer.hpp"
#include "snn/recurrent_layer.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"

namespace snntest::snn {
namespace {

Tensor random_spikes(size_t T, size_t n, double density, uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(Shape{T, n});
  for (size_t i = 0; i < t.numel(); ++i) t[i] = rng.bernoulli(density) ? 1.0f : 0.0f;
  return t;
}

Tensor random_grad(size_t T, size_t n, uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(Shape{T, n});
  for (size_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

LifParams test_lif() {
  LifParams p;
  p.threshold = 1.0f;
  p.leak = 0.9f;
  p.refractory = 1;
  return p;
}

TEST(DenseLayer, ForwardShapeAndBinaryOutput) {
  DenseLayer layer(8, 5, test_lif());
  util::Rng rng(1);
  layer.init_weights(rng);
  const Tensor in = random_spikes(12, 8, 0.4, 2);
  const Tensor out = layer.forward(in, false);
  EXPECT_EQ(out.shape(), Shape({12, 5}));
  for (size_t i = 0; i < out.numel(); ++i) EXPECT_TRUE(out[i] == 0.0f || out[i] == 1.0f);
}

TEST(DenseLayer, RejectsWrongInputWidth) {
  DenseLayer layer(8, 5, test_lif());
  EXPECT_THROW(layer.forward(Tensor(Shape{4, 7}), false), std::invalid_argument);
}

TEST(DenseLayer, BackwardRequiresRecordedForward) {
  DenseLayer layer(4, 3, test_lif());
  layer.forward(random_spikes(5, 4, 0.5, 3), /*record_traces=*/false);
  EXPECT_THROW(layer.backward(random_grad(5, 3, 4)), std::logic_error);
}

TEST(DenseLayer, StrongPositiveWeightsDriveSpikes) {
  DenseLayer layer(2, 1, test_lif());
  layer.weights() = {2.0f, 2.0f};
  Tensor in(Shape{1, 2}, std::vector<float>{1.0f, 0.0f});
  const Tensor out = layer.forward(in, false);
  EXPECT_EQ(out[0], 1.0f);
}

TEST(DenseLayer, WeightGradAccumulates) {
  DenseLayer layer(3, 2, test_lif());
  util::Rng rng(5);
  layer.init_weights(rng);
  const Tensor in = random_spikes(6, 3, 0.6, 6);
  layer.forward(in, true);
  layer.backward(random_grad(6, 2, 7));
  auto params = layer.params();
  double norm = 0.0;
  for (size_t i = 0; i < params[0].size; ++i) norm += std::fabs(params[0].grad[i]);
  EXPECT_GT(norm, 0.0);
  layer.zero_grad();
  norm = 0.0;
  for (size_t i = 0; i < params[0].size; ++i) norm += std::fabs(params[0].grad[i]);
  EXPECT_EQ(norm, 0.0);
}

TEST(ConvLayer, OutputGeometry) {
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.in_height = 16;
  spec.in_width = 16;
  spec.out_channels = 8;
  spec.kernel = 3;
  spec.stride = 2;
  spec.padding = 1;
  EXPECT_EQ(spec.out_height(), 8u);
  EXPECT_EQ(spec.out_width(), 8u);
  EXPECT_EQ(spec.output_size(), 512u);
  EXPECT_EQ(spec.weight_count(), 8u * 2u * 9u);
}

TEST(ConvLayer, ConnectionCountExcludesPaddingTaps) {
  Conv2dSpec spec;
  spec.in_channels = 1;
  spec.in_height = 4;
  spec.in_width = 4;
  spec.out_channels = 1;
  spec.kernel = 3;
  spec.stride = 1;
  spec.padding = 1;
  ConvLayer layer(spec, test_lif());
  // interior outputs have 9 taps, edges fewer; total taps for 4x4 with
  // padding 1: corners 4x4, edges 8x6, interior 4x9 = 16+48+36 = 100
  EXPECT_EQ(layer.num_connections(), 100u);
  EXPECT_EQ(layer.num_weights(), 9u);
}

/// Materialize a conv layer as a dense layer with identical connectivity.
DenseLayer densify(const ConvLayer& conv) {
  const auto& spec = conv.spec();
  DenseLayer dense(spec.input_size(), spec.output_size(), conv.lif().defaults());
  auto& w = dense.weights();
  std::fill(w.begin(), w.end(), 0.0f);
  const auto& cw = conv.weights();
  const size_t oh = spec.out_height();
  const size_t ow = spec.out_width();
  const size_t k = spec.kernel;
  for (size_t oc = 0; oc < spec.out_channels; ++oc) {
    for (size_t oy = 0; oy < oh; ++oy) {
      for (size_t ox = 0; ox < ow; ++ox) {
        const size_t out_idx = (oc * oh + oy) * ow + ox;
        for (size_t ic = 0; ic < spec.in_channels; ++ic) {
          for (size_t ky = 0; ky < k; ++ky) {
            const long iy = static_cast<long>(oy * spec.stride + ky) -
                            static_cast<long>(spec.padding);
            if (iy < 0 || iy >= static_cast<long>(spec.in_height)) continue;
            for (size_t kx = 0; kx < k; ++kx) {
              const long ix = static_cast<long>(ox * spec.stride + kx) -
                              static_cast<long>(spec.padding);
              if (ix < 0 || ix >= static_cast<long>(spec.in_width)) continue;
              const size_t in_idx =
                  (ic * spec.in_height + static_cast<size_t>(iy)) * spec.in_width +
                  static_cast<size_t>(ix);
              w[out_idx * spec.input_size() + in_idx] =
                  cw[((oc * spec.in_channels + ic) * k + ky) * k + kx];
            }
          }
        }
      }
    }
  }
  return dense;
}

class ConvDenseEquivalence : public testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(ConvDenseEquivalence, ForwardAndBackwardMatch) {
  const auto [stride, padding, channels] = GetParam();
  Conv2dSpec spec;
  spec.in_channels = channels;
  spec.in_height = 6;
  spec.in_width = 6;
  spec.out_channels = 3;
  spec.kernel = 3;
  spec.stride = stride;
  spec.padding = padding;
  ConvLayer conv(spec, test_lif());
  util::Rng rng(42);
  conv.init_weights(rng);
  DenseLayer dense = densify(conv);

  const size_t T = 8;
  const Tensor in = random_spikes(T, spec.input_size(), 0.35, 43);
  const Tensor conv_out = conv.forward(in, true);
  const Tensor dense_out = dense.forward(in, true);
  ASSERT_EQ(conv_out.shape(), dense_out.shape());
  for (size_t i = 0; i < conv_out.numel(); ++i) {
    ASSERT_EQ(conv_out[i], dense_out[i]) << "forward mismatch at " << i;
  }

  const Tensor grad_out = random_grad(T, spec.output_size(), 44);
  const Tensor conv_gin = conv.backward(grad_out);
  const Tensor dense_gin = dense.backward(grad_out);
  ASSERT_EQ(conv_gin.shape(), dense_gin.shape());
  for (size_t i = 0; i < conv_gin.numel(); ++i) {
    ASSERT_NEAR(conv_gin[i], dense_gin[i], 1e-4) << "grad_in mismatch at " << i;
  }

  // Conv weight gradient == sum of the dense gradients over all positions
  // sharing that kernel tap.
  auto conv_params = conv.params();
  auto dense_params = dense.params();
  const size_t oh = spec.out_height();
  const size_t ow = spec.out_width();
  const size_t k = spec.kernel;
  for (size_t oc = 0; oc < spec.out_channels; ++oc) {
    for (size_t ic = 0; ic < spec.in_channels; ++ic) {
      for (size_t ky = 0; ky < k; ++ky) {
        for (size_t kx = 0; kx < k; ++kx) {
          double expected = 0.0;
          for (size_t oy = 0; oy < oh; ++oy) {
            const long iy = static_cast<long>(oy * spec.stride + ky) -
                            static_cast<long>(spec.padding);
            if (iy < 0 || iy >= static_cast<long>(spec.in_height)) continue;
            for (size_t ox = 0; ox < ow; ++ox) {
              const long ix = static_cast<long>(ox * spec.stride + kx) -
                              static_cast<long>(spec.padding);
              if (ix < 0 || ix >= static_cast<long>(spec.in_width)) continue;
              const size_t out_idx = (oc * oh + oy) * ow + ox;
              const size_t in_idx =
                  (ic * spec.in_height + static_cast<size_t>(iy)) * spec.in_width +
                  static_cast<size_t>(ix);
              expected += dense_params[0].grad[out_idx * spec.input_size() + in_idx];
            }
          }
          const size_t widx = ((oc * spec.in_channels + ic) * k + ky) * k + kx;
          ASSERT_NEAR(conv_params[0].grad[widx], expected, 1e-3)
              << "kernel grad mismatch at " << widx;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvDenseEquivalence,
                         testing::Values(std::tuple<size_t, size_t, size_t>{1, 0, 1},
                                         std::tuple<size_t, size_t, size_t>{1, 1, 2},
                                         std::tuple<size_t, size_t, size_t>{2, 1, 2},
                                         std::tuple<size_t, size_t, size_t>{2, 0, 1},
                                         std::tuple<size_t, size_t, size_t>{3, 1, 1}));

/// Sparse and dense forward kernels must produce bit-identical spike trains
/// for every layer type, density and mode (the KernelMode contract).
template <typename LayerT>
void expect_kernel_modes_identical(const LayerT& reference, const Tensor& in) {
  LayerT dense_layer(reference);
  dense_layer.set_kernel_mode(KernelMode::kDense);
  const Tensor out_dense = dense_layer.forward(in, false);
  for (const KernelMode mode : {KernelMode::kSparse, KernelMode::kAuto}) {
    LayerT layer(reference);
    layer.set_kernel_mode(mode);
    const Tensor out = layer.forward(in, false);
    ASSERT_EQ(out.shape(), out_dense.shape());
    for (size_t i = 0; i < out.numel(); ++i) {
      ASSERT_EQ(out[i], out_dense[i])
          << "mode " << static_cast<int>(mode) << " diverges at " << i;
    }
  }
}

TEST(SparseKernels, DenseLayerBitIdenticalAcrossDensities) {
  DenseLayer layer(48, 32, test_lif());
  util::Rng rng(71);
  layer.init_weights(rng, 1.3f);
  for (const double density : {0.0, 0.02, 0.1, 0.3, 0.7}) {
    expect_kernel_modes_identical(layer, random_spikes(16, 48, density, 72));
  }
}

TEST(SparseKernels, ConvLayerBitIdenticalAcrossGeometries) {
  const std::pair<size_t, size_t> geometries[] = {{1, 0}, {1, 1}, {2, 1}, {3, 1}};
  for (const auto& [stride, padding] : geometries) {
    Conv2dSpec spec;
    spec.in_channels = 2;
    spec.in_height = 9;
    spec.in_width = 7;
    spec.out_channels = 3;
    spec.kernel = 3;
    spec.stride = stride;
    spec.padding = padding;
    ConvLayer layer(spec, test_lif());
    util::Rng rng(73);
    layer.init_weights(rng, 1.2f);
    for (const double density : {0.03, 0.15, 0.6}) {
      expect_kernel_modes_identical(layer, random_spikes(10, spec.input_size(), density, 74));
    }
  }
}

TEST(SparseKernels, ConvLayerBitIdenticalUnderConnectionFault) {
  Conv2dSpec spec;
  spec.in_channels = 1;
  spec.in_height = 8;
  spec.in_width = 8;
  spec.out_channels = 2;
  spec.kernel = 3;
  spec.stride = 1;
  spec.padding = 1;
  ConvLayer layer(spec, test_lif());
  util::Rng rng(75);
  layer.init_weights(rng, 1.2f);
  // Fault the connection from input (0,3,3) to output (1,3,3): same spatial
  // position, centre tap.
  const size_t in_idx = 3 * spec.in_width + 3;
  const size_t out_idx = (1 * spec.out_height() + 3) * spec.out_width() + 3;
  layer.set_connection_override(out_idx, in_idx, 5.0f);
  expect_kernel_modes_identical(layer, random_spikes(12, spec.input_size(), 0.08, 76));
}

TEST(SparseKernels, RecurrentLayerBitIdentical) {
  RecurrentLayer layer(24, 20, test_lif());
  util::Rng rng(77);
  layer.init_weights(rng, 1.3f, 0.6f);
  for (const double density : {0.05, 0.4}) {
    expect_kernel_modes_identical(layer, random_spikes(14, 24, density, 78));
  }
}

/// Everything one recorded forward + backward of a layer produces.
struct LayerRun {
  Tensor out;
  std::vector<float> u_pre;
  std::vector<uint8_t> spikes;
  std::vector<uint8_t> integrated;
  Tensor grad_in;
  std::vector<std::vector<float>> param_grads;
};

template <typename LayerT>
LayerRun run_layer(const LayerT& reference, KernelMode mode, const Tensor& in,
                   const Tensor& grad_out) {
  LayerT layer(reference);
  layer.set_kernel_mode(mode);
  LayerRun run;
  run.out = layer.forward(in, true);
  run.u_pre = layer.lif().trace_u_pre();
  run.spikes = layer.lif().trace_spikes();
  run.integrated = layer.lif().trace_integrated();
  run.grad_in = layer.backward(grad_out);
  for (const ParamView& p : layer.params()) run.param_grads.emplace_back(p.grad, p.grad + p.size);
  return run;
}

bool same_floats(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// Every KernelMode under every SIMD backend must reproduce the kDense run
/// on the portable scalar kernels: spikes, LIF traces, input gradient and
/// weight gradients, bit for bit.
template <typename LayerT>
void expect_modes_and_backends_identical(const LayerT& reference, const Tensor& in,
                                         const Tensor& grad_out) {
  struct BackendGuard {
    tensor::simd::Backend prior = tensor::simd::active_backend();
    ~BackendGuard() { tensor::simd::force_backend(prior); }
  } guard;
  ASSERT_TRUE(tensor::simd::force_backend(tensor::simd::Backend::kScalar));
  const LayerRun want = run_layer(reference, KernelMode::kDense, in, grad_out);
  const size_t spikes = want.out.count_nonzero();
  ASSERT_GT(spikes, 0u) << "the window must make the layer fire";
  ASSERT_LT(spikes, want.out.numel()) << "and leave it silent somewhere";
  for (const tensor::simd::Backend b : tensor::simd::available_backends()) {
    ASSERT_TRUE(tensor::simd::force_backend(b));
    for (const KernelMode mode : {KernelMode::kDense, KernelMode::kSparse, KernelMode::kAuto}) {
      SCOPED_TRACE(std::string("backend=") + tensor::simd::backend_name(b) + " mode=" +
                   kernel_mode_name(mode));
      const LayerRun got = run_layer(reference, mode, in, grad_out);
      ASSERT_EQ(got.out.shape(), want.out.shape());
      EXPECT_TRUE(same_floats(got.out.data(), want.out.data(), want.out.numel())) << "spikes";
      EXPECT_TRUE(same_floats(got.u_pre.data(), want.u_pre.data(), want.u_pre.size()))
          << "u_pre trace";
      EXPECT_EQ(got.spikes, want.spikes) << "spike trace";
      EXPECT_EQ(got.integrated, want.integrated) << "integrated trace";
      EXPECT_TRUE(same_floats(got.grad_in.data(), want.grad_in.data(), want.grad_in.numel()))
          << "input gradient";
      ASSERT_EQ(got.param_grads.size(), want.param_grads.size());
      for (size_t k = 0; k < want.param_grads.size(); ++k) {
        EXPECT_TRUE(same_floats(got.param_grads[k].data(), want.param_grads[k].data(),
                                want.param_grads[k].size()))
            << "weight gradient " << k;
      }
    }
  }
}

/// A window for kAuto's binary-frame path: binary frames from sparse to
/// all-ones, all-zero frames, and one frame holding a 0.5 (not binary, so
/// kAuto falls back to the matvecs for that frame only).
Tensor binary_half_and_silent_window(size_t T, size_t n, uint64_t seed) {
  util::Rng rng(seed);
  const double densities[] = {0.05, 0.3, 0.7, 1.0};
  Tensor t(Shape{T, n});
  for (size_t r = 0; r < T; ++r) {
    if (r % 4 == 3) continue;  // all-zero frame
    const double density = densities[r % 4 == 0 ? (r / 4) % 4 : r % 4];
    for (size_t i = 0; i < n; ++i) t.row(r)[i] = rng.bernoulli(density) ? 1.0f : 0.0f;
  }
  t.row(5)[n / 2] = 0.5f;
  return t;
}

TEST(KernelModes, DenseLayerIdenticalOnBinaryHalfAndSilentFrames) {
  // 21 neurons walk the column adds' 16-row and 4-row blocks and a row tail.
  DenseLayer layer(37, 21, test_lif());
  util::Rng rng(81);
  layer.init_weights(rng, 1.4f);
  expect_modes_and_backends_identical(layer, binary_half_and_silent_window(16, 37, 82),
                                      random_grad(16, 21, 83));
}

TEST(KernelModes, RecurrentLayerIdenticalOnBinaryHalfAndSilentFrames) {
  // The lateral input is the layer's own (binary) output, so V takes the
  // column adds on every frame while W falls back on the 0.5 frame.
  RecurrentLayer layer(29, 23, test_lif());
  util::Rng rng(84);
  layer.init_weights(rng, 1.4f, 0.8f);
  expect_modes_and_backends_identical(layer, binary_half_and_silent_window(16, 29, 85),
                                      random_grad(16, 23, 86));
}

/// Regression for the faulted-backward inconsistency: forward applies an
/// active connection override but backward used to ignore it, so gradients
/// through a connection-faulted conv layer disagreed with its own forward.
/// A finite-difference probe of the spiking forward is ill-defined (the
/// Heaviside output is piecewise constant), so the operative consistency
/// check is the file's strongest idiom: the faulted conv must match a
/// materialized dense layer whose weight matrix carries the same fault —
/// bit-equal spikes forward, matching input/weight gradients backward.
TEST(ConvLayer, BackwardConsistentWithForwardUnderConnectionFault) {
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.in_height = 6;
  spec.in_width = 6;
  spec.out_channels = 3;
  spec.kernel = 3;
  spec.stride = 1;
  spec.padding = 1;
  ConvLayer conv(spec, test_lif());
  util::Rng rng(81);
  conv.init_weights(rng);
  DenseLayer dense = densify(conv);

  // Fault one connection with a large delta so an ignored override is loud.
  const size_t in_idx = (1 * spec.in_height + 2) * spec.in_width + 4;
  const size_t out_idx = (2 * spec.out_height() + 2) * spec.out_width() + 4;
  const float faulty_weight = conv.connection_weight(out_idx, in_idx) + 3.0f;
  conv.set_connection_override(out_idx, in_idx, faulty_weight);
  dense.weights()[out_idx * spec.input_size() + in_idx] = faulty_weight;

  const size_t T = 8;
  const Tensor in = random_spikes(T, spec.input_size(), 0.35, 82);
  const Tensor conv_out = conv.forward(in, true);
  const Tensor dense_out = dense.forward(in, true);
  ASSERT_EQ(conv_out.shape(), dense_out.shape());
  for (size_t i = 0; i < conv_out.numel(); ++i) {
    ASSERT_EQ(conv_out[i], dense_out[i]) << "faulted forward mismatch at " << i;
  }

  const Tensor grad_out = random_grad(T, spec.output_size(), 83);
  const Tensor conv_gin = conv.backward(grad_out);
  const Tensor dense_gin = dense.backward(grad_out);
  ASSERT_EQ(conv_gin.shape(), dense_gin.shape());
  for (size_t i = 0; i < conv_gin.numel(); ++i) {
    ASSERT_NEAR(conv_gin[i], dense_gin[i], 1e-4) << "faulted grad_in mismatch at " << i;
  }

  // The stored-weight gradient is unaffected by the additive fault: the tap
  // serving the faulted connection still accumulates g * input, so the
  // densified sum over positions sharing the tap must still match.
  auto conv_params = conv.params();
  auto dense_params = dense.params();
  const size_t k = spec.kernel;
  for (size_t widx = 0; widx < conv_params[0].size; ++widx) {
    const size_t kx = widx % k;
    const size_t ky = (widx / k) % k;
    const size_t ic = (widx / (k * k)) % spec.in_channels;
    const size_t oc = widx / (k * k * spec.in_channels);
    double expected = 0.0;
    for (size_t oy = 0; oy < spec.out_height(); ++oy) {
      const long iy = static_cast<long>(oy * spec.stride + ky) - static_cast<long>(spec.padding);
      if (iy < 0 || iy >= static_cast<long>(spec.in_height)) continue;
      for (size_t ox = 0; ox < spec.out_width(); ++ox) {
        const long ix = static_cast<long>(ox * spec.stride + kx) - static_cast<long>(spec.padding);
        if (ix < 0 || ix >= static_cast<long>(spec.in_width)) continue;
        const size_t o = (oc * spec.out_height() + oy) * spec.out_width() + ox;
        const size_t ii =
            (ic * spec.in_height + static_cast<size_t>(iy)) * spec.in_width +
            static_cast<size_t>(ix);
        expected += dense_params[0].grad[o * spec.input_size() + ii];
      }
    }
    ASSERT_NEAR(conv_params[0].grad[widx], expected, 1e-3) << "kernel grad mismatch at " << widx;
  }
}

TEST(RecurrentLayer, ZeroLateralEqualsDense) {
  const size_t in = 6, out = 5, T = 10;
  RecurrentLayer rec(in, out, test_lif());
  util::Rng rng(9);
  rec.init_weights(rng, 1.0f, 0.0f);
  std::fill(rec.recurrent_weights().begin(), rec.recurrent_weights().end(), 0.0f);
  DenseLayer dense(in, out, test_lif());
  dense.weights() = rec.weights();

  const Tensor input = random_spikes(T, in, 0.4, 10);
  const Tensor rec_out = rec.forward(input, true);
  const Tensor dense_out = dense.forward(input, true);
  for (size_t i = 0; i < rec_out.numel(); ++i) ASSERT_EQ(rec_out[i], dense_out[i]);

  const Tensor grad_out = random_grad(T, out, 11);
  const Tensor g1 = rec.backward(grad_out);
  const Tensor g2 = dense.backward(grad_out);
  for (size_t i = 0; i < g1.numel(); ++i) ASSERT_NEAR(g1[i], g2[i], 1e-5);

  auto rp = rec.params();
  auto dp = dense.params();
  for (size_t i = 0; i < dp[0].size; ++i) ASSERT_NEAR(rp[0].grad[i], dp[0].grad[i], 1e-4);
}

TEST(RecurrentLayer, LateralWeightsChangeDynamics) {
  const size_t n = 4, T = 12;
  RecurrentLayer rec(n, n, test_lif());
  util::Rng rng(12);
  rec.init_weights(rng, 1.2f, 0.0f);
  const Tensor input = random_spikes(T, n, 0.6, 13);
  const Tensor base = rec.forward(input, false);
  // strong excitatory lateral weights should add spikes
  for (auto& w : rec.recurrent_weights()) w = 1.5f;
  for (size_t i = 0; i < n; ++i) rec.recurrent_weights()[i * n + i] = 0.0f;
  const Tensor excited = rec.forward(input, false);
  EXPECT_GE(excited.count_nonzero(), base.count_nonzero());
}

TEST(RecurrentLayer, NoSelfLoopsAfterInit) {
  RecurrentLayer rec(3, 7, test_lif());
  util::Rng rng(14);
  rec.init_weights(rng);
  for (size_t i = 0; i < 7; ++i) EXPECT_EQ(rec.recurrent_weights()[i * 7 + i], 0.0f);
}

TEST(SumPoolLayer, DownsamplesEvents) {
  SumPoolSpec spec;
  spec.channels = 1;
  spec.in_height = 4;
  spec.in_width = 4;
  spec.window = 2;
  LifParams p = test_lif();
  p.threshold = 0.9f;  // one spike in the window is enough to fire
  SumPoolLayer pool(spec, p);
  Tensor in(Shape{1, 16});
  in[0] = 1.0f;  // top-left pixel
  const Tensor out = pool.forward(in, false);
  EXPECT_EQ(out.shape(), Shape({1, 4}));
  EXPECT_EQ(out[0], 1.0f);
  EXPECT_EQ(out[1], 0.0f);
}

TEST(SumPoolLayer, HasNoTrainableWeights) {
  SumPoolSpec spec;
  spec.channels = 2;
  spec.in_height = 4;
  spec.in_width = 4;
  spec.window = 2;
  SumPoolLayer pool(spec, test_lif());
  EXPECT_TRUE(pool.params().empty());
  EXPECT_EQ(pool.num_weights(), 0u);
  EXPECT_EQ(pool.num_connections(), 2u * 4u * 4u);
}

TEST(LayerClone, IndependentCopies) {
  DenseLayer layer(3, 2, test_lif());
  util::Rng rng(15);
  layer.init_weights(rng);
  auto copy = layer.clone();
  static_cast<DenseLayer*>(copy.get())->weights()[0] += 1.0f;
  EXPECT_NE(static_cast<DenseLayer*>(copy.get())->weights()[0], layer.weights()[0]);
}

}  // namespace
}  // namespace snntest::snn
