// Gumbel-Softmax + STE input parameterization tests (Eqs. 17-19):
// binarization, temperature behaviour, the backward chain rule, window
// growth, and determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "core/gumbel.hpp"
#include "support/naive_optimizer.hpp"
#include "tensor/simd.hpp"

namespace snntest::core {
namespace {

TEST(Gumbel, ForwardIsBinary) {
  util::Rng rng(1);
  GumbelSoftmaxInput input(10, 8, rng);
  const Tensor& b = input.forward(0.5, true);
  EXPECT_EQ(b.shape(), Shape({10, 8}));
  for (size_t i = 0; i < b.numel(); ++i) EXPECT_TRUE(b[i] == 0.0f || b[i] == 1.0f);
}

TEST(Gumbel, DeterministicModeFollowsLogitSign) {
  util::Rng rng(2);
  GumbelSoftmaxInput input(2, 2, rng);
  Tensor& real = input.mutable_real();
  real[0] = 5.0f;
  real[1] = -5.0f;
  real[2] = 3.0f;
  real[3] = -0.1f;
  const Tensor& b = input.forward(0.5, /*stochastic=*/false);
  EXPECT_EQ(b[0], 1.0f);
  EXPECT_EQ(b[1], 0.0f);
  EXPECT_EQ(b[2], 1.0f);
  EXPECT_EQ(b[3], 0.0f);
}

TEST(Gumbel, StochasticModeExplores) {
  util::Rng rng(3);
  GumbelSoftmaxInput input(20, 20, rng);
  input.mutable_real().fill(0.0f);  // 50/50 logits
  const Tensor a = input.forward(0.9, true);
  const Tensor b = input.forward(0.9, true);
  double diff = 0.0;
  for (size_t i = 0; i < a.numel(); ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff, 0.0);  // fresh noise each call
}

TEST(Gumbel, TemperatureScalesBackwardSlope) {
  // The STE binarization at 0.5 makes the *forward* invariant to tau
  // (sigmoid(x/tau) > 0.5 iff x > 0); tau controls how much gradient leaks
  // through: dsoft/dreal at logit 0 is 0.25/tau.
  auto slope_at_zero = [](double tau) {
    util::Rng rng(4);
    GumbelSoftmaxInput input(1, 1, rng);
    input.mutable_real()[0] = 0.0f;
    input.forward(tau, /*stochastic=*/false);
    Tensor ones(Shape{1, 1}, 1.0f);
    input.backward(ones);
    return input.grad_data()[0];
  };
  EXPECT_NEAR(slope_at_zero(0.5), 0.5f, 1e-4);
  EXPECT_NEAR(slope_at_zero(0.25), 1.0f, 1e-4);
  EXPECT_GT(slope_at_zero(0.1), slope_at_zero(1.0));
}

TEST(Gumbel, BackwardAppliesChainRule) {
  util::Rng rng(5);
  GumbelSoftmaxInput input(1, 3, rng);
  Tensor& real = input.mutable_real();
  real[0] = 0.0f;   // soft = 0.5 -> max slope
  real[1] = 8.0f;   // soft ~ 1 -> near-zero slope
  real[2] = -8.0f;  // soft ~ 0 -> near-zero slope
  const double tau = 0.5;
  input.forward(tau, /*stochastic=*/false);
  Tensor grad_in(Shape{1, 3}, std::vector<float>{1.0f, 1.0f, 1.0f});
  input.backward(grad_in);
  // dsoft/dreal = s(1-s)/tau: at s=0.5 -> 0.25/0.5 = 0.5
  EXPECT_NEAR(input.grad_data()[0], 0.5f, 1e-4);
  EXPECT_NEAR(input.grad_data()[1], 0.0f, 1e-4);
  EXPECT_NEAR(input.grad_data()[2], 0.0f, 1e-4);
}

TEST(Gumbel, BackwardShapeChecked) {
  util::Rng rng(6);
  GumbelSoftmaxInput input(4, 4, rng);
  input.forward(0.5, false);
  EXPECT_THROW(input.backward(Tensor(Shape{2, 4})), std::invalid_argument);
}

TEST(Gumbel, InvalidTauRejected) {
  util::Rng rng(7);
  GumbelSoftmaxInput input(2, 2, rng);
  EXPECT_THROW(input.forward(0.0, true), std::invalid_argument);
  EXPECT_THROW(input.forward(-1.0, true), std::invalid_argument);
  // A NaN tau compares false against 0 and an infinite one sends every
  // logit to 0: both would silently give an all-zero input or gradient.
  for (const double tau : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(input.forward(tau, true), std::invalid_argument) << tau;
    EXPECT_THROW(input.forward(tau, false), std::invalid_argument) << tau;
  }
}

TEST(Gumbel, ForwardMatchesScalarOracleOnEveryBackend) {
  // The forward runs in fixed-size chunks through the SIMD table; on every
  // backend, window sizes below, at and across the chunk size must give the
  // oracle's soft and binary values bit for bit and leave the noise stream
  // where the oracle leaves it (g1 then g2 per element).
  struct BackendGuard {
    tensor::simd::Backend prior = tensor::simd::active_backend();
    ~BackendGuard() { tensor::simd::force_backend(prior); }
  } guard;
  for (const tensor::simd::Backend b : tensor::simd::available_backends()) {
    ASSERT_TRUE(tensor::simd::force_backend(b));
    for (const size_t steps : {1, 7, 32, 33, 70}) {
      SCOPED_TRACE(std::string(tensor::simd::backend_name(b)) + " steps=" +
                   std::to_string(steps));
      util::Rng init(11 + steps);
      GumbelSoftmaxInput input(steps, 8, init);
      input.mutable_real()[0] = -0.0f;
      util::Rng oracle_noise = init;  // the stream forward() draws from next
      Tensor soft(input.real().shape()), binary(input.real().shape());
      for (const bool stochastic : {true, false, true}) {
        for (const double tau : {0.9, 0.25}) {
          input.forward(tau, stochastic);
          test_support::naive_gumbel_forward(input.real(), tau, stochastic, oracle_noise, soft,
                                             binary);
          ASSERT_EQ(std::memcmp(input.binary().data(), binary.data(),
                                binary.numel() * sizeof(float)),
                    0);
          // The soft values feed the backward: compare through it.
          Tensor ones(input.real().shape(), 1.0f);
          input.backward(ones);
          for (size_t i = 0; i < soft.numel(); ++i) {
            const float want = static_cast<float>(1.0 * soft[i] * (1.0 - soft[i]) / tau);
            ASSERT_EQ(std::memcmp(&input.grad_data()[i], &want, sizeof(float)), 0) << i;
          }
        }
      }
      EXPECT_EQ(init.next(), oracle_noise.next()) << "noise stream out of step";
    }
  }
}

TEST(Gumbel, GrowPreservesOptimizedPrefix) {
  util::Rng rng(8);
  GumbelSoftmaxInput input(5, 3, rng);
  const std::vector<float> before(input.real().data(), input.real().data() + 15);
  util::Rng rng2(9);
  input.grow(4, rng2);
  EXPECT_EQ(input.num_steps(), 9u);
  EXPECT_EQ(input.num_channels(), 3u);
  for (size_t i = 0; i < 15; ++i) EXPECT_EQ(input.real()[i], before[i]);
  // new tail is initialized (not all zeros)
  double tail = 0.0;
  for (size_t i = 15; i < input.size(); ++i) tail += std::abs(input.real()[i]);
  EXPECT_GT(tail, 0.0);
}

TEST(Gumbel, InitialBiasControlsDensity) {
  util::Rng rng_a(10);
  GumbelSoftmaxInput sparse(30, 30, rng_a, -3.0f);
  util::Rng rng_b(10);
  GumbelSoftmaxInput dense(30, 30, rng_b, +3.0f);
  const double sparse_density =
      static_cast<double>(sparse.forward(0.5, false).count_nonzero()) / 900.0;
  const double dense_density =
      static_cast<double>(dense.forward(0.5, false).count_nonzero()) / 900.0;
  EXPECT_LT(sparse_density, 0.2);
  EXPECT_GT(dense_density, 0.8);
}

TEST(Gumbel, SameSeedSameTrajectory) {
  util::Rng rng_a(11);
  util::Rng rng_b(11);
  GumbelSoftmaxInput a(6, 6, rng_a);
  GumbelSoftmaxInput b(6, 6, rng_b);
  const Tensor& ba = a.forward(0.7, true);
  const Tensor& bb = b.forward(0.7, true);
  for (size_t i = 0; i < ba.numel(); ++i) ASSERT_EQ(ba[i], bb[i]);
}

}  // namespace
}  // namespace snntest::core
