// Tests for the LIF neuron bank: integrate-and-fire semantics, leak,
// refractory period, fault modes, trace recording, and the BPTT backward —
// including TEST_P parameter sweeps over the LIF parameter grid.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

#include "snn/neuron.hpp"
#include "support/naive_optimizer.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"

namespace snntest::snn {
namespace {

/// Drive a single neuron with a constant synaptic current and collect spikes.
std::vector<float> drive(LifBank& bank, const std::vector<float>& syn_per_step,
                         bool record = false) {
  bank.begin_run(syn_per_step.size(), record);
  std::vector<float> spikes(syn_per_step.size());
  float out = 0.0f;
  for (size_t t = 0; t < syn_per_step.size(); ++t) {
    bank.step(&syn_per_step[t], &out);
    spikes[t] = out;
  }
  return spikes;
}

TEST(LifBank, SilentWithoutInput) {
  LifBank bank(1, LifParams{});
  const auto spikes = drive(bank, std::vector<float>(10, 0.0f));
  for (float s : spikes) EXPECT_EQ(s, 0.0f);
}

TEST(LifBank, FiresWhenDriveExceedsThreshold) {
  LifParams p;
  p.threshold = 1.0f;
  LifBank bank(1, p);
  const auto spikes = drive(bank, std::vector<float>(3, 1.5f));
  EXPECT_EQ(spikes[0], 1.0f);
}

TEST(LifBank, IntegratesSubthresholdInputs) {
  LifParams p;
  p.threshold = 1.0f;
  p.leak = 1.0f;  // no decay: pure integrator
  LifBank bank(1, p);
  const auto spikes = drive(bank, std::vector<float>(5, 0.4f));
  // 0.4, 0.8, 1.2 -> fires at step 2
  EXPECT_EQ(spikes[0], 0.0f);
  EXPECT_EQ(spikes[1], 0.0f);
  EXPECT_EQ(spikes[2], 1.0f);
}

TEST(LifBank, LeakPreventsAccumulation) {
  LifParams p;
  p.threshold = 1.0f;
  p.leak = 0.5f;  // strong leak: u converges to 0.4/(1-0.5*...) < 1
  LifBank bank(1, p);
  const auto spikes = drive(bank, std::vector<float>(50, 0.4f));
  for (float s : spikes) EXPECT_EQ(s, 0.0f);
}

TEST(LifBank, RefractoryPeriodSuppressesSpikes) {
  LifParams p;
  p.threshold = 1.0f;
  p.refractory = 2;
  LifBank bank(1, p);
  const auto spikes = drive(bank, std::vector<float>(6, 2.0f));
  // fire at t=0, refractory t=1,2, fire at t=3, refractory 4,5
  EXPECT_EQ(spikes[0], 1.0f);
  EXPECT_EQ(spikes[1], 0.0f);
  EXPECT_EQ(spikes[2], 0.0f);
  EXPECT_EQ(spikes[3], 1.0f);
  EXPECT_EQ(spikes[4], 0.0f);
}

TEST(LifBank, ZeroRefractoryAllowsBackToBackSpikes) {
  LifParams p;
  p.threshold = 1.0f;
  p.refractory = 0;
  LifBank bank(1, p);
  const auto spikes = drive(bank, std::vector<float>(4, 2.0f));
  for (float s : spikes) EXPECT_EQ(s, 1.0f);
}

TEST(LifBank, ResetBetweenRuns) {
  LifParams p;
  p.threshold = 1.0f;
  p.leak = 1.0f;
  LifBank bank(1, p);
  // First run charges to 0.9
  drive(bank, std::vector<float>(1, 0.9f));
  // Fresh run must start from reset: 0.9 again does not fire
  const auto spikes = drive(bank, std::vector<float>(1, 0.9f));
  EXPECT_EQ(spikes[0], 0.0f);
}

TEST(LifBank, DeadNeuronNeverSpikes) {
  LifBank bank(1, LifParams{});
  bank.modes()[0] = NeuronMode::kDead;
  const auto spikes = drive(bank, std::vector<float>(10, 5.0f));
  for (float s : spikes) EXPECT_EQ(s, 0.0f);
}

TEST(LifBank, SaturatedNeuronAlwaysSpikes) {
  LifBank bank(1, LifParams{});
  bank.modes()[0] = NeuronMode::kSaturated;
  const auto spikes = drive(bank, std::vector<float>(10, 0.0f));
  for (float s : spikes) EXPECT_EQ(s, 1.0f);
}

TEST(LifBank, RestoreDefaultsClearsFaults) {
  LifParams p;
  LifBank bank(3, p);
  bank.modes()[1] = NeuronMode::kDead;
  bank.thresholds()[2] = 99.0f;
  bank.leaks()[0] = 0.1f;
  bank.refractories()[0] = 7;
  bank.restore_defaults();
  EXPECT_EQ(bank.modes()[1], NeuronMode::kNormal);
  EXPECT_EQ(bank.thresholds()[2], p.threshold);
  EXPECT_EQ(bank.leaks()[0], p.leak);
  EXPECT_EQ(bank.refractories()[0], p.refractory);
}

TEST(LifBank, PerNeuronThresholdIndependent) {
  LifBank bank(2, LifParams{});
  bank.thresholds()[0] = 0.5f;
  bank.thresholds()[1] = 10.0f;
  bank.begin_run(1, false);
  const float syn[2] = {1.0f, 1.0f};
  float out[2];
  bank.step(syn, out);
  EXPECT_EQ(out[0], 1.0f);
  EXPECT_EQ(out[1], 0.0f);
}

TEST(LifBank, InvalidParamsRejected) {
  LifParams bad;
  bad.threshold = -1.0f;
  EXPECT_THROW(LifBank(1, bad), std::invalid_argument);
  bad = LifParams{};
  bad.leak = 0.0f;
  EXPECT_THROW(LifBank(1, bad), std::invalid_argument);
  bad = LifParams{};
  bad.leak = 1.5f;
  EXPECT_THROW(LifBank(1, bad), std::invalid_argument);
  bad = LifParams{};
  bad.refractory = -1;
  EXPECT_THROW(LifBank(1, bad), std::invalid_argument);
}

TEST(LifBankBackward, RequiresRecordedForward) {
  LifBank bank(1, LifParams{});
  drive(bank, std::vector<float>(3, 0.0f), /*record=*/false);
  SurrogateConfig sg;
  std::vector<float> grad_spikes(3, 1.0f), grad_syn(3);
  EXPECT_THROW(bank.backward(grad_spikes.data(), 3, sg, grad_syn.data()), std::logic_error);
}

TEST(LifBankBackward, HandComputedTwoStepCase) {
  // One neuron, leak λ=0.8, threshold 1, no refractory, no spikes:
  //   u_pre[0] = syn0 = 0.3 ; u_pre[1] = 0.8*0.3 + 0.3 = 0.54
  // With dL/ds[t] = 1 and fast-sigmoid surrogate g(x) = 1/(α|x|+1)^2, α=2:
  //   gsyn[1] = g(0.54-1)            = 1/(2*0.46+1)^2
  //   gsyn[0] = g(0.3-1) + 0.8*gsyn[1]
  LifParams p;
  p.threshold = 1.0f;
  p.leak = 0.8f;
  p.refractory = 0;
  LifBank bank(1, p);
  drive(bank, std::vector<float>(2, 0.3f), /*record=*/true);
  SurrogateConfig sg;
  sg.kind = SurrogateKind::kFastSigmoid;
  sg.alpha = 2.0f;
  std::vector<float> grad_spikes = {1.0f, 1.0f};
  std::vector<float> grad_syn(2);
  bank.backward(grad_spikes.data(), 2, sg, grad_syn.data());
  const float g1 = 1.0f / std::pow(2.0f * 0.46f + 1.0f, 2.0f);
  const float g0 = 1.0f / std::pow(2.0f * 0.7f + 1.0f, 2.0f) + 0.8f * g1;
  EXPECT_NEAR(grad_syn[1], g1, 1e-5);
  EXPECT_NEAR(grad_syn[0], g0, 1e-5);
}

TEST(LifBankBackward, SpikeDetachesResetPath) {
  // A spike at t=0 (reset-to-zero, detached) cuts the u-chain: gsyn[0] must
  // contain only the direct surrogate term, not leak * gsyn[1].
  LifParams p;
  p.threshold = 1.0f;
  p.leak = 0.8f;
  p.refractory = 0;
  LifBank bank(1, p);
  drive(bank, {2.0f, 0.3f}, /*record=*/true);
  SurrogateConfig sg;
  sg.alpha = 2.0f;
  std::vector<float> grad_spikes = {0.0f, 1.0f};
  std::vector<float> grad_syn(2);
  bank.backward(grad_spikes.data(), 2, sg, grad_syn.data());
  // t=0 spiked -> (1 - s) factor kills the carry into gsyn[0].
  EXPECT_FLOAT_EQ(grad_syn[0], 0.0f);
  EXPECT_GT(grad_syn[1], 0.0f);
}

TEST(LifBankBackward, RefractoryStepCarriesNoGradient) {
  LifParams p;
  p.threshold = 1.0f;
  p.refractory = 2;
  LifBank bank(1, p);
  drive(bank, {2.0f, 2.0f, 2.0f}, /*record=*/true);  // spike at 0, refractory 1-2
  SurrogateConfig sg;
  std::vector<float> grad_spikes = {1.0f, 1.0f, 1.0f};
  std::vector<float> grad_syn(3);
  bank.backward(grad_spikes.data(), 3, sg, grad_syn.data());
  EXPECT_EQ(grad_syn[1], 0.0f);
  EXPECT_EQ(grad_syn[2], 0.0f);
  EXPECT_GT(grad_syn[0], 0.0f);
}

TEST(LifBankBackward, FrameKernelMatchesSurrogateOracleOnEveryBackend) {
  // Backward::step is one SIMD-table call per frame. On every backend and
  // for every surrogate kind it must reproduce the per-neuron loop through
  // surrogate_derivative bit for bit: 21 neurons (an 8-wide tail) with
  // dead, saturated, refractory, firing and quiet steps, and per-neuron
  // thresholds and leaks.
  struct BackendGuard {
    tensor::simd::Backend prior = tensor::simd::active_backend();
    ~BackendGuard() { tensor::simd::force_backend(prior); }
  } guard;
  const size_t n = 21;
  const size_t T = 12;
  LifParams params;
  params.refractory = 2;
  LifBank bank(n, params);
  util::Rng rng(31);
  for (size_t i = 0; i < n; ++i) {
    bank.thresholds()[i] = static_cast<float>(rng.uniform(0.6, 1.4));
    bank.leaks()[i] = static_cast<float>(rng.uniform(0.7, 1.0));
  }
  bank.modes()[3] = NeuronMode::kDead;
  bank.modes()[10] = NeuronMode::kSaturated;
  std::vector<float> syn(T * n), spikes(n), grad_spikes(T * n);
  for (auto& v : syn) v = static_cast<float>(rng.uniform(-0.3, 1.2));
  for (auto& v : grad_spikes) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  bank.begin_run(T, /*record_traces=*/true);
  for (size_t t = 0; t < T; ++t) bank.step(syn.data() + t * n, spikes.data());
  for (const SurrogateKind kind :
       {SurrogateKind::kFastSigmoid, SurrogateKind::kAtan, SurrogateKind::kRectangular}) {
    SurrogateConfig sg;
    sg.kind = kind;
    sg.alpha = 2.5f;
    std::vector<float> want(T * n), carry(n, 0.0f);
    for (size_t t = T; t-- > 0;) {
      test_support::naive_lif_backward_step(bank, sg, t, grad_spikes.data() + t * n,
                                            carry.data(), want.data() + t * n);
    }
    for (const tensor::simd::Backend b : tensor::simd::available_backends()) {
      ASSERT_TRUE(tensor::simd::force_backend(b));
      std::vector<float> got(T * n, -1.0f);
      bank.backward(grad_spikes.data(), T, sg, got.data());
      ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
          << tensor::simd::backend_name(b) << " surrogate " << static_cast<int>(kind);
    }
  }
}

TEST(Surrogate, FastSigmoidPeaksAtThreshold) {
  SurrogateConfig sg;
  sg.kind = SurrogateKind::kFastSigmoid;
  sg.alpha = 2.0f;
  EXPECT_FLOAT_EQ(surrogate_derivative(sg, 0.0f), 1.0f);
  EXPECT_GT(surrogate_derivative(sg, 0.0f), surrogate_derivative(sg, 0.5f));
  EXPECT_FLOAT_EQ(surrogate_derivative(sg, 0.5f), surrogate_derivative(sg, -0.5f));
}

TEST(Surrogate, RectangularWindow) {
  SurrogateConfig sg;
  sg.kind = SurrogateKind::kRectangular;
  sg.alpha = 2.0f;
  EXPECT_FLOAT_EQ(surrogate_derivative(sg, 0.0f), 1.0f);
  EXPECT_FLOAT_EQ(surrogate_derivative(sg, 0.6f), 0.0f);
}

TEST(Surrogate, AtanSymmetric) {
  SurrogateConfig sg;
  sg.kind = SurrogateKind::kAtan;
  sg.alpha = 2.0f;
  EXPECT_FLOAT_EQ(surrogate_derivative(sg, 0.3f), surrogate_derivative(sg, -0.3f));
  EXPECT_GT(surrogate_derivative(sg, 0.0f), 0.0f);
}

// ---------- property sweeps over the LIF parameter grid ----------

class LifParamSweep : public testing::TestWithParam<std::tuple<float, float, int>> {};

// Helper outside the fixture so the TEST_P body stays small.
void util_drive_and_check(LifBank& bank) {
  const size_t T = 24;
  bank.begin_run(T, true);
  std::vector<float> syn(bank.size());
  std::vector<float> out(bank.size());
  std::vector<std::vector<float>> history;
  uint64_t state = 99;
  for (size_t t = 0; t < T; ++t) {
    for (auto& s : syn) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      s = static_cast<float>((state >> 40) % 200) / 100.0f;  // [0, 2)
    }
    bank.step(syn.data(), out.data());
    history.push_back(out);
    for (float v : out) EXPECT_TRUE(v == 0.0f || v == 1.0f);
  }
  // Refractory property: after any spike, the next `refractory` steps are 0.
  const int R = bank.refractories()[0];
  for (size_t i = 0; i < bank.size(); ++i) {
    for (size_t t = 0; t < T; ++t) {
      if (history[t][i] == 1.0f) {
        for (int k = 1; k <= R && t + k < T; ++k) {
          EXPECT_EQ(history[t + k][i], 0.0f) << "refractory violated at t=" << t << "+" << k;
        }
      }
    }
  }
}

TEST_P(LifParamSweep, SpikesAreBinaryAndRefractoryHolds) {
  const auto [threshold, leak, refractory] = GetParam();
  LifParams p;
  p.threshold = threshold;
  p.leak = leak;
  p.refractory = refractory;
  LifBank bank(4, p);
  util_drive_and_check(bank);
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, LifParamSweep,
    testing::Combine(testing::Values(0.5f, 1.0f, 2.0f),    // threshold
                     testing::Values(0.5f, 0.9f, 1.0f),    // leak
                     testing::Values(0, 1, 3)),            // refractory
    [](const testing::TestParamInfo<LifParamSweep::ParamType>& info) {
      return "th" + std::to_string(static_cast<int>(std::get<0>(info.param) * 10)) + "_lk" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10)) + "_rf" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace snntest::snn
