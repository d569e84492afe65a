// Training-stack tests: Adam on analytic problems, schedules, spike-train
// losses (values + gradient directions), metrics, and an end-to-end check
// that the trainer actually improves accuracy on a tiny separable problem.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "data/dataset.hpp"
#include "snn/dense_layer.hpp"
#include "support/naive_optimizer.hpp"
#include "tensor/simd.hpp"
#include "train/adam.hpp"
#include "train/loss.hpp"
#include "train/metrics.hpp"
#include "train/schedule.hpp"
#include "train/trainer.hpp"

namespace snntest::train {
namespace {

TEST(Adam, MinimizesQuadratic) {
  // f(x) = (x - 3)^2, grad = 2(x - 3)
  float x = 0.0f;
  float grad = 0.0f;
  AdamConfig cfg;
  cfg.lr = 0.1;
  AdamOptimizer adam(cfg);
  adam.attach(&x, &grad, 1);
  for (int i = 0; i < 500; ++i) {
    grad = 2.0f * (x - 3.0f);
    adam.step();
  }
  EXPECT_NEAR(x, 3.0f, 0.05f);
}

TEST(Adam, MinimizesMultiDimensional) {
  std::vector<float> x(8, 5.0f);
  std::vector<float> grad(8, 0.0f);
  AdamConfig cfg;
  cfg.lr = 0.2;
  AdamOptimizer adam(cfg);
  adam.attach(x.data(), grad.data(), x.size());
  for (int i = 0; i < 400; ++i) {
    for (size_t j = 0; j < x.size(); ++j) grad[j] = 2.0f * x[j];
    adam.step();
  }
  for (float v : x) EXPECT_NEAR(v, 0.0f, 0.05f);
}

TEST(Adam, GradClippingBoundsStep) {
  float x = 0.0f;
  float grad = 1e6f;
  AdamConfig cfg;
  cfg.lr = 0.1;
  cfg.grad_clip_norm = 1.0;
  AdamOptimizer adam(cfg);
  adam.attach(&x, &grad, 1);
  adam.step();
  // first Adam step magnitude is ~lr regardless, but the moments must be
  // built from the clipped gradient
  EXPECT_LE(std::fabs(x), 0.2f);
}

TEST(Adam, RejectsBadConfig) {
  AdamConfig bad;
  bad.lr = 0.0;
  EXPECT_THROW(AdamOptimizer{bad}, std::invalid_argument);
  bad = AdamConfig{};
  bad.beta1 = 1.0;
  EXPECT_THROW(AdamOptimizer{bad}, std::invalid_argument);
}

TEST(Adam, StepMatchesScalarOracleOnEveryBackend) {
  // The element-wise update runs on the SIMD table; on every backend it
  // must reproduce the per-element loop bit for bit, with and without grad
  // clipping (a sequential norm) and decoupled weight decay. 11 parameters
  // leave a 4-wide tail.
  struct BackendGuard {
    tensor::simd::Backend prior = tensor::simd::active_backend();
    ~BackendGuard() { tensor::simd::force_backend(prior); }
  } guard;
  for (const double clip : {0.0, 1.5}) {
    for (const double decay : {0.0, 0.02}) {
      AdamConfig cfg;
      cfg.lr = 0.05;
      cfg.grad_clip_norm = clip;
      cfg.weight_decay = decay;
      const size_t n = 11;
      std::vector<float> want_value(n), want_m(n, 0.0f), want_v(n, 0.0f);
      util::Rng init(5);
      for (auto& x : want_value) x = static_cast<float>(init.uniform(-2.0, 2.0));
      const std::vector<float> start = want_value;
      std::vector<std::vector<float>> grads(9, std::vector<float>(n));
      util::Rng g_rng(6);
      for (auto& g : grads) {
        for (auto& x : g) x = static_cast<float>(g_rng.uniform(-3.0, 3.0));
      }
      for (size_t t = 0; t < grads.size(); ++t) {
        test_support::naive_adam_step(cfg, t + 1, grads[t].data(), n, want_m.data(),
                                      want_v.data(), want_value.data());
      }
      for (const tensor::simd::Backend b : tensor::simd::available_backends()) {
        ASSERT_TRUE(tensor::simd::force_backend(b));
        std::vector<float> value = start, grad(n);
        AdamOptimizer adam(cfg);
        adam.attach(value.data(), grad.data(), n);
        for (const auto& g : grads) {
          grad = g;
          adam.step();
        }
        ASSERT_EQ(std::memcmp(value.data(), want_value.data(), n * sizeof(float)), 0)
            << tensor::simd::backend_name(b) << " clip " << clip << " decay " << decay;
      }
    }
  }
}

TEST(Adam, ResetMomentsRestartsState) {
  float x = 0.0f;
  float grad = 1.0f;
  AdamOptimizer adam;
  adam.attach(&x, &grad, 1);
  adam.step();
  EXPECT_EQ(adam.steps_taken(), 1u);
  adam.reset_moments();
  EXPECT_EQ(adam.steps_taken(), 0u);
}

TEST(Schedules, CosineEndpoints) {
  CosineSchedule s(1.0, 0.1);
  EXPECT_NEAR(s.at(0, 100), 1.0, 1e-9);
  EXPECT_NEAR(s.at(99, 100), 0.1, 1e-9);
  EXPECT_GT(s.at(25, 100), s.at(75, 100));
}

TEST(Schedules, CosineDegenerateSingleStep) {
  CosineSchedule s(1.0, 0.1);
  EXPECT_DOUBLE_EQ(s.at(0, 1), 1.0);
}

TEST(Schedules, ExponentialFloors) {
  ExponentialSchedule s(1.0, 0.5, 0.2);
  EXPECT_DOUBLE_EQ(s.at(0, 10), 1.0);
  EXPECT_DOUBLE_EQ(s.at(1, 10), 0.5);
  EXPECT_DOUBLE_EQ(s.at(10, 10), 0.2);  // floored
}

TEST(Schedules, StepDecay) {
  StepDecaySchedule s(1.0, 0.1, 5);
  EXPECT_DOUBLE_EQ(s.at(4, 100), 1.0);
  EXPECT_DOUBLE_EQ(s.at(5, 100), 0.1);
  EXPECT_NEAR(s.at(10, 100), 0.01, 1e-12);
}

TEST(Schedules, Constant) {
  ConstantSchedule s(0.7);
  EXPECT_DOUBLE_EQ(s.at(0, 10), 0.7);
  EXPECT_DOUBLE_EQ(s.at(9, 10), 0.7);
}

Tensor output_with_counts(const std::vector<size_t>& counts, size_t T) {
  Tensor out(tensor::Shape{T, counts.size()});
  for (size_t i = 0; i < counts.size(); ++i) {
    for (size_t t = 0; t < counts[i]; ++t) out.at(t, i) = 1.0f;
  }
  return out;
}

TEST(SpikeCountLoss, ZeroAtTarget) {
  // T = 10, targets: true 0.5 -> 5 spikes, false 0.05 -> 0.5 spikes.
  SpikeCountLoss loss(0.5, 0.0);
  const auto out = output_with_counts({5, 0, 0}, 10);
  const auto result = loss.compute(out, 0);
  EXPECT_NEAR(result.value, 0.0, 1e-9);
}

TEST(SpikeCountLoss, GradientSignsPushTowardsTargets) {
  SpikeCountLoss loss(0.5, 0.05);
  // true class fires 0 (too few -> negative grad), false fires 9 (too many
  // -> positive grad)
  const auto out = output_with_counts({0, 9}, 10);
  const auto result = loss.compute(out, 0);
  EXPECT_GT(result.value, 0.0);
  EXPECT_LT(result.grad_output.at(0, 0), 0.0f);  // want more spikes
  EXPECT_GT(result.grad_output.at(0, 1), 0.0f);  // want fewer spikes
}

TEST(SpikeCountLoss, RejectsBadLabel) {
  SpikeCountLoss loss;
  const auto out = output_with_counts({1, 1}, 4);
  EXPECT_THROW(loss.compute(out, 5), std::invalid_argument);
}

TEST(RateCrossEntropy, LowerLossForCorrectDominantClass) {
  RateCrossEntropyLoss loss(4.0);
  const auto good = output_with_counts({9, 1, 1}, 10);
  const auto bad = output_with_counts({1, 9, 1}, 10);
  EXPECT_LT(loss.compute(good, 0).value, loss.compute(bad, 0).value);
}

TEST(RateCrossEntropy, GradientPushesTrueClassUp) {
  RateCrossEntropyLoss loss(4.0);
  const auto out = output_with_counts({2, 2, 2}, 10);
  const auto result = loss.compute(out, 1);
  EXPECT_LT(result.grad_output.at(0, 1), 0.0f);
  EXPECT_GT(result.grad_output.at(0, 0), 0.0f);
}

// Minimal two-class dataset: class 0 spikes on channels [0..n/2), class 1 on
// the other half. Trivially separable — the trainer must solve it.
class ToyDataset final : public data::Dataset {
 public:
  ToyDataset(size_t count, size_t channels, size_t steps)
      : count_(count), channels_(channels), steps_(steps) {}
  std::string name() const override { return "toy"; }
  size_t size() const override { return count_; }
  size_t num_classes() const override { return 2; }
  size_t input_size() const override { return channels_; }
  size_t num_steps() const override { return steps_; }
  data::Sample get(size_t index) const override {
    data::Sample s;
    s.label = index % 2;
    s.input = tensor::Tensor(tensor::Shape{steps_, channels_});
    util::Rng rng(1000 + index);
    for (size_t t = 0; t < steps_; ++t) {
      for (size_t c = 0; c < channels_; ++c) {
        const bool active_half = (s.label == 0) == (c < channels_ / 2);
        if (active_half && rng.bernoulli(0.5)) s.input.at(t, c) = 1.0f;
      }
    }
    return s;
  }

 private:
  size_t count_;
  size_t channels_;
  size_t steps_;
};

TEST(Trainer, LearnsSeparableProblem) {
  ToyDataset train_set(64, 8, 8);
  ToyDataset test_set(32, 8, 8);
  util::Rng rng(3);
  snn::LifParams lif;
  snn::Network net("toy");
  auto l1 = std::make_unique<snn::DenseLayer>(8, 12, lif);
  l1->init_weights(rng, 1.2f);
  net.add_layer(std::move(l1));
  auto l2 = std::make_unique<snn::DenseLayer>(12, 2, lif);
  l2->init_weights(rng, 1.2f);
  net.add_layer(std::move(l2));

  const double before = evaluate(net, test_set).accuracy;
  TrainerConfig tc;
  tc.epochs = 40;
  tc.lr = 5e-3;
  tc.lr_final = 1e-3;
  tc.verbose = false;
  Trainer trainer(net, tc);
  const auto after = trainer.fit(train_set, test_set);
  EXPECT_GT(after.accuracy, 0.85);
  EXPECT_GE(after.accuracy, before);
}

TEST(Metrics, ConfusionMatrixConsistent) {
  ToyDataset ds(20, 8, 8);
  util::Rng rng(4);
  snn::Network net("toy2");
  auto l1 = std::make_unique<snn::DenseLayer>(8, 2, snn::LifParams{});
  l1->init_weights(rng, 1.5f);
  net.add_layer(std::move(l1));
  const auto result = evaluate(net, ds);
  EXPECT_EQ(result.total, 20u);
  size_t diag = 0, total = 0;
  for (size_t i = 0; i < result.confusion.size(); ++i) {
    for (size_t j = 0; j < result.confusion[i].size(); ++j) {
      total += result.confusion[i][j];
      if (i == j) diag += result.confusion[i][j];
    }
  }
  EXPECT_EQ(total, 20u);
  EXPECT_EQ(diag, result.correct);
}

TEST(Metrics, MaxSamplesLimitsEvaluation) {
  ToyDataset ds(50, 8, 8);
  util::Rng rng(5);
  snn::Network net("toy3");
  auto l1 = std::make_unique<snn::DenseLayer>(8, 2, snn::LifParams{});
  l1->init_weights(rng, 1.5f);
  net.add_layer(std::move(l1));
  EXPECT_EQ(evaluate(net, ds, 10).total, 10u);
}

}  // namespace
}  // namespace snntest::train
