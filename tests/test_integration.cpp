// End-to-end integration scenarios across module boundaries:
// train -> persist -> reload -> generate -> persist stimulus -> reload ->
// fault campaign -> coverage -> in-field signature check. Also cross-cutting
// invariants: campaign results independent of worker count, classification
// decoding modes, and granularity-mixed universes on a trained model.
#include <gtest/gtest.h>

#include <filesystem>

#include "campaign/engine.hpp"
#include "core/test_generator.hpp"
#include "data/synthetic_shd.hpp"
#include "fault/classifier.hpp"
#include "fault/coverage.hpp"
#include "snn/dense_layer.hpp"
#include "snn/serialization.hpp"
#include "snn/spike_train.hpp"
#include "train/trainer.hpp"

namespace snntest {
namespace {

struct Pipeline {
  snn::Network net{"integration"};
  std::shared_ptr<data::Dataset> train;
  std::shared_ptr<data::Dataset> test;
};

/// Small trained model shared by the integration tests (built once — train
/// cost is a few hundred ms).
Pipeline& pipeline() {
  static Pipeline* p = [] {
    auto* pipe = new Pipeline();
    data::SyntheticShdConfig dc;
    dc.count = 240;
    dc.channels = 16;
    dc.num_steps = 16;
    auto ds = std::make_shared<data::SyntheticShd>(dc);
    auto splits = data::split(ds, 180, 60);
    pipe->train = splits.train;
    pipe->test = splits.test;
    util::Rng rng(1);
    snn::LifParams lif;
    auto l1 = std::make_unique<snn::DenseLayer>(16, 24, lif);
    l1->init_weights(rng, 1.2f);
    pipe->net.add_layer(std::move(l1));
    auto l2 = std::make_unique<snn::DenseLayer>(24, 20, lif);
    l2->init_weights(rng, 1.2f);
    pipe->net.add_layer(std::move(l2));
    train::TrainerConfig tc;
    tc.epochs = 6;
    tc.verbose = false;
    train::Trainer trainer(pipe->net, tc);
    trainer.fit(*pipe->train, *pipe->test);
    return pipe;
  }();
  return *p;
}

core::TestGenConfig small_config() {
  core::TestGenConfig cfg;
  cfg.steps_stage1 = 80;
  cfg.max_iterations = 5;
  cfg.t_limit_seconds = 30.0;
  cfg.eval_every = 2;
  return cfg;
}

TEST(Integration, FullFactoryFlow) {
  auto& p = pipeline();

  // 1. persist + reload the trained model
  snn::Network device = snn::deserialize_network(snn::serialize_network(p.net));

  // 2. generate the test on the golden model
  core::TestGenerator generator(device, small_config());
  auto report = generator.generate();
  ASSERT_GT(report.stimulus.num_chunks(), 0u);

  // 3. persist + reload the stimulus (on-chip storage round trip)
  const auto stored = core::TestStimulus::deserialize(report.stimulus.serialize());
  const auto test_input = stored.assemble();

  // 4. verification campaign + classification + coverage report
  auto universe = fault::enumerate_faults(device);
  util::Rng rng(9);
  auto faults = fault::sample_faults(universe, 120, rng);
  const auto detection = campaign::run_campaign(device, test_input, faults);
  fault::ClassifierConfig cc;
  cc.max_samples = 16;
  const auto classes = fault::classify_faults(device, faults, *p.test, cc);
  const auto coverage = fault::build_coverage_report(faults, detection.results, classes.labels);
  EXPECT_EQ(coverage.overall.total, faults.size());
  // a trained, mostly-activated model must detect a solid majority of the
  // critical faults even with a tiny test
  if (coverage.critical_neuron.total > 0) {
    EXPECT_GT(coverage.critical_neuron.coverage(), 0.9);
  }

  // 5. in-field: golden signature, then a latent fault appears
  const auto signature = device.forward(test_input).output();
  fault::FaultInjector injector(device);
  fault::FaultDescriptor latent;
  latent.kind = fault::FaultKind::kNeuronSaturated;
  latent.neuron = {1, 2};
  {
    fault::ScopedFault scoped(injector, latent);
    const auto response = device.forward(test_input).output();
    EXPECT_GT(snn::output_distance(signature, response), 0.0);
  }
  // healthy again after repair/restore
  const auto healthy = device.forward(test_input).output();
  EXPECT_DOUBLE_EQ(snn::output_distance(signature, healthy), 0.0);
}

TEST(Integration, CampaignIndependentOfWorkerCount) {
  auto& p = pipeline();
  auto universe = fault::enumerate_faults(p.net);
  util::Rng rng(10);
  auto faults = fault::sample_faults(universe, 80, rng);
  const auto input = p.test->get(0).input;

  campaign::EngineConfig serial;
  serial.num_threads = 1;
  campaign::EngineConfig parallel;
  parallel.num_threads = 4;
  const auto a = campaign::run_campaign(p.net, input, faults, serial);
  const auto b = campaign::run_campaign(p.net, input, faults, parallel);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t j = 0; j < a.results.size(); ++j) {
    EXPECT_EQ(a.results[j].detected, b.results[j].detected) << "fault " << j;
    EXPECT_DOUBLE_EQ(a.results[j].output_l1, b.results[j].output_l1);
  }
}

TEST(Integration, ClassificationDecodingModesCanDiffer) {
  auto& p = pipeline();
  auto universe = fault::enumerate_faults(p.net);
  util::Rng rng(11);
  auto faults = fault::sample_faults(universe, 60, rng);
  fault::ClassifierConfig rate_cfg;
  rate_cfg.max_samples = 12;
  rate_cfg.decoding = snn::Decoding::kRate;
  fault::ClassifierConfig ttfs_cfg = rate_cfg;
  ttfs_cfg.decoding = snn::Decoding::kTimeToFirstSpike;
  const auto rate = fault::classify_faults(p.net, faults, *p.test, rate_cfg);
  const auto ttfs = fault::classify_faults(p.net, faults, *p.test, ttfs_cfg);
  ASSERT_EQ(rate.labels.size(), ttfs.labels.size());
  // both must produce sane label sets; they may legitimately disagree on
  // individual faults (different read-out = different criticality)
  EXPECT_GE(rate.golden_accuracy, 0.0);
  EXPECT_GE(ttfs.golden_accuracy, 0.0);
}

TEST(Integration, GeneratorDoesNotPerturbWeights) {
  auto& p = pipeline();
  std::vector<float> before;
  for (const auto& pv : p.net.params()) {
    before.insert(before.end(), pv.value, pv.value + pv.size);
  }
  core::TestGenerator generator(p.net, small_config());
  generator.generate();
  std::vector<float> after;
  for (const auto& pv : p.net.params()) {
    after.insert(after.end(), pv.value, pv.value + pv.size);
  }
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(before[i], after[i]) << "weight " << i << " changed during test generation";
  }
}

TEST(Integration, StimulusRegenerationIsIdempotent) {
  auto& p = pipeline();
  auto cfg = small_config();
  cfg.seed = 42;
  core::TestGenerator g1(p.net, cfg);
  core::TestGenerator g2(p.net, cfg);
  const auto a = g1.generate().stimulus.assemble();
  const auto b = g2.generate().stimulus.assemble();
  ASSERT_EQ(a.numel(), b.numel());
  for (size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace snntest
