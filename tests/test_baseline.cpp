// Baseline generator tests ([17] adversarial, [18] greedy dataset, [20]
// random): greedy set-cover correctness, fault-simulation accounting,
// duration bookkeeping, and sanity of the adversarial attack.
#include <gtest/gtest.h>

#include "baseline/adversarial_testgen.hpp"
#include "baseline/greedy_dataset.hpp"
#include "baseline/random_testgen.hpp"
#include "campaign/engine.hpp"
#include "data/synthetic_shd.hpp"
#include "snn/dense_layer.hpp"
#include "snn/spike_train.hpp"

namespace snntest::baseline {
namespace {

snn::Network make_net(uint64_t seed = 1) {
  util::Rng rng(seed);
  snn::LifParams lif;
  snn::Network net("baseline-net");
  auto l1 = std::make_unique<snn::DenseLayer>(8, 12, lif);
  l1->init_weights(rng, 1.3f);
  net.add_layer(std::move(l1));
  auto l2 = std::make_unique<snn::DenseLayer>(12, 4, lif);
  l2->init_weights(rng, 1.3f);
  net.add_layer(std::move(l2));
  return net;
}

data::SyntheticShd make_dataset(size_t count = 40) {
  data::SyntheticShdConfig cfg;
  cfg.count = count;
  cfg.channels = 8;
  cfg.num_steps = 12;
  return data::SyntheticShd(cfg);
}

std::vector<fault::FaultDescriptor> some_faults(snn::Network& net, size_t k = 60) {
  auto universe = fault::enumerate_faults(net);
  util::Rng rng(5);
  return fault::sample_faults(universe, k, rng);
}

TEST(GreedySelect, CoversWithMarginalGain) {
  auto net = make_net();
  const auto faults = some_faults(net);
  // candidate pool: 6 random inputs
  util::Rng rng(6);
  std::vector<tensor::Tensor> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(snn::random_spike_train(12, 8, 0.4, rng));
  GreedyConfig cfg;
  const auto result = greedy_select(
      net, faults, pool.size(), [&pool](size_t i) { return pool[i]; }, cfg, "test");
  EXPECT_EQ(result.candidates_evaluated, 6u);
  EXPECT_EQ(result.fault_sims, 6u * faults.size());
  EXPECT_GT(result.coverage, 0.0);
  // selection must be duplicates-free and within range
  std::set<size_t> seen(result.selected.begin(), result.selected.end());
  EXPECT_EQ(seen.size(), result.selected.size());
  for (size_t s : result.selected) EXPECT_LT(s, 6u);
  EXPECT_EQ(result.selected.size(), result.selected_inputs.size());
}

TEST(GreedySelect, CoverageMatchesIndependentCheck) {
  auto net = make_net(2);
  const auto faults = some_faults(net, 40);
  util::Rng rng(7);
  std::vector<tensor::Tensor> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(snn::random_spike_train(12, 8, 0.5, rng));
  const auto result = greedy_select(
      net, faults, pool.size(), [&pool](size_t i) { return pool[i]; }, GreedyConfig{}, "test");
  if (!result.selected_inputs.empty()) {
    // replaying the assembled test must detect at least the covered count
    const auto outcome = campaign::run_campaign(net, result.assemble(), faults);
    const double replay =
        static_cast<double>(outcome.detected_count()) / static_cast<double>(faults.size());
    // concatenation may detect even more (state carry-over), never fewer
    // than the max single candidate... allow small tolerance for carry-over
    // effects at chunk boundaries.
    EXPECT_GE(replay, result.coverage * 0.7);
  }
}

TEST(GreedySelect, MaxSelectedRespected) {
  auto net = make_net(3);
  const auto faults = some_faults(net, 40);
  util::Rng rng(8);
  std::vector<tensor::Tensor> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(snn::random_spike_train(12, 8, 0.5, rng));
  GreedyConfig cfg;
  cfg.max_selected = 1;
  const auto result = greedy_select(
      net, faults, pool.size(), [&pool](size_t i) { return pool[i]; }, cfg, "test");
  EXPECT_LE(result.selected.size(), 1u);
}

TEST(GreedySelect, EmptyPool) {
  auto net = make_net(4);
  const auto faults = some_faults(net, 20);
  const auto result = greedy_select(
      net, faults, 0, [](size_t) { return tensor::Tensor(); }, GreedyConfig{}, "test");
  EXPECT_TRUE(result.selected.empty());
  EXPECT_EQ(result.fault_sims, 0u);
}

TEST(BaselineResult, DurationAccounting) {
  BaselineResult r;
  r.selected_inputs.push_back(tensor::Tensor(tensor::Shape{10, 4}));
  r.selected_inputs.push_back(tensor::Tensor(tensor::Shape{6, 4}));
  EXPECT_EQ(r.total_steps(), 16u);
  EXPECT_DOUBLE_EQ(r.duration_in_samples(8), 2.0);
  EXPECT_EQ(r.assemble().shape(), tensor::Shape({16, 4}));
  EXPECT_THROW(r.duration_in_samples(0), std::invalid_argument);
}

TEST(GreedyDataset, SelectsFromDataset) {
  auto net = make_net(5);
  const auto faults = some_faults(net, 50);
  const auto ds = make_dataset();
  GreedyDatasetConfig cfg;
  cfg.candidate_count = 8;
  const auto result = greedy_dataset_testgen(net, faults, ds, cfg);
  EXPECT_EQ(result.method, "greedy-dataset[18]");
  EXPECT_EQ(result.candidates_evaluated, 8u);
  for (const auto& input : result.selected_inputs) {
    EXPECT_EQ(input.shape(), tensor::Shape({12, 8}));
  }
}

TEST(RandomTestgen, MatchesDatasetGeometryAndDensity) {
  auto net = make_net(6);
  const auto faults = some_faults(net, 50);
  const auto ds = make_dataset();
  RandomTestgenConfig cfg;
  cfg.candidate_count = 6;
  const auto result = random_testgen(net, faults, ds, cfg);
  EXPECT_EQ(result.method, "random[20]");
  EXPECT_EQ(result.candidates_evaluated, 6u);
}

TEST(RandomTestgen, ExplicitDensityHonored) {
  auto net = make_net(7);
  const auto faults = some_faults(net, 30);
  const auto ds = make_dataset();
  RandomTestgenConfig cfg;
  cfg.candidate_count = 2;
  cfg.density = 0.02;
  cfg.greedy.max_selected = 2;
  const auto result = random_testgen(net, faults, ds, cfg);
  EXPECT_EQ(result.candidates_evaluated, 2u);
}

TEST(Adversarial, PerturbationChangesInputButKeepsShape) {
  auto net = make_net(8);
  const auto ds = make_dataset();
  const auto sample = ds.get(0);
  AdversarialConfig cfg;
  cfg.ascent_steps = 10;
  util::Rng rng(9);
  const auto adv = adversarial_perturb(net, sample.input, cfg, rng);
  EXPECT_EQ(adv.shape(), sample.input.shape());
  for (size_t i = 0; i < adv.numel(); ++i) {
    ASSERT_TRUE(adv[i] == 0.0f || adv[i] == 1.0f);
  }
}

TEST(Adversarial, FullPipelineRuns) {
  auto net = make_net(10);
  const auto faults = some_faults(net, 40);
  const auto ds = make_dataset(12);
  AdversarialConfig cfg;
  cfg.candidate_count = 4;
  cfg.ascent_steps = 8;
  const auto result = adversarial_testgen(net, faults, ds, cfg);
  EXPECT_EQ(result.method, "adversarial[17]");
  EXPECT_EQ(result.candidates_evaluated, 4u);
  EXPECT_EQ(result.fault_sims, 4u * faults.size());
}

}  // namespace
}  // namespace snntest::baseline
