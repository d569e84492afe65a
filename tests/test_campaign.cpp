// Differential campaign-engine tests: golden-cache correctness, bit-identical
// equivalence with an independently-coded naive campaign, prefix-reuse /
// convergence-pruning accounting, detect-only early exit, configurable
// detection threshold and lane batching. The oracle
// is tests/support/naive_reference.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "campaign/engine.hpp"
#include "campaign/fingerprint.hpp"
#include "campaign/golden_cache.hpp"
#include "campaign/shard.hpp"
#include "coverage/incremental.hpp"
#include "fault/coverage.hpp"
#include "fault/registry.hpp"
#include "obs/metrics.hpp"
#include "snn/conv_layer.hpp"
#include "snn/dense_layer.hpp"
#include "snn/lane_network.hpp"
#include "snn/pool_layer.hpp"
#include "snn/recurrent_layer.hpp"
#include "snn/spike_train.hpp"
#include "support/naive_reference.hpp"
#include "tensor/simd.hpp"

namespace snntest::campaign {
namespace {

snn::Network make_net(uint64_t seed = 11) {
  util::Rng rng(seed);
  snn::LifParams lif;
  snn::Network net("campaign-test");
  auto l1 = std::make_unique<snn::DenseLayer>(8, 16, lif);
  l1->init_weights(rng, 1.3f);
  net.add_layer(std::move(l1));
  auto l2 = std::make_unique<snn::DenseLayer>(16, 12, lif);
  l2->init_weights(rng, 1.3f);
  net.add_layer(std::move(l2));
  auto l3 = std::make_unique<snn::DenseLayer>(12, 4, lif);
  l3->init_weights(rng, 1.3f);
  net.add_layer(std::move(l3));
  return net;
}

tensor::Tensor busy_input(size_t T = 20, size_t n = 8, uint64_t seed = 5) {
  util::Rng rng(seed);
  return snn::random_spike_train(T, n, 0.5, rng);
}

std::vector<fault::FaultDescriptor> sampled_universe(snn::Network& net, size_t k = 120,
                                                     uint64_t seed = 17) {
  fault::FaultUniverseConfig cfg;
  cfg.neuron_threshold_variation = true;
  cfg.neuron_leak_variation = true;
  cfg.synapse_bitflip = true;
  auto universe = fault::enumerate_faults(net, cfg);
  util::Rng rng(seed);
  return fault::sample_faults(universe, k, rng);
}

/// Every DetectionResult field, class_first_spike included.
void expect_results_identical(const std::vector<fault::DetectionResult>& a,
                              const std::vector<fault::DetectionResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].detected, b[j].detected) << "fault " << j;
    EXPECT_EQ(a[j].output_l1, b[j].output_l1) << "fault " << j;
    EXPECT_EQ(a[j].first_detection_frame, b[j].first_detection_frame) << "fault " << j;
    ASSERT_EQ(a[j].class_count_diff, b[j].class_count_diff) << "fault " << j;
    ASSERT_EQ(a[j].class_first_spike, b[j].class_first_spike) << "fault " << j;
  }
}

TEST(FaultLayer, ResolvesPerTargetKind) {
  fault::FaultDescriptor f;
  f.kind = fault::FaultKind::kNeuronDead;
  f.neuron = {2, 0};
  EXPECT_EQ(fault_layer(f), 2u);
  f.kind = fault::FaultKind::kSynapseDead;
  f.weight = {1, 0, 3};
  EXPECT_EQ(fault_layer(f), 1u);
  f.connection_granularity = true;
  f.connection = {0, 4, 7};
  EXPECT_EQ(fault_layer(f), 0u);
}

TEST(GoldenCache, MatchesDirectForward) {
  auto net = make_net();
  const auto input = busy_input();
  const auto cache = build_golden_cache(net, input);
  snn::Network clone(net);
  const auto direct = clone.forward(input);
  ASSERT_EQ(cache.num_layers(), direct.num_layers());
  for (size_t l = 0; l < direct.num_layers(); ++l) {
    const auto& a = cache.layer_output(l);
    const auto& b = direct.layer_outputs[l];
    ASSERT_EQ(a.numel(), b.numel());
    for (size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << "layer " << l;
  }
  EXPECT_EQ(cache.output_counts, direct.output_counts());
  // The run report's campaign fingerprint starts from this hash, which is
  // sensitive to the stimulus.
  const uint64_t topology = hash_network_topology(net, util::kFnvOffsetBasis);
  EXPECT_NE(hash_stimulus(input, topology), 0u);
  EXPECT_NE(hash_stimulus(input, topology), hash_stimulus(busy_input(20, 8, 99), topology));
}

TEST(Engine, BitIdenticalToNaiveReference) {
  auto net = make_net();
  const auto input = busy_input();
  const auto faults = sampled_universe(net);
  const auto naive = test_support::naive_reference(net, input, faults);

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    EngineConfig cfg;
    cfg.num_threads = threads;
    const auto result = run_campaign(net, input, faults, cfg);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.stats.faults_simulated, faults.size());
    expect_results_identical(result.results, naive);
  }
}

TEST(Engine, BitIdenticalWithAllShortcutsDisabled) {
  auto net = make_net();
  const auto input = busy_input();
  const auto faults = sampled_universe(net, 60);
  const auto naive = test_support::naive_reference(net, input, faults);
  EngineConfig cfg;
  cfg.prefix_reuse = false;
  cfg.convergence_pruning = false;
  const auto result = run_campaign(net, input, faults, cfg);
  expect_results_identical(result.results, naive);
  // Without shortcuts every fault runs every layer.
  EXPECT_EQ(result.stats.layer_forwards, result.stats.layer_forwards_naive);
}

TEST(Engine, PrefixReuseSkipsEarlyLayers) {
  auto net = make_net();
  const auto input = busy_input();
  // Faults confined to the last layer: only 1 of 3 layers must run.
  std::vector<fault::FaultDescriptor> faults;
  for (size_t i = 0; i < net.layer(2).num_neurons(); ++i) {
    fault::FaultDescriptor f;
    f.kind = fault::FaultKind::kNeuronSaturated;
    f.neuron = {2, i};
    faults.push_back(f);
  }
  const auto naive = test_support::naive_reference(net, input, faults);
  const auto result = run_campaign(net, input, faults, {});
  expect_results_identical(result.results, naive);
  EXPECT_EQ(result.stats.layer_forwards, faults.size());
  EXPECT_EQ(result.stats.layer_forwards_naive, faults.size() * net.num_layers());
  EXPECT_GE(result.stats.forward_savings(), 2.0 / 3.0 - 1e-9);
}

TEST(Engine, ConvergencePruningStopsInvisibleFaults) {
  auto net = make_net();
  // A dead neuron fed by a silent stimulus never diverges from golden:
  // pruning must decide "undetected" after layer 0 alone.
  const auto zero = snn::zero_train(16, 8);
  std::vector<fault::FaultDescriptor> faults(1);
  faults[0].kind = fault::FaultKind::kNeuronDead;
  faults[0].neuron = {0, 0};
  const auto naive = test_support::naive_reference(net, zero, faults);
  const auto result = run_campaign(net, zero, faults, {});
  expect_results_identical(result.results, naive);
  EXPECT_FALSE(result.results[0].detected);
  EXPECT_EQ(result.stats.faults_pruned, 1u);
  EXPECT_EQ(result.stats.layer_forwards, 1u);
  // The naive result fills zero class diffs; pruning must do the same.
  EXPECT_EQ(result.results[0].class_count_diff, std::vector<long>(net.output_size(), 0));
}

TEST(Engine, DetectOnlyAgreesOnDetection) {
  auto net = make_net();
  const auto input = busy_input();
  const auto faults = sampled_universe(net, 80);
  const auto full = run_campaign(net, input, faults, {});
  EngineConfig cfg;
  cfg.detect_only = true;
  const auto fast = run_campaign(net, input, faults, cfg);
  ASSERT_EQ(full.results.size(), fast.results.size());
  for (size_t j = 0; j < faults.size(); ++j) {
    EXPECT_EQ(full.results[j].detected, fast.results[j].detected) << "fault " << j;
    // Lower bound: never exceeds the exact L1, positive iff detected.
    EXPECT_LE(fast.results[j].output_l1, full.results[j].output_l1);
    EXPECT_TRUE(fast.results[j].class_count_diff.empty());
    EXPECT_TRUE(fast.results[j].class_first_spike.empty());
  }
}

TEST(Engine, DetectionThresholdRespected) {
  auto net = make_net();
  const auto input = busy_input();
  const auto faults = sampled_universe(net, 40);
  EngineConfig cfg;
  cfg.detection_threshold = 1e9;
  const auto result = run_campaign(net, input, faults, cfg);
  EXPECT_EQ(result.detected_count(), 0u);
}

/// Randomized conv+dense stack: the sparse conv and dense kernels must give
/// the exact naive-dense campaign results at every thread count, fault or no
/// fault (the golden pass runs under the same mode as the workers).
snn::Network make_mixed_net(uint64_t seed = 21) {
  util::Rng rng(seed);
  snn::LifParams lif;
  snn::Network net("campaign-mixed");
  snn::Conv2dSpec spec;
  spec.in_channels = 1;
  spec.in_height = 8;
  spec.in_width = 8;
  spec.out_channels = 3;
  spec.kernel = 3;
  spec.stride = 1;
  spec.padding = 1;
  auto conv = std::make_unique<snn::ConvLayer>(spec, lif);
  conv->init_weights(rng, 1.3f);
  net.add_layer(std::move(conv));
  auto fc = std::make_unique<snn::DenseLayer>(spec.output_size(), 6, lif);
  fc->init_weights(rng, 1.3f);
  net.add_layer(std::move(fc));
  return net;
}

TEST(Engine, KernelModesBitIdenticalWithFaultsAcrossThreads) {
  auto net = make_mixed_net();
  util::Rng rng(91);
  const auto input = snn::random_spike_train(16, net.input_size(), 0.08, rng);
  const auto faults = sampled_universe(net, 80, 92);
  ASSERT_FALSE(faults.empty());
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    EngineConfig dense_cfg;
    dense_cfg.num_threads = threads;
    dense_cfg.kernel_mode = snn::KernelMode::kDense;
    EngineConfig sparse_cfg;
    sparse_cfg.num_threads = threads;
    sparse_cfg.kernel_mode = snn::KernelMode::kSparse;
    EngineConfig auto_cfg;  // default kernel_mode == kAuto
    auto_cfg.num_threads = threads;
    const auto dense = run_campaign(net, input, faults, dense_cfg);
    const auto sparse = run_campaign(net, input, faults, sparse_cfg);
    const auto adaptive = run_campaign(net, input, faults, auto_cfg);
    expect_results_identical(dense.results, sparse.results);
    expect_results_identical(dense.results, adaptive.results);
    // Fault-free reference: the golden caches of all modes agree bit-exactly.
    const auto golden_dense = build_golden_cache(net, input, snn::KernelMode::kDense);
    const auto golden_sparse = build_golden_cache(net, input, snn::KernelMode::kSparse);
    for (size_t l = 0; l < golden_dense.num_layers(); ++l) {
      const auto& a = golden_dense.layer_output(l);
      const auto& b = golden_sparse.layer_output(l);
      ASSERT_EQ(a.shape(), b.shape());
      for (size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << "layer " << l;
    }
  }
}

// ---- Lane-batched simulation (W faults per forward pass, DESIGN.md §12) ---

snn::Network make_conv_pool_net(uint64_t seed = 41) {
  util::Rng rng(seed);
  snn::LifParams lif;
  snn::Network net("campaign-conv-pool");
  snn::Conv2dSpec spec;
  spec.in_channels = 1;
  spec.in_height = 8;
  spec.in_width = 8;
  spec.out_channels = 4;
  spec.kernel = 3;
  spec.stride = 1;
  spec.padding = 1;
  auto conv = std::make_unique<snn::ConvLayer>(spec, lif);
  conv->init_weights(rng, 1.3f);
  net.add_layer(std::move(conv));
  snn::SumPoolSpec pool;
  pool.channels = 4;
  pool.in_height = 8;
  pool.in_width = 8;
  pool.window = 2;
  net.add_layer(std::make_unique<snn::SumPoolLayer>(pool, lif));
  auto fc = std::make_unique<snn::DenseLayer>(pool.output_size(), 6, lif);
  fc->init_weights(rng, 1.3f);
  net.add_layer(std::move(fc));
  return net;
}

snn::Network make_recurrent_net(uint64_t seed = 31) {
  util::Rng rng(seed);
  snn::LifParams lif;
  snn::Network net("campaign-recurrent");
  auto l1 = std::make_unique<snn::DenseLayer>(10, 14, lif);
  l1->init_weights(rng, 1.3f);
  net.add_layer(std::move(l1));
  auto rec = std::make_unique<snn::RecurrentLayer>(14, 12, lif);
  rec->init_weights(rng, 1.2f, 0.5f);
  net.add_layer(std::move(rec));
  auto l3 = std::make_unique<snn::DenseLayer>(12, 5, lif);
  l3->init_weights(rng, 1.3f);
  net.add_layer(std::move(l3));
  return net;
}

/// A universe with EVERY fault kind enabled — structural, parametric,
/// bit-flips — so the lane fault resolver is exercised against each
/// injector branch.
fault::FaultUniverseConfig all_kinds_config(bool conv_connections) {
  fault::FaultUniverseConfig cfg;
  cfg.neuron_threshold_variation = true;
  cfg.neuron_leak_variation = true;
  cfg.neuron_refractory_variation = true;
  cfg.synapse_bitflip = true;
  cfg.conv_connection_granularity = conv_connections;
  return cfg;
}

/// `k` faults sampled from the all-kinds universe.
std::vector<fault::FaultDescriptor> all_kinds_universe(snn::Network& net, size_t k, uint64_t seed,
                                                       bool conv_connections = false) {
  auto universe = fault::enumerate_faults(net, all_kinds_config(conv_connections));
  util::Rng rng(seed);
  return fault::sample_faults(universe, k, rng);
}

TEST(LaneBatch, FuzzMatrixBitIdenticalToNaiveReference) {
  // Property matrix: random fault populations (all kinds, mixed layers) on
  // three architectures, every lane width (1 included: batches of one) x
  // kernel mode x telemetry state. Each configuration must reproduce the
  // naive oracle's DetectionResults bit-for-bit — detected flags,
  // output_l1 doubles and class count diffs — in full and detect-only
  // mode, with identical pruning/forward accounting at every width.
  struct Case {
    std::string name;
    snn::Network net;
    tensor::Tensor input;
    std::vector<fault::FaultDescriptor> faults;
  };
  std::vector<Case> cases;
  {
    auto net = make_net();
    auto input = busy_input(14, 8, 71);
    auto faults = all_kinds_universe(net, 48, 72);
    cases.push_back({"dense-mlp", std::move(net), std::move(input), std::move(faults)});
  }
  {
    auto net = make_conv_pool_net();
    util::Rng rng(73);
    auto input = snn::random_spike_train(12, net.input_size(), 0.12, rng);
    auto faults = all_kinds_universe(net, 48, 74, /*conv_connections=*/true);
    cases.push_back({"conv-pool-dense", std::move(net), std::move(input), std::move(faults)});
  }
  {
    auto net = make_recurrent_net();
    util::Rng rng(75);
    auto input = snn::random_spike_train(16, net.input_size(), 0.4, rng);
    auto faults = all_kinds_universe(net, 48, 76);
    cases.push_back({"recurrent", std::move(net), std::move(input), std::move(faults)});
  }

  const bool telemetry_before = obs::telemetry_enabled();
  for (auto& c : cases) {
    ASSERT_FALSE(c.faults.empty()) << c.name;
    const auto naive = test_support::naive_reference(c.net, c.input, c.faults);
    const auto naive_detect =
        test_support::naive_reference(c.net, c.input, c.faults, 0.0, /*detect_only=*/true);
    // Pruning and forward accounting of the first configuration; every
    // other one must agree, since retirement fires at the same layers.
    size_t pruned = SIZE_MAX;
    size_t forwards = SIZE_MAX;

    for (const size_t width : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
      for (const auto mode :
           {snn::KernelMode::kDense, snn::KernelMode::kSparse, snn::KernelMode::kAuto}) {
        for (const bool telemetry : {false, true}) {
          SCOPED_TRACE(c.name + " width=" + std::to_string(width) + " mode=" +
                       std::to_string(static_cast<int>(mode)) +
                       (telemetry ? " telemetry" : ""));
          obs::set_telemetry_enabled(telemetry);
          EngineConfig cfg;
          cfg.lane_width = width;
          cfg.kernel_mode = mode;
          const auto lane = run_campaign(c.net, c.input, c.faults, cfg);
          EngineConfig dcfg = cfg;
          dcfg.detect_only = true;
          const auto lane_fast = run_campaign(c.net, c.input, c.faults, dcfg);
          obs::set_telemetry_enabled(telemetry_before);

          expect_results_identical(lane.results, naive);
          if (pruned == SIZE_MAX) {
            pruned = lane.stats.faults_pruned;
            forwards = lane.stats.layer_forwards;
            EXPECT_GT(pruned, 0u);
          }
          EXPECT_EQ(lane.stats.faults_pruned, pruned);
          EXPECT_EQ(lane.stats.layer_forwards, forwards);
          EXPECT_EQ(lane.stats.lane_batched_faults, c.faults.size());

          // Detect-only: the lane route checks the accumulated L1 after each
          // full frame, as the oracle does, so even the lower-bound L1 is
          // bitwise reproducible.
          expect_results_identical(lane_fast.results, naive_detect);
        }
      }
    }
  }
}

TEST(LaneBatch, BackendForcedBitIdenticalAcrossWidths) {
  // The SIMD dispatch axis of the fuzz matrix: every backend available on
  // this host (tensor/simd.hpp) must reproduce the naive oracle bit for bit
  // at every lane width 1-8 and 16 — widths that are not a multiple of any
  // vector width run the tail paths — on the three architectures, in every
  // kernel mode and in full + detect-only runs, with the scalar-backend
  // width-1 campaign's pruning and forward accounting.
  namespace simd = tensor::simd;
  const simd::Backend prior = simd::active_backend();
  struct Case {
    std::string name;
    snn::Network net;
    tensor::Tensor input;
    std::vector<fault::FaultDescriptor> faults;
  };
  std::vector<Case> cases;
  {
    auto net = make_net();
    auto input = busy_input(14, 8, 81);
    auto faults = all_kinds_universe(net, 32, 82);
    cases.push_back({"dense-mlp", std::move(net), std::move(input), std::move(faults)});
  }
  {
    auto net = make_conv_pool_net();
    util::Rng rng(83);
    auto input = snn::random_spike_train(10, net.input_size(), 0.12, rng);
    auto faults = all_kinds_universe(net, 32, 84, /*conv_connections=*/true);
    cases.push_back({"conv-pool-dense", std::move(net), std::move(input), std::move(faults)});
  }
  {
    auto net = make_recurrent_net();
    util::Rng rng(85);
    auto input = snn::random_spike_train(12, net.input_size(), 0.4, rng);
    auto faults = all_kinds_universe(net, 32, 86);
    cases.push_back({"recurrent", std::move(net), std::move(input), std::move(faults)});
  }

  for (auto& c : cases) {
    const auto naive = test_support::naive_reference(c.net, c.input, c.faults);
    const auto naive_detect =
        test_support::naive_reference(c.net, c.input, c.faults, 0.0, /*detect_only=*/true);
    ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
    EngineConfig scalar_cfg;
    scalar_cfg.lane_width = 1;
    const auto scalar = run_campaign(c.net, c.input, c.faults, scalar_cfg);

    for (const simd::Backend backend : simd::available_backends()) {
      ASSERT_TRUE(simd::force_backend(backend));
      for (const size_t width : {1, 2, 3, 4, 5, 6, 7, 8, 16}) {
        for (const auto mode :
             {snn::KernelMode::kDense, snn::KernelMode::kSparse, snn::KernelMode::kAuto}) {
          SCOPED_TRACE(c.name + " backend=" + simd::backend_name(backend) +
                       " width=" + std::to_string(width) + " mode=" +
                       std::to_string(static_cast<int>(mode)));
          EngineConfig cfg;
          cfg.lane_width = width;
          cfg.kernel_mode = mode;
          const auto lane = run_campaign(c.net, c.input, c.faults, cfg);
          expect_results_identical(lane.results, naive);
          EXPECT_EQ(lane.stats.faults_pruned, scalar.stats.faults_pruned);
          EXPECT_EQ(lane.stats.layer_forwards, scalar.stats.layer_forwards);

          EngineConfig dcfg = cfg;
          dcfg.detect_only = true;
          const auto lane_fast = run_campaign(c.net, c.input, c.faults, dcfg);
          expect_results_identical(lane_fast.results, naive_detect);
        }
      }
    }
  }
  simd::force_backend(prior);
}

TEST(Engine, OutOfRangeLaneWidthClampedAndSurfacedInStats) {
  // lane_width outside [1, kMaxLaneWidth] is clamped (with a one-time
  // warning) rather than silently misbehaving; the effective width is
  // surfaced in EngineStats and the results still match the naive oracle.
  auto net = make_net();
  const auto input = busy_input();
  const auto faults = sampled_universe(net, 24, 91);
  const auto truth = test_support::naive_reference(net, input, faults);

  EngineConfig wide_cfg;
  wide_cfg.lane_width = 10 * snn::kMaxLaneWidth;
  const auto wide = run_campaign(net, input, faults, wide_cfg);
  EXPECT_EQ(wide.stats.lane_width_effective, snn::kMaxLaneWidth);
  expect_results_identical(wide.results, truth);

  // Width 0 runs as width 1: one batch of one per fault.
  EngineConfig zero_cfg;
  zero_cfg.lane_width = 0;
  const auto zero = run_campaign(net, input, faults, zero_cfg);
  EXPECT_EQ(zero.stats.lane_width_effective, 1u);
  EXPECT_EQ(zero.stats.lane_batches, faults.size());
  EXPECT_EQ(zero.stats.lane_batched_faults, faults.size());
  expect_results_identical(zero.results, truth);

  EngineConfig in_range_cfg;
  in_range_cfg.lane_width = 8;
  const auto in_range = run_campaign(net, input, faults, in_range_cfg);
  EXPECT_EQ(in_range.stats.lane_width_effective, 8u);
  expect_results_identical(in_range.results, truth);
}

TEST(Engine, FaultLayerOutOfRangeIsRejected) {
  // A fault whose layer lies outside the network (an API caller's typo, or
  // an SNFD fault universe, whose layers are unchecked u64s) is rejected
  // before any simulation, at lane widths 1 and 8, and FaultInjector fails
  // the same way.
  auto net = make_net();
  const size_t L = net.num_layers();
  const auto input = busy_input();
  const auto valid = sampled_universe(net, 24, 93);
  fault::FaultDescriptor neuron;
  neuron.kind = fault::FaultKind::kNeuronDead;
  neuron.neuron = {L, 0};
  fault::FaultDescriptor weight;
  weight.kind = fault::FaultKind::kSynapseDead;
  weight.weight = {size_t{1} << 40, 0, 0};
  fault::FaultDescriptor connection;
  connection.kind = fault::FaultKind::kSynapseSaturatedPositive;
  connection.connection_granularity = true;
  connection.connection = {L + 1, 0, 0};
  for (const auto& bad : {neuron, weight, connection}) {
    auto faults = valid;
    faults.insert(faults.begin() + 5, bad);
    const std::string expected = "fault 5 targets layer " + std::to_string(fault_layer(bad)) +
                                 " but num_layers is " + std::to_string(L);
    for (size_t width : {1, 8}) {
      EngineConfig cfg;
      cfg.lane_width = width;
      size_t sunk = 0;
      cfg.result_sink = [&](size_t, const fault::DetectionResult&) { ++sunk; };
      try {
        run_campaign(net, input, faults, cfg);
        ADD_FAILURE() << bad.to_string() << " accepted at width " << width;
      } catch (const std::out_of_range& e) {
        EXPECT_NE(std::string(e.what()).find(expected), std::string::npos) << e.what();
      }
      EXPECT_EQ(sunk, 0u);
    }
    fault::FaultInjector injector(net);
    EXPECT_THROW(injector.inject(bad), std::out_of_range) << bad.to_string();
    EXPECT_FALSE(injector.active());
  }
}

TEST(Engine, DetectOnlyThresholdAccumulatesThinSpreadDivergence) {
  // Regression guard for detect_only + detection_threshold > 0: a stuck
  // output neuron diverges by at most one spike per timestep, so no single
  // frame can cross a threshold of 9.5 — detection is only reachable by
  // accumulating the divergence across frames. detect_only must agree with
  // the full comparison on every detected flag, report a crossing L1 for
  // detected faults and the exact L1 for undetected ones. Runs batches of
  // one (width 1) and of several faults, whose lanes retire mid-window.
  auto net = make_net();
  const auto input = busy_input(40, 8, 111);
  std::vector<fault::FaultDescriptor> faults;
  for (size_t i = 0; i < net.layer(2).num_neurons(); ++i) {
    fault::FaultDescriptor sat;
    sat.kind = fault::FaultKind::kNeuronSaturated;
    sat.neuron = {2, i};
    faults.push_back(sat);
    fault::FaultDescriptor dead;
    dead.kind = fault::FaultKind::kNeuronDead;
    dead.neuron = {2, i};
    faults.push_back(dead);
  }
  // Derive a threshold strictly between the smallest and largest exact L1
  // so the population splits into detected and undetected faults, and well
  // above the largest possible single-frame divergence (1.0 — one stuck
  // neuron), so crossing it takes many frames of accumulation.
  const auto exact = run_campaign(net, input, faults, {});
  std::vector<double> l1s(faults.size());
  for (size_t j = 0; j < faults.size(); ++j) l1s[j] = exact.results[j].output_l1;
  std::sort(l1s.begin(), l1s.end());
  const double threshold = (l1s.front() + l1s.back()) / 2.0;
  ASSERT_GT(threshold, 1.5) << "divergence too small to need accumulation";
  ASSERT_LT(l1s.front(), threshold);
  ASSERT_GT(l1s.back(), threshold);

  EngineConfig full_cfg;
  full_cfg.detection_threshold = threshold;
  const auto full = run_campaign(net, input, faults, full_cfg);
  ASSERT_GT(full.detected_count(), 0u);
  ASSERT_LT(full.detected_count(), faults.size());

  for (const size_t width : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("lane_width=" + std::to_string(width));
    EngineConfig cfg;
    cfg.detect_only = true;
    cfg.detection_threshold = threshold;
    cfg.lane_width = width;
    const auto fast = run_campaign(net, input, faults, cfg);
    ASSERT_EQ(fast.results.size(), full.results.size());
    size_t early_exits = 0;
    for (size_t j = 0; j < faults.size(); ++j) {
      EXPECT_EQ(fast.results[j].detected, full.results[j].detected) << "fault " << j;
      EXPECT_TRUE(fast.results[j].class_count_diff.empty());
      if (full.results[j].detected) {
        // Crossed by accumulation: above the threshold (hence above any
        // single frame's possible mass) but never above the exact L1.
        EXPECT_GT(fast.results[j].output_l1, threshold) << "fault " << j;
        EXPECT_LE(fast.results[j].output_l1, full.results[j].output_l1) << "fault " << j;
        if (fast.results[j].output_l1 < full.results[j].output_l1) ++early_exits;
      } else {
        // Train ended below the threshold: the lower bound is exact.
        EXPECT_EQ(fast.results[j].output_l1, full.results[j].output_l1) << "fault " << j;
      }
    }
    // At least one detected fault must have stopped before the train end,
    // otherwise this test is not exercising the early exit at all.
    EXPECT_GT(early_exits, 0u);
  }
}

TEST(LaneBatch, SingletonGroupsRunAsBatchesOfOne) {
  auto net = make_net();
  const auto input = busy_input();
  // One fault per layer: every group is a singleton, so each runs the lane
  // route as a batch of one, even at the default width.
  std::vector<fault::FaultDescriptor> faults(3);
  for (size_t l = 0; l < 3; ++l) {
    faults[l].kind = fault::FaultKind::kNeuronDead;
    faults[l].neuron = {l, 0};
  }
  const auto singleton = run_campaign(net, input, faults, {});
  EXPECT_EQ(singleton.stats.lane_batches, 3u);
  EXPECT_EQ(singleton.stats.lane_batched_faults, 3u);
  expect_results_identical(singleton.results, test_support::naive_reference(net, input, faults));

  // prefix_reuse off selects the naive reference walk: every layer of every
  // fault from the stimulus, no lanes, full or detect-only.
  const auto dense_faults = sampled_universe(net, 40, 77);
  EngineConfig no_prefix;
  no_prefix.prefix_reuse = false;
  const auto plain = run_campaign(net, input, dense_faults, no_prefix);
  EXPECT_EQ(plain.stats.lane_batches, 0u);
  EXPECT_EQ(plain.stats.layer_forwards, plain.stats.layer_forwards_naive);
  expect_results_identical(plain.results, test_support::naive_reference(net, input, dense_faults));
  no_prefix.detect_only = true;
  expect_results_identical(run_campaign(net, input, dense_faults, no_prefix).results,
                           test_support::naive_reference(net, input, dense_faults, 0.0, true));
}

/// `per_layer` faults from each layer's slice of the all-kinds universe
/// (layers with fewer faults contribute all of them), grouped by layer.
std::vector<fault::FaultDescriptor> per_layer_sample(snn::Network& net, size_t per_layer,
                                                     uint64_t seed) {
  const auto universe = fault::enumerate_faults(net, all_kinds_config(/*conv_connections=*/true));
  util::Rng rng(seed);
  std::vector<fault::FaultDescriptor> faults;
  for (size_t l = 0; l < net.num_layers(); ++l) {
    std::vector<fault::FaultDescriptor> layer;
    for (const auto& f : universe) {
      if (fault_layer(f) == l) layer.push_back(f);
    }
    const auto picked = fault::sample_faults(layer, per_layer, rng);
    faults.insert(faults.end(), picked.begin(), picked.end());
  }
  return faults;
}

/// Lane batches that start at each layer, exactly as the engine's worklist
/// splits the pending faults at `width` (>= 1): n faults make
/// ceil(n / width) near-equal parts, a part of one fault included.
std::vector<size_t> lane_batches_per_layer(const std::vector<fault::FaultDescriptor>& faults,
                                           size_t num_layers, size_t width) {
  std::vector<size_t> per_layer(num_layers, 0);
  for (const auto& f : faults) ++per_layer[fault_layer(f)];
  for (size_t& n : per_layer) n = (n + width - 1) / width;
  return per_layer;
}

/// Rows of the row-major [rows, cols] matrix `w` that fail the exactness
/// certificate.
size_t uncertified_rows(const float* w, size_t rows, size_t cols) {
  size_t count = 0;
  for (size_t r = 0; r < rows; ++r) {
    count += snn::row_sum_exact(snn::row_bound(w + r * cols, cols)) ? 0 : 1;
  }
  return count;
}

/// Closed form of the golden sums the cache keeps for a dense or recurrent
/// layer over T frames: T*N doubles per matrix (W·x, and V·prev for a
/// recurrent layer), the matrix's column-major float copy, and one index
/// per row that fails the certificate. Pool layers keep none; conv sums
/// have their own closed form (ConvDeltaSumsBitIdenticalToNaiveReference).
size_t golden_sums_bytes(const snn::Layer& layer, size_t T) {
  const size_t n = layer.num_neurons();
  const size_t cols = layer.num_inputs();
  if (layer.kind() == snn::LayerKind::kDense) {
    const float* w = static_cast<const snn::DenseLayer&>(layer).weights().data();
    return T * n * sizeof(double) + n * cols * sizeof(float) +
           uncertified_rows(w, n, cols) * sizeof(uint32_t);
  }
  if (layer.kind() == snn::LayerKind::kRecurrent) {
    const auto& rec = static_cast<const snn::RecurrentLayer&>(layer);
    return 2 * T * n * sizeof(double) + (n * cols + n * n) * sizeof(float) +
           (uncertified_rows(rec.weights().data(), n, cols) +
            uncertified_rows(rec.recurrent_weights().data(), n, n)) *
               sizeof(uint32_t);
  }
  return 0;
}

/// The shallowest layer at which a lane batch starts (num_layers if none):
/// the cache keeps golden sums of the dense and recurrent layers from it on.
size_t first_batch_layer(const std::vector<size_t>& batches) {
  size_t l = 0;
  while (l < batches.size() && batches[l] == 0) ++l;
  return l;
}

TEST(LaneBatch, CachedSynapticFramesBitIdenticalToNaiveReference) {
  // Every layer hosts two or more lane batches, so every fault layer's
  // fault-free synaptic frames come from the golden cache. Conv, pool,
  // dense and recurrent fault layers x kernel modes x lane widths, full and
  // detect-only, must still match the naive oracle exactly. Each cached
  // frame, fed through the layer's LIF bank (plus the lateral V·prev term
  // for a recurrent layer), must reproduce the golden spike train; and a
  // budget that sheds the frames changes no result.
  struct Case {
    std::string name;
    snn::Network net;
    tensor::Tensor input;
    std::vector<fault::FaultDescriptor> faults;
  };
  std::vector<Case> cases;
  {
    auto net = make_conv_pool_net();
    util::Rng rng(231);
    auto input = snn::random_spike_train(12, net.input_size(), 0.12, rng);
    auto faults = per_layer_sample(net, 20, 232);
    cases.push_back({"conv-pool-dense", std::move(net), std::move(input), std::move(faults)});
  }
  {
    auto net = make_recurrent_net();
    util::Rng rng(233);
    auto input = snn::random_spike_train(16, net.input_size(), 0.4, rng);
    auto faults = per_layer_sample(net, 20, 234);
    cases.push_back({"recurrent", std::move(net), std::move(input), std::move(faults)});
  }

  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    const size_t L = c.net.num_layers();
    const size_t T = c.input.shape().dim(0);
    const auto naive = test_support::naive_reference(c.net, c.input, c.faults);
    const auto naive_detect =
        test_support::naive_reference(c.net, c.input, c.faults, 0.0, /*detect_only=*/true);

    for (const auto mode :
         {snn::KernelMode::kDense, snn::KernelMode::kSparse, snn::KernelMode::kAuto}) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)));
      // The cached frames themselves reproduce the golden trains.
      GoldenCacheOptions options;
      options.mode = mode;
      for (size_t l = 0; l < L; ++l) options.synaptic_frame_layers.push_back(l);
      const GoldenCache cache = build_golden_cache(c.net, c.input, options);
      for (size_t l = 0; l < L; ++l) {
        SCOPED_TRACE("layer " + std::to_string(l));
        const snn::Layer& layer = c.net.layer(l);
        const size_t n = layer.num_neurons();
        const float* frames = cache.synaptic_frames(l);
        ASSERT_NE(frames, nullptr);
        snn::LifBank bank = layer.lif();
        bank.begin_run(T, /*record_traces=*/false);
        const tensor::Tensor& golden = cache.layer_output(l);
        std::vector<float> syn(n);
        std::vector<float> out(n);
        for (size_t t = 0; t < T; ++t) {
          std::copy(frames + t * n, frames + (t + 1) * n, syn.begin());
          if (layer.kind() == snn::LayerKind::kRecurrent && t > 0) {
            const float* v = static_cast<const snn::RecurrentLayer&>(layer)
                                 .recurrent_weights()
                                 .data();
            const float* prev = golden.row(t - 1);
            for (size_t r = 0; r < n; ++r) {
              double acc = 0.0;
              for (size_t col = 0; col < n; ++col) {
                acc += static_cast<double>(v[r * n + col]) * prev[col];
              }
              syn[r] += static_cast<float>(acc);
            }
          }
          bank.step(syn.data(), out.data());
          for (size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], golden.row(t)[i]) << "t=" << t;
        }
      }

      for (const size_t width : {size_t{2}, size_t{8}}) {
        SCOPED_TRACE("width=" + std::to_string(width));
        for (const size_t batches : lane_batches_per_layer(c.faults, L, width)) {
          ASSERT_GE(batches, 2u);
        }
        EngineConfig cfg;
        cfg.lane_width = width;
        cfg.kernel_mode = mode;
        const auto lane = run_campaign(c.net, c.input, c.faults, cfg);
        expect_results_identical(lane.results, naive);
        EXPECT_GT(lane.stats.synaptic_frames_cached, 0u);
        EXPECT_EQ(lane.stats.synaptic_frames_computed, 0u);

        EngineConfig dcfg = cfg;
        dcfg.detect_only = true;
        const auto lane_fast = run_campaign(c.net, c.input, c.faults, dcfg);
        expect_results_identical(lane_fast.results, naive_detect);
        EXPECT_GT(lane_fast.stats.synaptic_frames_cached, 0u);
        EXPECT_EQ(lane_fast.stats.synaptic_frames_computed, 0u);

        // A budget below the spike trains sheds every cached frame: the
        // batches compute them in place with identical results.
        EngineConfig shed = cfg;
        shed.golden_cache_budget_bytes = 1;
        const auto uncached = run_campaign(c.net, c.input, c.faults, shed);
        EXPECT_EQ(uncached.stats.synaptic_frames_cached, 0u);
        EXPECT_EQ(uncached.stats.synaptic_frames_computed, lane.stats.synaptic_frames_cached);
        expect_results_identical(uncached.results, naive);
        EngineConfig shed_detect = dcfg;
        shed_detect.golden_cache_budget_bytes = 1;
        expect_results_identical(run_campaign(c.net, c.input, c.faults, shed_detect).results,
                                 naive_detect);
      }
    }
  }
}

TEST(LaneBatch, SynapticFrameCountsIndependentOfThreads) {
  // The cached/computed fault-layer frame counts are sums over the
  // worklist's batches, so they must not depend on the thread count. Layer
  // 2 gets a single batch (frames computed in place), the others several
  // (frames cached).
  auto net = make_net();
  const auto input = busy_input(14, 8, 241);
  auto faults = per_layer_sample(net, 24, 242);
  const auto last = std::remove_if(faults.begin(), faults.end(), [&](const auto& f) {
    return fault_layer(f) == 2;
  });
  faults.erase(last, faults.end());
  for (size_t i = 0; i < 5; ++i) {
    fault::FaultDescriptor stuck;
    stuck.kind = i < 4 ? fault::FaultKind::kNeuronDead : fault::FaultKind::kNeuronSaturated;
    stuck.neuron = {2, i % 4};
    faults.push_back(stuck);
  }
  for (const bool detect_only : {false, true}) {
    SCOPED_TRACE(detect_only ? "detect-only" : "full");
    EngineConfig cfg;
    cfg.detect_only = detect_only;
    cfg.num_threads = 1;
    const auto one = run_campaign(net, input, faults, cfg);
    cfg.num_threads = 2;
    const auto two = run_campaign(net, input, faults, cfg);
    EXPECT_GT(one.stats.synaptic_frames_cached, 0u);
    EXPECT_GT(one.stats.synaptic_frames_computed, 0u);
    EXPECT_EQ(one.stats.synaptic_frames_cached, two.stats.synaptic_frames_cached);
    EXPECT_EQ(one.stats.synaptic_frames_computed, two.stats.synaptic_frames_computed);
    expect_results_identical(one.results, two.results);
  }
}

TEST(LaneBatch, WeightFaultOnSilentInputColumnIsUndetected) {
  // A weight fault on an input column the stimulus never drives only
  // changes terms value * 0 = +/-0.0, so the faulty run is the golden run:
  // undetected with output_l1 == 0, equal to the naive oracle, in every
  // kernel mode at every width. Every fault row is skipped (the fault-free
  // row stands), none recomputed, in batches of one too.
  struct Case {
    std::string name;
    snn::Network net;
  };
  std::vector<Case> cases;
  cases.push_back({"dense", make_net()});
  {
    util::Rng rng(251);
    snn::Network net("silent-recurrent");
    auto rec = std::make_unique<snn::RecurrentLayer>(8, 10, snn::LifParams{});
    rec->init_weights(rng, 1.3f, 0.5f);
    net.add_layer(std::move(rec));
    auto out = std::make_unique<snn::DenseLayer>(10, 4, snn::LifParams{});
    out->init_weights(rng, 1.3f);
    net.add_layer(std::move(out));
    cases.push_back({"recurrent", std::move(net)});
  }
  const size_t silent = 3;
  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    const size_t cols = c.net.layer(0).num_inputs();
    const size_t rows = c.net.layer(0).num_neurons();
    tensor::Tensor input = busy_input(16, cols, 252);
    const size_t T = input.shape().dim(0);
    for (size_t t = 0; t < T; ++t) input[t * cols + silent] = 0.0f;
    std::vector<fault::FaultDescriptor> faults;
    for (size_t r = 0; r < rows; ++r) {
      for (const auto kind :
           {fault::FaultKind::kSynapseSaturatedPositive, fault::FaultKind::kSynapseSaturatedNegative,
            fault::FaultKind::kSynapseDead, fault::FaultKind::kSynapseBitFlip}) {
        fault::FaultDescriptor f;
        f.kind = kind;
        f.weight = {0, 0, r * cols + silent};
        f.magnitude = kind == fault::FaultKind::kSynapseBitFlip ? 6.0f : 8.0f;
        faults.push_back(f);
      }
    }
    const auto naive = test_support::naive_reference(c.net, input, faults);
    for (const auto& r : naive) {
      ASSERT_FALSE(r.detected);
      ASSERT_EQ(r.output_l1, 0.0);
    }
    for (const auto mode :
         {snn::KernelMode::kDense, snn::KernelMode::kSparse, snn::KernelMode::kAuto}) {
      for (const size_t width : {size_t{1}, size_t{2}, size_t{8}}) {
        SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                     " width=" + std::to_string(width));
        EngineConfig cfg;
        cfg.kernel_mode = mode;
        cfg.lane_width = width;
        const auto result = run_campaign(c.net, input, faults, cfg);
        expect_results_identical(result.results, naive);
        EXPECT_EQ(result.detected_count(), 0u);
        EXPECT_EQ(result.stats.fault_rows_recomputed, 0u);
        EXPECT_EQ(result.stats.lane_batched_faults, faults.size());
        EXPECT_EQ(result.stats.fault_rows_skipped, faults.size() * T);
      }
    }
  }
}

TEST(LaneBatch, FaultRowCountsIndependentOfThreads) {
  // Recomputed and skipped fault rows are sums of per-fault counts, so the
  // thread count must not move them. Dense, recurrent W and V, conv tap and
  // conv connection faults all contribute.
  struct Case {
    std::string name;
    snn::Network net;
    double density;
  };
  std::vector<Case> cases;
  cases.push_back({"conv-pool-dense", make_conv_pool_net(), 0.12});
  cases.push_back({"recurrent", make_recurrent_net(), 0.4});
  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    util::Rng rng(261);
    const auto input = snn::random_spike_train(14, c.net.input_size(), c.density, rng);
    const auto faults = per_layer_sample(c.net, 24, 262);
    for (const bool detect_only : {false, true}) {
      SCOPED_TRACE(detect_only ? "detect-only" : "full");
      EngineConfig cfg;
      cfg.detect_only = detect_only;
      cfg.num_threads = 1;
      const auto one = run_campaign(c.net, input, faults, cfg);
      cfg.num_threads = 2;
      const auto two = run_campaign(c.net, input, faults, cfg);
      EXPECT_GT(one.stats.fault_rows_recomputed, 0u);
      EXPECT_GT(one.stats.fault_rows_skipped, 0u);
      EXPECT_EQ(one.stats.fault_rows_recomputed, two.stats.fault_rows_recomputed);
      EXPECT_EQ(one.stats.fault_rows_skipped, two.stats.fault_rows_skipped);
      expect_results_identical(one.results, two.results);
    }
  }
}

// ---- Golden-plus-delta lane sums (DESIGN.md §12) --------------------------

TEST(LaneBatch, RowCertificateHoldsExactlyUpToTheBound) {
  // A row passes when sum|w| < 2^(max(e_min - 23, -149) + 53), e_min the
  // smallest binade of its nonzero weights. Rows just under and just over
  // the bound, the smallest binade setting the quantum, the subnormal
  // quantum, zero rows and non-finite weights.
  auto exact = [](const std::vector<float>& row) {
    return snn::row_sum_exact(snn::row_bound(row.data(), row.size()));
  };
  EXPECT_TRUE(exact({}));
  EXPECT_TRUE(exact({0.0f, -0.0f, 0.0f}));
  for (const int e : {-100, -20, 0, 7, 60}) {
    SCOPED_TRACE("e=" + std::to_string(e));
    const float small = std::ldexp(1.0f, e);
    const float top = std::ldexp(1.0f, e + 30);     // the bound for quantum 2^(e-23)
    const float below = std::nextafter(top, 0.0f);  // top - 2^(e+6)
    EXPECT_TRUE(exact({small, below}));             // sum = top - 2^(e+6) + 2^e
    EXPECT_TRUE(exact({-small, 0.0f, -below}));
    EXPECT_FALSE(exact({small, top}));               // sum = top + 2^e
    EXPECT_FALSE(exact({small * 0.5f, below}));      // one binade lower halves the bound
    EXPECT_TRUE(exact({small * 0.5f, std::nextafter(top * 0.5f, 0.0f)}));
  }
  // Subnormals: the quantum is 2^-149 however small the binade, so a row of
  // a subnormal and a weight near 2^-100 is exact (a quantum of
  // 2^(ilogb - 23) would reject it), while the bound 2^-96 still holds.
  const float sub = std::ldexp(1.0f, -140);
  EXPECT_TRUE(exact({sub, std::ldexp(1.0f, -100)}));
  EXPECT_TRUE(exact({std::ldexp(1.0f, -149), 3 * std::ldexp(1.0f, -149), sub}));
  EXPECT_TRUE(exact({std::ldexp(1.0f, -149), std::nextafter(std::ldexp(1.0f, -96), 0.0f)}));
  EXPECT_FALSE(exact({std::ldexp(1.0f, -149), std::ldexp(1.0f, -96)}));
  // Non-finite weights never pass.
  EXPECT_FALSE(exact({1.0f, std::numeric_limits<float>::infinity()}));
  EXPECT_FALSE(exact({1.0f, std::numeric_limits<float>::quiet_NaN()}));
  // A faulty value widens the row: one certificate covers both rows.
  const std::vector<float> row = {0.5f, -0.25f, 0.125f};
  const snn::RowBound b = snn::row_bound(row.data(), row.size());
  EXPECT_TRUE(snn::row_sum_exact(snn::with_weight(b, 0.0f)));
  EXPECT_TRUE(snn::row_sum_exact(snn::with_weight(b, -1.5f)));
  EXPECT_FALSE(snn::row_sum_exact(snn::with_weight(b, 1e30f)));
  EXPECT_FALSE(snn::row_sum_exact(snn::with_weight(b, std::ldexp(1.0f, -40))));

  // What the certificate buys: on a passing row every order of every 0/1
  // subset sums to the same double; on this failing row the order shows.
  const std::vector<float> wide = {std::ldexp(1.0f, 60), 1.0f, -std::ldexp(1.0f, 60)};
  EXPECT_FALSE(exact(wide));
  EXPECT_NE((static_cast<double>(wide[0]) + wide[1]) + wide[2],
            (static_cast<double>(wide[0]) + wide[2]) + wide[1]);
  util::Rng rng(271);
  size_t certified = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> w(24);
    for (auto& v : w) {
      const int binade = static_cast<int>(rng.uniform_int(0, 20)) - 10;
      v = std::ldexp(static_cast<float>(rng.uniform(-1.0, 1.0)), binade);
    }
    if (!exact(w)) continue;
    ++certified;
    std::vector<double> terms;
    for (const float v : w) {
      if (rng.bernoulli(0.5)) terms.push_back(v);
    }
    double ascending = 0.0;
    for (const double t : terms) ascending += t;
    for (int perm = 0; perm < 3; ++perm) {
      for (size_t i = terms.size(); i > 1; --i) {
        std::swap(terms[i - 1], terms[rng.uniform_int(0, static_cast<int64_t>(i) - 1)]);
      }
      double shuffled = 0.0;
      for (const double t : terms) shuffled += t;
      ASSERT_EQ(shuffled, ascending) << "trial " << trial;
    }
  }
  EXPECT_GT(certified, 100u);
}

/// make_net with weights spanning far more binades than the certificate
/// allows on some rows. Layer 0's neurons 0 and 15 get identical strong
/// rows, so they spike together; layer 1's row 0 holds +2^60 at column 0,
/// 2.0 at columns 1-14 and -2^60 at column 15, so its ordered double sum
/// loses columns 1-14 whenever column 0 spikes (a golden-plus-delta sum
/// would keep them), and layer 1's neuron 0 drives every output neuron.
/// Rows 1-5 of layer 1 hold one weight scaled by 2^-40 (40 binades), row 1
/// of layer 2 one scaled by 2^-45.
snn::Network make_wide_binade_net() {
  snn::Network net = make_net(61);
  auto& w0 = static_cast<snn::DenseLayer&>(net.layer(0)).weights();
  const size_t c0 = net.layer(0).num_inputs();
  for (size_t c = 0; c < c0; ++c) w0[c] = w0[15 * c0 + c] = 2.0f;
  auto& w1 = static_cast<snn::DenseLayer&>(net.layer(1)).weights();
  const size_t c1 = net.layer(1).num_inputs();
  for (size_t c = 1; c < 15; ++c) w1[c] = 2.0f;
  w1[0] = std::ldexp(1.0f, 60);
  w1[15] = -std::ldexp(1.0f, 60);
  for (size_t r = 1; r <= 5; ++r) w1[r * c1 + r] *= std::ldexp(1.0f, -40);
  auto& w2 = static_cast<snn::DenseLayer&>(net.layer(2)).weights();
  const size_t c2 = net.layer(2).num_inputs();
  for (size_t r = 0; r < net.layer(2).num_neurons(); ++r) w2[r * c2] = 5.0f;
  w2[1 * c2 + 3] *= std::ldexp(1.0f, -45);
  return net;
}

TEST(LaneBatch, WideBinadeWeightsFailCertificateAndMatchNaiveReference) {
  // Rows that fail the certificate keep the ordered lane sums; the rest of
  // the layer takes the delta route. Both must reproduce the naive oracle
  // at every kernel mode and width, full and detect-only.
  auto net = make_wide_binade_net();
  const auto& w1 = static_cast<const snn::DenseLayer&>(net.layer(1)).weights();
  const size_t c1 = net.layer(1).num_inputs();
  EXPECT_FALSE(snn::row_sum_exact(snn::row_bound(w1.data(), c1)));
  EXPECT_FALSE(snn::row_sum_exact(snn::row_bound(w1.data() + 3 * c1, c1)));
  EXPECT_TRUE(snn::row_sum_exact(snn::row_bound(w1.data() + 7 * c1, c1)));
  const auto input = busy_input(16, 8, 272);
  const auto faults = per_layer_sample(net, 24, 273);
  const auto naive = test_support::naive_reference(net, input, faults);
  const auto naive_detect =
      test_support::naive_reference(net, input, faults, 0.0, /*detect_only=*/true);
  for (const auto mode :
       {snn::KernelMode::kDense, snn::KernelMode::kSparse, snn::KernelMode::kAuto}) {
    for (const size_t width : {size_t{2}, size_t{5}, size_t{8}}) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " width=" + std::to_string(width));
      EngineConfig cfg;
      cfg.kernel_mode = mode;
      cfg.lane_width = width;
      const auto lane = run_campaign(net, input, faults, cfg);
      expect_results_identical(lane.results, naive);
      EXPECT_GT(lane.stats.delta_rows_certified, 0u);
      EXPECT_GT(lane.stats.delta_rows_uncertified, 0u);
      EngineConfig dcfg = cfg;
      dcfg.detect_only = true;
      expect_results_identical(run_campaign(net, input, faults, dcfg).results, naive_detect);
    }
  }
}

TEST(LaneBatch, DeltaSumsBitIdenticalToNaiveReference) {
  // Golden-plus-delta fuzz: dense, conv-pool-dense (delta only in the dense
  // head) and a net whose recurrent layer runs downstream of layer-0 faults
  // and as a fault layer (V·prev delta), every kernel mode x widths 1/2/4-8,
  // full and detect-only results against the naive oracle. The delta route
  // must actually run.
  struct Case {
    std::string name;
    snn::Network net;
    tensor::Tensor input;
  };
  std::vector<Case> cases;
  cases.push_back({"dense", make_net(), busy_input(18, 8, 281)});
  {
    auto net = make_conv_pool_net();
    util::Rng rng(282);
    auto input = snn::random_spike_train(14, net.input_size(), 0.15, rng);
    cases.push_back({"conv-pool-dense", std::move(net), std::move(input)});
  }
  {
    auto net = make_recurrent_net();
    util::Rng rng(283);
    auto input = snn::random_spike_train(18, net.input_size(), 0.4, rng);
    cases.push_back({"recurrent", std::move(net), std::move(input)});
  }
  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto faults = per_layer_sample(c.net, 21, 284);
    const auto naive = test_support::naive_reference(c.net, c.input, faults);
    const auto naive_detect =
        test_support::naive_reference(c.net, c.input, faults, 0.0, /*detect_only=*/true);
    for (const auto mode :
         {snn::KernelMode::kDense, snn::KernelMode::kSparse, snn::KernelMode::kAuto}) {
      for (const size_t width : {1, 2, 4, 5, 6, 7, 8}) {
        SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                     " width=" + std::to_string(width));
        EngineConfig cfg;
        cfg.kernel_mode = mode;
        cfg.lane_width = width;
        const auto lane = run_campaign(c.net, c.input, faults, cfg);
        expect_results_identical(lane.results, naive);
        EXPECT_GT(lane.stats.delta_rows_certified, 0u);
        EXPECT_EQ(lane.stats.delta_rows_uncertified, 0u);
        EXPECT_GT(lane.stats.lane_synaptic_adds, 0u);
        EngineConfig dcfg = cfg;
        dcfg.detect_only = true;
        const auto lane_fast = run_campaign(c.net, c.input, faults, dcfg);
        expect_results_identical(lane_fast.results, naive_detect);
        EXPECT_GT(lane_fast.stats.delta_rows_certified, 0u);
      }
    }
  }
}

TEST(LaneBatch, BudgetSheddingGoldenSumsKeepsResults) {
  // A budget below the spike trains sheds the golden sums with the frames:
  // the lane batches take the ordered lane kernels (no delta work is
  // counted) and every result stays identical.
  for (auto net : {make_net(), make_recurrent_net()}) {
    SCOPED_TRACE(net.name());
    util::Rng rng(291);
    const auto input = snn::random_spike_train(16, net.input_size(), 0.4, rng);
    const auto faults = per_layer_sample(net, 20, 292);
    const auto naive = test_support::naive_reference(net, input, faults);
    for (const bool detect_only : {false, true}) {
      SCOPED_TRACE(detect_only ? "detect-only" : "full");
      EngineConfig cfg;
      cfg.detect_only = detect_only;
      const auto kept = run_campaign(net, input, faults, cfg);
      cfg.golden_cache_budget_bytes = 1;
      const auto shed = run_campaign(net, input, faults, cfg);
      EXPECT_GT(kept.stats.delta_rows_certified, 0u);
      EXPECT_EQ(shed.stats.delta_rows_certified, 0u);
      EXPECT_EQ(shed.stats.delta_rows_uncertified, 0u);
      EXPECT_EQ(shed.stats.lane_synaptic_adds, 0u);
      EXPECT_LT(shed.stats.golden_cache_bytes, kept.stats.golden_cache_bytes);
      expect_results_identical(shed.results, kept.results);
      if (!detect_only) expect_results_identical(shed.results, naive);
    }
  }
}

TEST(LaneBatch, DeltaCountsIndependentOfThreads) {
  // Column adds and certified/uncertified delta rows are sums of per-lane
  // work over the worklist's batches, so the thread count must not move
  // them; the wide-binade net contributes uncertified rows.
  for (auto net : {make_recurrent_net(), make_wide_binade_net()}) {
    SCOPED_TRACE(net.name());
    util::Rng rng(301);
    const auto input = snn::random_spike_train(14, net.input_size(), 0.4, rng);
    const auto faults = per_layer_sample(net, 24, 302);
    for (const bool detect_only : {false, true}) {
      SCOPED_TRACE(detect_only ? "detect-only" : "full");
      EngineConfig cfg;
      cfg.detect_only = detect_only;
      cfg.num_threads = 1;
      const auto one = run_campaign(net, input, faults, cfg);
      cfg.num_threads = 2;
      const auto two = run_campaign(net, input, faults, cfg);
      EXPECT_GT(one.stats.lane_synaptic_adds, 0u);
      EXPECT_GT(one.stats.delta_rows_certified, 0u);
      EXPECT_EQ(one.stats.lane_synaptic_adds, two.stats.lane_synaptic_adds);
      EXPECT_EQ(one.stats.delta_rows_certified, two.stats.delta_rows_certified);
      EXPECT_EQ(one.stats.delta_rows_uncertified, two.stats.delta_rows_uncertified);
      expect_results_identical(one.results, two.results);
    }
  }
}

// ---- Golden-plus-delta conv layers (DESIGN.md §12) ------------------------

/// conv -> conv -> dense. The second conv runs downstream of layer-0 faults
/// (the conv delta) and hosts faults of its own, whose fault-free frames
/// are the casts of its golden sums. Its padding puts border pixels on
/// every edge, each summing a subset of its channel's kernel; layer 0's
/// stride 2 leaves input pixels that feed one, two or four output pixels.
snn::Network make_conv_conv_net(uint64_t seed = 321) {
  util::Rng rng(seed);
  snn::LifParams lif;
  snn::Network net("campaign-conv-conv");
  snn::Conv2dSpec a;
  a.in_channels = 2;
  a.in_height = 10;
  a.in_width = 10;
  a.out_channels = 4;
  a.kernel = 3;
  a.stride = 2;
  a.padding = 1;
  auto c1 = std::make_unique<snn::ConvLayer>(a, lif);
  c1->init_weights(rng, 1.4f);
  net.add_layer(std::move(c1));
  snn::Conv2dSpec b;
  b.in_channels = 4;
  b.in_height = 5;
  b.in_width = 5;
  b.out_channels = 6;
  b.kernel = 3;
  b.stride = 1;
  b.padding = 1;
  auto c2 = std::make_unique<snn::ConvLayer>(b, lif);
  c2->init_weights(rng, 1.4f);
  net.add_layer(std::move(c2));
  auto fc = std::make_unique<snn::DenseLayer>(b.output_size(), 5, lif);
  fc->init_weights(rng, 1.3f);
  net.add_layer(std::move(fc));
  return net;
}

/// conv -> pool -> conv: the delta conv reads a pool layer's trains and is
/// the output layer, so the detection ledger reads its lanes directly.
snn::Network make_conv_pool_conv_net(uint64_t seed = 322) {
  util::Rng rng(seed);
  snn::LifParams lif;
  snn::Network net("campaign-conv-pool-conv");
  snn::Conv2dSpec a;
  a.in_channels = 1;
  a.in_height = 8;
  a.in_width = 8;
  a.out_channels = 4;
  a.kernel = 3;
  a.stride = 1;
  a.padding = 1;
  auto c1 = std::make_unique<snn::ConvLayer>(a, lif);
  c1->init_weights(rng, 1.4f);
  net.add_layer(std::move(c1));
  snn::SumPoolSpec pool;
  pool.channels = 4;
  pool.in_height = 8;
  pool.in_width = 8;
  pool.window = 2;
  net.add_layer(std::make_unique<snn::SumPoolLayer>(pool, lif));
  snn::Conv2dSpec b;
  b.in_channels = 4;
  b.in_height = 4;
  b.in_width = 4;
  b.out_channels = 3;
  b.kernel = 3;
  b.stride = 2;
  b.padding = 1;
  auto c2 = std::make_unique<snn::ConvLayer>(b, lif);
  c2->init_weights(rng, 1.6f);
  net.add_layer(std::move(c2));
  return net;
}

/// make_conv_conv_net with one tap of layer 1's output channel 0 scaled by
/// 2^-40: that channel's kernel spans 40 binades more and fails the
/// certificate, so the whole layer keeps the ordered lane kernels.
snn::Network make_wide_binade_conv_net() {
  snn::Network net = make_conv_conv_net(323);
  static_cast<snn::ConvLayer&>(net.layer(1)).weights()[4] *= std::ldexp(1.0f, -40);
  return net;
}

struct ConvCase {
  std::string name;
  snn::Network net;
  tensor::Tensor input;
};

std::vector<ConvCase> conv_delta_cases() {
  std::vector<ConvCase> cases;
  {
    auto net = make_conv_conv_net();
    util::Rng rng(331);
    auto input = snn::random_spike_train(12, net.input_size(), 0.25, rng);
    cases.push_back({"conv-conv-dense", std::move(net), std::move(input)});
  }
  {
    auto net = make_conv_pool_conv_net();
    util::Rng rng(332);
    auto input = snn::random_spike_train(12, net.input_size(), 0.3, rng);
    cases.push_back({"conv-pool-conv", std::move(net), std::move(input)});
  }
  return cases;
}

TEST(LaneBatch, ConvDeltaSumsBitIdenticalToNaiveReference) {
  // A conv layer downstream of the shallowest fault layer keeps its golden
  // sums: their casts step its LIF bank to the golden train, they replace
  // the layer's float frames, and the lane batches take the conv delta. At
  // every lane width (1-8 and 16), kernel mode and backend, full and
  // detect-only results must match the naive oracle, and the delta must do
  // work.
  tensor::simd::Backend prior = tensor::simd::active_backend();
  for (auto& c : conv_delta_cases()) {
    SCOPED_TRACE(c.name);
    const size_t T = c.input.shape().dim(0);
    // The delta conv: layer 1 before the dense head, else the output layer.
    const size_t conv_l = c.net.layer(2).kind() == snn::LayerKind::kDense ? 1 : 2;
    {
      GoldenCacheOptions options;
      options.golden_sums_from_layer = 0;
      for (size_t l = 0; l < c.net.num_layers(); ++l) options.synaptic_frame_layers.push_back(l);
      const GoldenCache cache = build_golden_cache(c.net, c.input, options);
      EXPECT_EQ(cache.conv_sums(0), nullptr);  // the shallowest layer keeps none
      EXPECT_NE(cache.synaptic_frames(0), nullptr);
      ASSERT_NE(cache.conv_sums(conv_l), nullptr);
      EXPECT_EQ(cache.synaptic_frames(conv_l), nullptr);
      const auto& conv = static_cast<const snn::ConvLayer&>(c.net.layer(conv_l));
      const snn::Conv2dSpec& s = conv.spec();
      const size_t n = conv.num_neurons();
      EXPECT_EQ(cache.layer_bytes[conv_l],
                T * n * (sizeof(float) + sizeof(double)) + s.weight_count() * sizeof(double));
      snn::LifBank bank = conv.lif();
      bank.begin_run(T, /*record_traces=*/false);
      std::vector<float> syn(n);
      std::vector<float> out(n);
      for (size_t t = 0; t < T; ++t) {
        snn::cast_conv_sums(cache.conv_sums(conv_l) + t * n, s.out_height() * s.out_width(),
                            s.out_channels, syn.data());
        bank.step(syn.data(), out.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], cache.layer_output(conv_l).row(t)[i]) << "t=" << t;
        }
      }
    }
    auto faults = per_layer_sample(c.net, 18, 333);
    // Synapse faults dominate the sample; neuron faults at the delta conv
    // read its fault-free currents, the casts of its golden sums.
    std::vector<fault::FaultDescriptor> neuron_faults;
    for (const auto& f : fault::enumerate_faults(c.net, all_kinds_config(true))) {
      if (fault_layer(f) == conv_l && f.targets_neuron()) neuron_faults.push_back(f);
    }
    util::Rng pick(334);
    for (const auto& f : fault::sample_faults(neuron_faults, 12, pick)) faults.push_back(f);
    const auto naive = test_support::naive_reference(c.net, c.input, faults);
    const auto naive_detect =
        test_support::naive_reference(c.net, c.input, faults, 0.0, /*detect_only=*/true);
    for (const auto backend : tensor::simd::available_backends()) {
      ASSERT_TRUE(tensor::simd::force_backend(backend));
      for (const auto mode :
           {snn::KernelMode::kDense, snn::KernelMode::kSparse, snn::KernelMode::kAuto}) {
        for (const size_t width : {1, 2, 3, 4, 5, 6, 7, 8, 16}) {
          SCOPED_TRACE(std::string("backend=") + tensor::simd::backend_name(backend) +
                       " mode=" + std::to_string(static_cast<int>(mode)) +
                       " width=" + std::to_string(width));
          EngineConfig cfg;
          cfg.kernel_mode = mode;
          cfg.lane_width = width;
          const auto lane = run_campaign(c.net, c.input, faults, cfg);
          expect_results_identical(lane.results, naive);
          EXPECT_GT(lane.stats.delta_rows_certified, 0u);
          EXPECT_EQ(lane.stats.delta_rows_uncertified, 0u);
          EXPECT_GT(lane.stats.lane_synaptic_adds, 0u);
          EngineConfig dcfg = cfg;
          dcfg.detect_only = true;
          const auto fast = run_campaign(c.net, c.input, faults, dcfg);
          expect_results_identical(fast.results, naive_detect);
          EXPECT_GT(fast.stats.delta_rows_certified, 0u);
        }
      }
    }
  }
  tensor::simd::force_backend(prior);
}

TEST(LaneBatch, ConvDeltaBudgetOneByteShortShedsSums) {
  // One byte under what the cache keeps sheds the conv sums with the dense
  // sums and the frames: no delta work is counted, and every result stays
  // identical to the naive oracle.
  for (auto& c : conv_delta_cases()) {
    SCOPED_TRACE(c.name);
    const auto faults = per_layer_sample(c.net, 18, 341);
    for (const bool detect_only : {false, true}) {
      SCOPED_TRACE(detect_only ? "detect-only" : "full");
      const auto naive =
          test_support::naive_reference(c.net, c.input, faults, 0.0, detect_only);
      EngineConfig cfg;
      cfg.detect_only = detect_only;
      const auto kept = run_campaign(c.net, c.input, faults, cfg);
      EXPECT_GT(kept.stats.lane_synaptic_adds, 0u);
      cfg.golden_cache_budget_bytes = kept.stats.golden_cache_bytes - 1;
      const auto shed = run_campaign(c.net, c.input, faults, cfg);
      EXPECT_LT(shed.stats.golden_cache_bytes, kept.stats.golden_cache_bytes);
      EXPECT_EQ(shed.stats.delta_rows_certified, 0u);
      EXPECT_EQ(shed.stats.delta_rows_uncertified, 0u);
      EXPECT_EQ(shed.stats.lane_synaptic_adds, 0u);
      EXPECT_EQ(shed.stats.synaptic_frames_cached, 0u);
      expect_results_identical(kept.results, naive);
      expect_results_identical(shed.results, naive);
    }
  }
}

TEST(LaneBatch, WideBinadeConvKernelFailsCertificateAndMatchesNaiveReference) {
  // A conv layer with one uncertified channel keeps no sums and takes the
  // ordered lane kernels for every output pixel, counted as uncertified
  // rows; its float frames stay cached. Results match the oracle.
  auto net = make_wide_binade_conv_net();
  const auto& conv = static_cast<const snn::ConvLayer&>(net.layer(1));
  const size_t taps = conv.spec().in_channels * conv.spec().kernel * conv.spec().kernel;
  EXPECT_FALSE(snn::row_sum_exact(snn::row_bound(conv.weights().data(), taps)));
  for (size_t oc = 1; oc < conv.spec().out_channels; ++oc) {
    EXPECT_TRUE(snn::row_sum_exact(snn::row_bound(conv.weights().data() + oc * taps, taps)));
  }
  util::Rng rng(351);
  const auto input = snn::random_spike_train(12, net.input_size(), 0.25, rng);
  {
    GoldenCacheOptions options;
    options.golden_sums_from_layer = 0;
    options.synaptic_frame_layers = {1};
    const GoldenCache cache = build_golden_cache(net, input, options);
    EXPECT_EQ(cache.conv_sums(1), nullptr);
    EXPECT_NE(cache.synaptic_frames(1), nullptr);
    EXPECT_EQ(cache.sums[1].w_uncertified, std::vector<uint32_t>{0});
  }
  const auto faults = per_layer_sample(net, 18, 352);
  const auto naive = test_support::naive_reference(net, input, faults);
  const auto naive_detect =
      test_support::naive_reference(net, input, faults, 0.0, /*detect_only=*/true);
  for (const auto mode :
       {snn::KernelMode::kDense, snn::KernelMode::kSparse, snn::KernelMode::kAuto}) {
    for (const size_t width : {size_t{2}, size_t{5}, size_t{8}}) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " width=" + std::to_string(width));
      EngineConfig cfg;
      cfg.kernel_mode = mode;
      cfg.lane_width = width;
      const auto lane = run_campaign(net, input, faults, cfg);
      expect_results_identical(lane.results, naive);
      EXPECT_GT(lane.stats.delta_rows_uncertified, 0u);
      EngineConfig dcfg = cfg;
      dcfg.detect_only = true;
      expect_results_identical(run_campaign(net, input, faults, dcfg).results, naive_detect);
    }
  }
}

TEST(LaneBatch, ConvDeltaCountsIndependentOfThreads) {
  // Scattered pixels and certified/uncertified conv rows are per-lane sums
  // over the worklist's batches: the thread count must not move them.
  std::vector<ConvCase> cases = conv_delta_cases();
  {
    auto net = make_wide_binade_conv_net();
    util::Rng rng(361);
    auto input = snn::random_spike_train(12, net.input_size(), 0.25, rng);
    cases.push_back({"wide-binade-conv", std::move(net), std::move(input)});
  }
  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto faults = per_layer_sample(c.net, 24, 362);
    for (const bool detect_only : {false, true}) {
      SCOPED_TRACE(detect_only ? "detect-only" : "full");
      EngineConfig cfg;
      cfg.detect_only = detect_only;
      cfg.num_threads = 1;
      const auto one = run_campaign(c.net, c.input, faults, cfg);
      cfg.num_threads = 2;
      const auto two = run_campaign(c.net, c.input, faults, cfg);
      EXPECT_GT(one.stats.delta_rows_certified + one.stats.delta_rows_uncertified, 0u);
      EXPECT_EQ(one.stats.lane_synaptic_adds, two.stats.lane_synaptic_adds);
      EXPECT_EQ(one.stats.delta_rows_certified, two.stats.delta_rows_certified);
      EXPECT_EQ(one.stats.delta_rows_uncertified, two.stats.delta_rows_uncertified);
      EXPECT_EQ(one.stats.synaptic_frames_cached, two.stats.synaptic_frames_cached);
      EXPECT_EQ(one.stats.synaptic_frames_computed, two.stats.synaptic_frames_computed);
      expect_results_identical(one.results, two.results);
    }
  }
}

TEST(Engine, StimulusOfWrongWidthIsRejected) {
  // A stimulus one column narrower or wider than the first layer is
  // rejected before any work starts, whether that layer is dense,
  // recurrent or conv, full or detect-only, cold or through a dictionary
  // (which must not take the stimulus in).
  struct Case {
    std::string name;
    snn::Network net;
  };
  std::vector<Case> cases;
  cases.push_back({"dense-first", make_net()});
  {
    util::Rng rng(371);
    snn::Network net("recurrent-first");
    auto rec = std::make_unique<snn::RecurrentLayer>(8, 10, snn::LifParams{});
    rec->init_weights(rng, 1.3f, 0.5f);
    net.add_layer(std::move(rec));
    auto out = std::make_unique<snn::DenseLayer>(10, 4, snn::LifParams{});
    out->init_weights(rng, 1.3f);
    net.add_layer(std::move(out));
    cases.push_back({"recurrent-first", std::move(net)});
  }
  cases.push_back({"conv-first", make_conv_conv_net()});
  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto faults = all_kinds_universe(c.net, 40, 372);
    const size_t cols = c.net.layer(0).num_inputs();
    for (const size_t width : {cols - 1, cols + 1}) {
      util::Rng rng(373);
      const auto bad = snn::random_spike_train(10, width, 0.4, rng);
      for (const bool detect_only : {false, true}) {
        SCOPED_TRACE("width=" + std::to_string(width) + (detect_only ? " detect-only" : " full"));
        EngineConfig cfg;
        cfg.detect_only = detect_only;
        EXPECT_THROW(run_campaign(c.net, bad, faults, cfg), std::invalid_argument);
        coverage::FaultDictionary dict =
            coverage::make_dictionary(c.net, faults, cfg.detection_threshold, detect_only);
        coverage::IncrementalConfig ic;
        ic.engine = cfg;
        EXPECT_THROW(coverage::run_incremental_campaign(c.net, bad, faults, dict, ic),
                     std::invalid_argument);
        EXPECT_EQ(dict.num_stimuli(), 0u);
      }
    }
  }
}

TEST(LaneBatch, WorklistSplitsLayerGroupsIntoNearEqualBatches) {
  // n pending faults of a layer ride ceil(n / width) near-equal lane
  // batches — 17 at width 8 is 6/6/5, 9 is 5/4 — and a lone fault (or the
  // odd one out at width 2) is a batch of one.
  auto net = make_net();
  const auto input = busy_input(12, 8, 311);
  const auto universe = fault::enumerate_faults(net, all_kinds_config(false));
  auto take = [&](size_t layer, size_t count) {
    std::vector<fault::FaultDescriptor> out;
    for (const auto& f : universe) {
      if (fault_layer(f) == layer && out.size() < count) out.push_back(f);
    }
    return out;
  };
  struct Split {
    std::vector<size_t> per_layer;
    size_t width;
    size_t batches;
  };
  for (const Split& s : {Split{{17, 9, 1}, 8, 6}, Split{{3, 2, 0}, 2, 3},
                         Split{{16, 0, 5}, 8, 3}, Split{{8, 0, 0}, 8, 1}}) {
    std::vector<fault::FaultDescriptor> faults;
    size_t total = 0;
    for (size_t l = 0; l < s.per_layer.size(); ++l) {
      const auto picked = take(l, s.per_layer[l]);
      ASSERT_EQ(picked.size(), s.per_layer[l]);
      faults.insert(faults.end(), picked.begin(), picked.end());
      total += s.per_layer[l];
    }
    SCOPED_TRACE("faults=" + std::to_string(total) + " width=" + std::to_string(s.width));
    const auto batches = lane_batches_per_layer(faults, net.num_layers(), s.width);
    EXPECT_EQ(std::accumulate(batches.begin(), batches.end(), size_t{0}), s.batches);
    EngineConfig cfg;
    cfg.lane_width = s.width;
    const auto result = run_campaign(net, input, faults, cfg);
    EXPECT_EQ(result.stats.lane_batches, s.batches);
    EXPECT_EQ(result.stats.lane_batched_faults, total);
    expect_results_identical(result.results, test_support::naive_reference(net, input, faults));
  }
}

// The contract the sharded orchestrator (DESIGN.md §15) leans on: splitting
// a campaign into contiguous shards and running each shard independently —
// under ANY combination of shard count, lane width and thread count — yields
// results identical to the single-process, single-threaded, lane-free run.
// This is the in-process core of the merge-identity argument; the
// multi-process half (serialized dictionary bytes) lives in
// test_orchestrator.
TEST(DeterminismMatrix, ShardingLanesAndThreadsNeverChangeResults) {
  auto net = make_net();
  const auto input = busy_input();
  const auto faults = sampled_universe(net, 48, 29);

  // Reference: one shard, no lanes, no threads.
  EngineConfig ref_cfg;
  ref_cfg.num_threads = 1;
  ref_cfg.lane_width = 1;
  const auto reference = run_campaign(net, input, faults, ref_cfg);
  ASSERT_TRUE(reference.completed);
  ASSERT_EQ(reference.results.size(), faults.size());

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    for (const size_t lanes : {size_t{1}, size_t{8}}) {
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) + " lanes=" + std::to_string(lanes) +
                     " threads=" + std::to_string(threads));
        EngineConfig cfg;
        cfg.num_threads = threads;
        cfg.lane_width = lanes;
        std::vector<fault::DetectionResult> stitched;
        for (const auto& range : plan_shards(faults.size(), shards)) {
          const std::vector<fault::FaultDescriptor> slice(faults.begin() + range.begin,
                                                          faults.begin() + range.end);
          const auto shard_run = run_campaign(net, input, slice, cfg);
          ASSERT_TRUE(shard_run.completed);
          stitched.insert(stitched.end(), shard_run.results.begin(), shard_run.results.end());
        }
        expect_results_identical(stitched, reference.results);
      }
    }
  }
}

// ---- Result cache and golden-cache budget ---------------------------------

TEST(Engine, ResultCacheServesKnownPairsAndSimulatesOnlyTheRest) {
  // Pairs the result cache serves skip simulation and never reach
  // result_sink; the joined results equal the naive oracle's at widths 1
  // and 8. (Resuming a cancelled campaign from a dictionary is
  // Incremental.CancelledRunResumesFromDictionary in test_coverage.)
  auto net = make_net();
  const auto input = busy_input();
  const auto faults = sampled_universe(net, 64, 197);
  const auto naive = test_support::naive_reference(net, input, faults);
  for (const size_t width : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    EngineConfig cfg;
    cfg.lane_width = width;
    size_t served = 0;
    cfg.result_cache = [&](size_t j, fault::DetectionResult& r) {
      if (j % 3 == 0) return false;
      r = naive[j];
      ++served;
      return true;
    };
    std::vector<size_t> sunk;
    cfg.result_sink = [&](size_t j, const fault::DetectionResult&) { sunk.push_back(j); };
    const auto run = run_campaign(net, input, faults, cfg);
    EXPECT_EQ(served, faults.size() - (faults.size() + 2) / 3);
    EXPECT_EQ(run.stats.pairs_reused, served);
    EXPECT_EQ(run.stats.faults_simulated, faults.size() - served);
    std::sort(sunk.begin(), sunk.end());
    EXPECT_EQ(std::adjacent_find(sunk.begin(), sunk.end()), sunk.end());
    EXPECT_EQ(sunk.size(), faults.size() - served);
    for (const size_t j : sunk) EXPECT_EQ(j % 3, 0u) << "served pair " << j << " was sunk";
    expect_results_identical(run.results, naive);
  }
}

TEST(GoldenCache, MemoryAccountingIsExact) {
  // Per-layer byte accounting: spike train = T*N*4 bytes; a layer at which
  // two or more lane batches start adds its fault-free synaptic frames,
  // T*N*4 bytes, and every dense or recurrent layer from the first batch's
  // layer on adds its golden sums (golden_sums_bytes). The stats must
  // reproduce the closed form exactly at a width where no layer hosts two
  // batches (8) and at one where some do (2).
  auto net = make_net();
  const size_t T = 14;
  const auto input = busy_input(T, 8, 195);
  const auto faults = sampled_universe(net, 8, 196);
  bool some_syn = false;
  bool some_sums = false;
  for (const size_t width : {size_t{8}, size_t{2}}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    EngineConfig cfg;
    cfg.lane_width = width;
    const auto result = run_campaign(net, input, faults, cfg);
    ASSERT_EQ(result.stats.golden_cache_layer_bytes.size(), net.num_layers());
    const auto batches = lane_batches_per_layer(faults, net.num_layers(), width);
    size_t total = 0;
    for (size_t l = 0; l < net.num_layers(); ++l) {
      const size_t n = net.layer(l).num_neurons();
      size_t expected_syn = batches[l] >= 2 ? T * n * sizeof(float) : size_t{0};
      some_syn = some_syn || expected_syn > 0;
      if (l >= first_batch_layer(batches)) {
        const size_t sums = golden_sums_bytes(net.layer(l), T);
        some_sums = some_sums || sums > 0;
        expected_syn += sums;
      }
      EXPECT_EQ(result.stats.golden_cache_layer_bytes[l], T * n * sizeof(float) + expected_syn)
          << "layer " << l;
      total += result.stats.golden_cache_layer_bytes[l];
    }
    EXPECT_EQ(result.stats.golden_cache_bytes, total);
  }
  EXPECT_TRUE(some_syn);
  EXPECT_TRUE(some_sums);
}

TEST(LaneBatch, BudgetOneByteShortKeepsOnlyTheSpikeTrains) {
  // The budget has one shedding step: the fault-layer synaptic frames and
  // the golden sums go together, and the spike trains, which prefix reuse
  // and detection need, always stay. One byte short of the roomy cache
  // leaves exactly the trains (T*N*4 bytes per layer) and every lane batch
  // computes its frames in place; a budget equal to the roomy size changes
  // nothing. Results equal the naive oracle's throughout.
  auto net = make_net();
  const size_t T = 14;
  const auto input = busy_input(T, 8, 191);
  const auto faults = all_kinds_universe(net, 32, 192);
  const auto naive = test_support::naive_reference(net, input, faults);

  const auto roomy = run_campaign(net, input, faults, {});
  EXPECT_GT(roomy.stats.synaptic_frames_cached, 0u);
  EXPECT_GT(roomy.stats.delta_rows_certified, 0u);
  expect_results_identical(roomy.results, naive);

  EngineConfig short_cfg;
  short_cfg.golden_cache_budget_bytes = roomy.stats.golden_cache_bytes - 1;
  const auto shed = run_campaign(net, input, faults, short_cfg);
  ASSERT_EQ(shed.stats.golden_cache_layer_bytes.size(), net.num_layers());
  size_t train_bytes = 0;
  for (size_t l = 0; l < net.num_layers(); ++l) {
    const size_t train = T * net.layer(l).num_neurons() * sizeof(float);
    EXPECT_EQ(shed.stats.golden_cache_layer_bytes[l], train) << "layer " << l;
    train_bytes += train;
  }
  EXPECT_EQ(shed.stats.golden_cache_bytes, train_bytes);
  EXPECT_EQ(shed.stats.synaptic_frames_cached, 0u);
  EXPECT_EQ(shed.stats.synaptic_frames_computed,
            roomy.stats.synaptic_frames_cached + roomy.stats.synaptic_frames_computed);
  EXPECT_EQ(shed.stats.delta_rows_certified, 0u);
  expect_results_identical(shed.results, naive);

  EngineConfig fitting_cfg;
  fitting_cfg.golden_cache_budget_bytes = roomy.stats.golden_cache_bytes;
  const auto fitting = run_campaign(net, input, faults, fitting_cfg);
  EXPECT_EQ(fitting.stats.golden_cache_layer_bytes, roomy.stats.golden_cache_layer_bytes);
  EXPECT_EQ(fitting.stats.synaptic_frames_cached, roomy.stats.synaptic_frames_cached);
  EXPECT_EQ(fitting.stats.delta_rows_certified, roomy.stats.delta_rows_certified);
  expect_results_identical(fitting.results, naive);
}

}  // namespace
}  // namespace snntest::campaign
