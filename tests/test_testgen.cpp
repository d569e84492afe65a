// Integration tests for the full test-generation algorithm (Sec. IV):
// stage optimization improves the loss, the generator activates neurons and
// beats random stimuli of equal duration on fault coverage, duration growth
// kicks in for hard-to-activate neurons, determinism, ablation switches,
// and the T_in,min search.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "campaign/engine.hpp"
#include "core/input_optimizer.hpp"
#include "core/naive_fc_optimizer.hpp"
#include "core/test_generator.hpp"
#include "fault/coverage.hpp"
#include "snn/conv_layer.hpp"
#include "snn/dense_layer.hpp"
#include "snn/pool_layer.hpp"
#include "snn/recurrent_layer.hpp"
#include "snn/spike_train.hpp"
#include "tensor/simd.hpp"

namespace snntest::core {
namespace {

snn::Network make_net(size_t in = 10, size_t hidden = 16, size_t out = 5, uint64_t seed = 1,
                      float gain = 1.2f) {
  util::Rng rng(seed);
  snn::LifParams lif;
  snn::Network net("testgen-net");
  auto l1 = std::make_unique<snn::DenseLayer>(in, hidden, lif);
  l1->init_weights(rng, gain);
  net.add_layer(std::move(l1));
  auto l2 = std::make_unique<snn::DenseLayer>(hidden, out, lif);
  l2->init_weights(rng, gain);
  net.add_layer(std::move(l2));
  return net;
}

TestGenConfig fast_config() {
  TestGenConfig cfg;
  cfg.steps_stage1 = 60;
  cfg.max_iterations = 6;
  cfg.t_limit_seconds = 30.0;
  cfg.eval_every = 2;
  cfg.t_in_start = 4;
  cfg.t_in_max = 24;
  return cfg;
}

TEST(InputOptimizer, ReducesLoss) {
  auto net = make_net();
  util::Rng rng(2);
  GumbelSoftmaxInput input(12, net.input_size(), rng, -2.0f);  // start sparse
  StageConfig stage;
  stage.num_steps = 80;
  stage.eval_every = 1;
  CompositeLoss loss;
  loss.add(std::make_shared<NeuronActivationLoss>());
  InputOptimizer optimizer(net, input, stage);
  const auto outcome = optimizer.run(loss);
  ASSERT_FALSE(outcome.loss_trace.empty());
  EXPECT_LT(outcome.best_loss, outcome.loss_trace.front());
  EXPECT_FALSE(outcome.best_input.empty());
}

TEST(InputOptimizer, AcceptPredicateFiltersCandidates) {
  auto net = make_net();
  util::Rng rng(3);
  GumbelSoftmaxInput input(10, net.input_size(), rng);
  StageConfig stage;
  stage.num_steps = 30;
  CompositeLoss loss;
  loss.add(std::make_shared<SparsityLoss>());
  InputOptimizer optimizer(net, input, stage);
  // impossible acceptance: nothing may become "best"
  const auto outcome =
      optimizer.run(loss, [](const snn::ForwardResult&) { return false; });
  EXPECT_TRUE(outcome.best_input.empty());
}

TEST(TestGenerator, ActivatesMostNeurons) {
  auto net = make_net();
  TestGenerator generator(net, fast_config());
  const auto report = generator.generate();
  EXPECT_GT(report.stimulus.num_chunks(), 0u);
  EXPECT_EQ(report.total_neurons, 21u);
  EXPECT_GT(report.activated_fraction(), 0.8);
  EXPECT_GT(report.runtime_seconds, 0.0);
  EXPECT_EQ(report.iterations.size(), report.stimulus.num_chunks());
}

TEST(TestGenerator, BeatsDensityMatchedRandomOnWeakNet) {
  // The paper's Fig. 8 effect: optimization places spikes to activate
  // neurons that unstructured input misses. On a weakly-weighted network a
  // random stimulus with the *same duration and spike budget* activates
  // fewer neurons and covers fewer faults.
  auto net = make_net(10, 16, 5, 7, /*gain=*/0.7f);
  auto cfg = fast_config();
  cfg.restarts = 3;  // multi-restart picks the best of three Gumbel streams
  TestGenerator generator(net, cfg);
  const auto report = generator.generate();
  const auto optimized = report.stimulus.assemble();

  auto faults = fault::enumerate_faults(net);
  const auto opt_outcome = campaign::run_campaign(net, optimized, faults);
  const double opt_fc = fault::fault_coverage(opt_outcome.results);

  // density-matched random stimulus (same shape, same expected spike count)
  util::Rng rng(8);
  const double density = snn::spike_density(optimized);
  const auto random_input = snn::random_spike_train(optimized.shape().dim(0),
                                                    optimized.shape().dim(1), density, rng);
  const auto rnd_outcome = campaign::run_campaign(net, random_input, faults);
  const double rnd_fc = fault::fault_coverage(rnd_outcome.results);

  const double opt_act = snn::activation_fraction(net.forward(optimized).layer_outputs[0]);
  const double rnd_act = snn::activation_fraction(net.forward(random_input).layer_outputs[0]);
  EXPECT_GE(opt_act, rnd_act);
  EXPECT_GE(opt_fc + 0.02, rnd_fc);  // small tolerance: benign-fault noise
  // weak weights cap the reachable coverage; the point is the comparison,
  // the absolute bar only guards against total collapse
  EXPECT_GT(opt_fc, 0.2);
}

TEST(TestGenerator, NearPerfectCriticalNeuronCoverageOnSmallNet) {
  auto net = make_net(8, 10, 4, 9);
  auto cfg = fast_config();
  cfg.restarts = 3;  // multi-restart picks the best of three Gumbel streams
  TestGenerator generator(net, cfg);
  const auto report = generator.generate();
  // On a fully activated small net, every dead/saturated neuron fault on an
  // *activated* neuron must be detected.
  if (report.activated_fraction() == 1.0) {
    fault::FaultUniverseConfig cfg;
    cfg.synapse_dead = false;
    cfg.synapse_saturated_positive = false;
    cfg.synapse_saturated_negative = false;
    auto neuron_faults = fault::enumerate_faults(net, cfg);
    const auto outcome =
        campaign::run_campaign(net, report.stimulus.assemble(), neuron_faults);
    EXPECT_EQ(outcome.detected_count(), neuron_faults.size());
  }
}

TEST(TestGenerator, DeterministicForFixedSeed) {
  auto net = make_net(8, 12, 4, 10);
  auto cfg = fast_config();
  cfg.seed = 1234;
  TestGenerator g1(net, cfg);
  const auto r1 = g1.generate();
  TestGenerator g2(net, cfg);
  const auto r2 = g2.generate();
  ASSERT_EQ(r1.stimulus.num_chunks(), r2.stimulus.num_chunks());
  const auto a = r1.stimulus.assemble();
  const auto b = r2.stimulus.assemble();
  ASSERT_EQ(a.numel(), b.numel());
  for (size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(TestGenerator, BitIdenticalAcrossThreadCounts) {
  // The DESIGN.md §10 contract: for a fixed seed the assembled stimulus is
  // byte-identical no matter how many threads run the restart fan-out.
  auto net = make_net(8, 12, 4, 15);
  auto cfg = fast_config();
  cfg.seed = 4321;
  cfg.restarts = 3;
  cfg.steps_stage1 = 20;
  cfg.t_in_min = 6;
  cfg.max_iterations = 3;

  std::vector<float> reference;
  size_t reference_chunks = 0;
  for (const size_t threads : {1, 2, 8}) {
    auto run_cfg = cfg;
    run_cfg.num_threads = threads;
    TestGenerator generator(net, run_cfg);
    const auto report = generator.generate();
    const auto stimulus = report.stimulus.assemble();
    if (reference.empty()) {
      reference.assign(stimulus.data(), stimulus.data() + stimulus.numel());
      reference_chunks = report.stimulus.num_chunks();
      ASSERT_FALSE(reference.empty());
      continue;
    }
    ASSERT_EQ(report.stimulus.num_chunks(), reference_chunks) << "threads=" << threads;
    ASSERT_EQ(stimulus.numel(), reference.size()) << "threads=" << threads;
    // byte-identical, not just numerically close
    ASSERT_EQ(std::memcmp(stimulus.data(), reference.data(), reference.size() * sizeof(float)),
              0)
        << "threads=" << threads;
  }
}

TEST(TestGenerator, BitIdenticalAcrossSimdBackends) {
  // The generator's whole optimizer step dispatches through the SIMD table:
  // Gumbel sampling, the forward (LIF frames, binary-frame column adds,
  // conv frames), BPTT (LIF backward frames, transpose matvec, conv input
  // gradient), L4 and Adam. So the stimulus must be byte-identical under
  // the portable scalar kernels and under the best backend, on two nets:
  //  * recurrent -> dense, which puts V's column adds and transpose and the
  //    dense/recurrent L4 rows on the path;
  //  * conv -> pool -> dense with the atan and rectangular surrogates, which
  //    runs the conv L4 walk and every LIF-backward surrogate end to end.
  snn::LifParams lif;
  std::vector<snn::Network> nets;
  {
    util::Rng rng(77);
    snn::Network net("testgen-simd-net");
    auto l1 = std::make_unique<snn::RecurrentLayer>(8, 12, lif);
    l1->init_weights(rng, 1.2f, 0.6f);
    net.add_layer(std::move(l1));
    auto l2 = std::make_unique<snn::DenseLayer>(12, 4, lif);
    l2->init_weights(rng, 1.2f);
    net.add_layer(std::move(l2));
    nets.push_back(std::move(net));
  }
  {
    util::Rng rng(78);
    snn::Network net("testgen-simd-conv-net");
    snn::Conv2dSpec spec;
    spec.in_channels = 2;
    spec.in_height = 6;
    spec.in_width = 6;
    spec.out_channels = 3;
    spec.kernel = 3;
    spec.stride = 1;
    spec.padding = 1;
    auto conv = std::make_unique<snn::ConvLayer>(spec, lif);
    conv->init_weights(rng, 1.5f);
    conv->surrogate().kind = snn::SurrogateKind::kAtan;
    net.add_layer(std::move(conv));
    auto pool = std::make_unique<snn::SumPoolLayer>(snn::SumPoolSpec{3, 6, 6, 2}, lif);
    pool->surrogate().kind = snn::SurrogateKind::kRectangular;
    net.add_layer(std::move(pool));
    auto head = std::make_unique<snn::DenseLayer>(27, 4, lif);
    head->init_weights(rng, 1.5f);
    head->surrogate().kind = snn::SurrogateKind::kRectangular;
    net.add_layer(std::move(head));
    nets.push_back(std::move(net));
  }
  auto cfg = fast_config();
  cfg.seed = 8765;
  cfg.restarts = 2;
  cfg.steps_stage1 = 20;
  cfg.t_in_min = 6;
  cfg.max_iterations = 3;

  struct BackendGuard {
    tensor::simd::Backend prior = tensor::simd::active_backend();
    ~BackendGuard() { tensor::simd::force_backend(prior); }
  } guard;
  for (snn::Network& net : nets) {
    SCOPED_TRACE(net.name());
    auto generate = [&](tensor::simd::Backend backend) {
      EXPECT_TRUE(tensor::simd::force_backend(backend));
      TestGenerator generator(net, cfg);
      return generator.generate().stimulus.assemble();
    };
    const auto reference = generate(tensor::simd::Backend::kScalar);
    ASSERT_GT(reference.numel(), 0u);
    const auto best = generate(tensor::simd::best_available_backend());
    ASSERT_EQ(best.shape(), reference.shape());
    ASSERT_EQ(std::memcmp(best.data(), reference.data(), reference.numel() * sizeof(float)), 0)
        << "backend " << tensor::simd::backend_name(tensor::simd::best_available_backend());
  }
}

TEST(TestGenerator, RejectsBadScheduleFieldsByName) {
  // The annealing schedules feed every optimizer step; a bad value must
  // fail in the constructor and name its field, not throw from the last
  // step of a stage on a restart worker.
  auto net = make_net();
  const double bad_values[] = {0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()};
  const std::pair<const char*, double TestGenConfig::*> fields[] = {
      {"tau_max", &TestGenConfig::tau_max},
      {"tau_min", &TestGenConfig::tau_min},
      {"lr_initial", &TestGenConfig::lr_initial},
      {"lr_final", &TestGenConfig::lr_final},
  };
  for (const auto& [name, field] : fields) {
    for (const double bad : bad_values) {
      auto cfg = fast_config();
      cfg.*field = bad;
      try {
        TestGenerator generator(net, cfg);
        ADD_FAILURE() << name << " = " << bad << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
      }
    }
  }
  EXPECT_NO_THROW(TestGenerator(net, fast_config()));
}

TEST(TestGenerator, WinningRestartIsRecorded) {
  auto net = make_net(8, 10, 4, 16);
  auto cfg = fast_config();
  cfg.restarts = 3;
  cfg.num_threads = 2;
  cfg.steps_stage1 = 20;
  TestGenerator generator(net, cfg);
  const auto report = generator.generate();
  ASSERT_GT(report.iterations.size(), 0u);
  for (const auto& it : report.iterations) EXPECT_LT(it.winning_restart, cfg.restarts);
}

TEST(TestGenerator, RespectsTimeLimit) {
  auto net = make_net();
  auto cfg = fast_config();
  cfg.t_limit_seconds = 0.0;  // expire immediately
  TestGenerator generator(net, cfg);
  const auto report = generator.generate();
  EXPECT_TRUE(report.hit_time_limit || report.stimulus.num_chunks() == 0);
}

TEST(TestGenerator, AblationSwitchesRespected) {
  auto net = make_net(8, 10, 4, 11);
  auto cfg = fast_config();
  cfg.use_l3 = false;
  cfg.use_l4 = false;
  cfg.enable_stage2 = false;
  TestGenerator generator(net, cfg);
  const auto report = generator.generate();
  EXPECT_GT(report.stimulus.num_chunks(), 0u);
  for (const auto& it : report.iterations) EXPECT_FALSE(it.stage2_accepted);
}

TEST(TestGenerator, FindMinInputDurationProducesOutputSpikes) {
  auto net = make_net(8, 12, 4, 12);
  auto cfg = fast_config();
  util::Rng rng(cfg.seed);
  const size_t t_min = TestGenerator::find_min_input_duration(net, cfg, rng);
  EXPECT_GE(t_min, 1u);
  EXPECT_LE(t_min, cfg.t_in_max);
}

TEST(TestGenerator, WeakNetTriggersDurationGrowth) {
  // Very weak weights make activation hard; the generator should either
  // grow the window (growths > 0 in some iteration) or report partial
  // activation rather than loop forever.
  auto net = make_net(8, 10, 4, 13, /*gain=*/0.35f);
  auto cfg = fast_config();
  cfg.max_iterations = 3;
  cfg.steps_stage1 = 30;
  TestGenerator generator(net, cfg);
  const auto report = generator.generate();
  // must terminate and produce a well-formed report
  EXPECT_LE(report.iterations.size(), 3u);
  for (const auto& it : report.iterations) {
    EXPECT_LE(it.growths, cfg.max_growths_per_iteration);
    EXPECT_GT(it.duration_steps, 0u);
  }
}

TEST(NaiveFcOptimizer, HillClimbIsMonotoneAndCountsSimulations) {
  auto net = make_net(6, 8, 3, 20);
  auto universe = fault::enumerate_faults(net);
  util::Rng rng(21);
  auto faults = fault::sample_faults(universe, 30, rng);
  core::NaiveFcConfig cfg;
  cfg.iterations = 12;
  cfg.num_steps = 8;
  const auto report = core::naive_fc_optimize(net, faults, cfg);
  // O(M * T_FS): every iteration pays a full campaign.
  EXPECT_EQ(report.fault_simulations, cfg.iterations * faults.size());
  ASSERT_EQ(report.coverage_trace.size(), cfg.iterations);
  for (size_t i = 1; i < report.coverage_trace.size(); ++i) {
    EXPECT_GE(report.coverage_trace[i], report.coverage_trace[i - 1]);
  }
  EXPECT_EQ(report.best_input.shape(), Shape({8, 6}));
  EXPECT_GE(report.best_coverage, report.coverage_trace.front());
}

TEST(TestGenerator, ChunkDurationsMatchEq8Accounting) {
  auto net = make_net(8, 12, 4, 14);
  TestGenerator generator(net, fast_config());
  const auto report = generator.generate();
  size_t expected_total = 0;
  for (size_t j = 0; j < report.stimulus.num_chunks(); ++j) {
    expected_total += report.stimulus.chunk(j).shape().dim(0);
    if (j + 1 < report.stimulus.num_chunks()) {
      expected_total += report.stimulus.chunk(j).shape().dim(0);
    }
  }
  EXPECT_EQ(report.stimulus.total_steps(), expected_total);
}

}  // namespace
}  // namespace snntest::core
