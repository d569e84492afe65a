// Fault framework tests: descriptor semantics, int8 bit-flip model,
// universe enumeration (paper Table II composition), injector behaviour per
// kind (TEST_P over every fault kind), perfect restore, campaign detection
// (Eq. 3) and critical/benign classification (Sec. III) against the naive
// labelling oracle (tests/support/naive_classify.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "campaign/engine.hpp"
#include "data/synthetic_shd.hpp"
#include "snn/conv_layer.hpp"
#include "fault/classifier.hpp"
#include "fault/coverage.hpp"
#include "fault/injector.hpp"
#include "fault/registry.hpp"
#include "snn/dense_layer.hpp"
#include "snn/recurrent_layer.hpp"
#include "snn/spike_train.hpp"
#include "support/naive_classify.hpp"

namespace snntest::fault {
namespace {

snn::Network make_net(uint64_t seed = 1) {
  util::Rng rng(seed);
  snn::LifParams lif;
  snn::Network net("fault-test");
  auto l1 = std::make_unique<snn::DenseLayer>(8, 12, lif);
  l1->init_weights(rng, 1.3f);
  net.add_layer(std::move(l1));
  auto l2 = std::make_unique<snn::DenseLayer>(12, 4, lif);
  l2->init_weights(rng, 1.3f);
  net.add_layer(std::move(l2));
  return net;
}

tensor::Tensor busy_input(size_t T = 16, size_t n = 8, uint64_t seed = 7) {
  util::Rng rng(seed);
  return snn::random_spike_train(T, n, 0.5, rng);
}

TEST(FaultDescriptor, KindNamesAndTargets) {
  EXPECT_STREQ(fault_kind_name(FaultKind::kNeuronDead), "neuron-dead");
  EXPECT_STREQ(fault_kind_name(FaultKind::kSynapseBitFlip), "synapse-bitflip");
  EXPECT_TRUE(is_neuron_fault(FaultKind::kNeuronSaturated));
  EXPECT_TRUE(is_neuron_fault(FaultKind::kNeuronLeakVariation));
  EXPECT_FALSE(is_neuron_fault(FaultKind::kSynapseDead));
  FaultDescriptor f;
  f.kind = FaultKind::kNeuronDead;
  f.neuron = {1, 3};
  EXPECT_EQ(f.to_string(), "neuron-dead@L1n3");
}

TEST(Quantization, RoundTripAndClamp) {
  EXPECT_EQ(quantize_weight(1.0f, 1.0f), 127);
  EXPECT_EQ(quantize_weight(-1.0f, 1.0f), -127);
  EXPECT_EQ(quantize_weight(5.0f, 1.0f), 127);  // clamped
  EXPECT_EQ(quantize_weight(0.0f, 1.0f), 0);
  EXPECT_NEAR(dequantize_weight(quantize_weight(0.5f, 1.0f), 1.0f), 0.5f, 0.005f);
  EXPECT_THROW(quantize_weight(1.0f, 0.0f), std::invalid_argument);
}

TEST(Quantization, BitFlipChangesValue) {
  // flipping the sign bit of a positive weight makes it negative-ish
  const float flipped = bitflip_weight(0.5f, 1.0f, 7);
  EXPECT_LT(flipped, 0.0f);
  // flipping a low bit changes the value slightly
  const float low = bitflip_weight(0.5f, 1.0f, 0);
  EXPECT_NE(low, 0.5f);
  EXPECT_NEAR(low, 0.5f, 0.02f);
  EXPECT_THROW(bitflip_weight(0.5f, 1.0f, 8), std::invalid_argument);
}

TEST(Registry, DefaultUniverseMatchesPaperComposition) {
  auto net = make_net();
  const auto faults = enumerate_faults(net);
  // paper composition: 2 faults per neuron + 3 per synapse (Table II).
  EXPECT_EQ(count_neuron_faults(faults), 2 * net.total_neurons());
  EXPECT_EQ(count_synapse_faults(faults), 3 * net.total_weights());
}

TEST(Registry, ExtendedUniverse) {
  auto net = make_net();
  FaultUniverseConfig cfg;
  cfg.neuron_threshold_variation = true;
  cfg.neuron_leak_variation = true;
  cfg.neuron_refractory_variation = true;
  cfg.synapse_bitflip = true;
  cfg.bitflip_bits = {3, 6};
  const auto faults = enumerate_faults(net, cfg);
  // neurons: dead + saturated + 2x threshold + 2x leak + refractory = 7
  EXPECT_EQ(count_neuron_faults(faults), 7 * net.total_neurons());
  // synapses: dead + sat+ + sat- + 2 bitflips = 5
  EXPECT_EQ(count_synapse_faults(faults), 5 * net.total_weights());
}

TEST(Registry, EnumerationDeterministic) {
  auto net = make_net();
  const auto a = enumerate_faults(net);
  const auto b = enumerate_faults(net);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].magnitude, b[i].magnitude);
  }
}

TEST(Registry, SaturationMagnitudeFromLayerStats) {
  auto net = make_net();
  const auto stats = compute_weight_stats(net);
  const auto faults = enumerate_faults(net);
  for (const auto& f : faults) {
    if (f.kind == FaultKind::kSynapseSaturatedPositive) {
      EXPECT_NEAR(f.magnitude, 1.5f * stats[f.weight.layer].max_abs, 1e-6);
    }
  }
}

TEST(Registry, SamplingIsSubsetWithoutDuplicates) {
  auto net = make_net();
  const auto universe = enumerate_faults(net);
  util::Rng rng(3);
  const auto sampled = sample_faults(universe, 20, rng);
  EXPECT_EQ(sampled.size(), 20u);
  const auto all = sample_faults(universe, universe.size() + 100, rng);
  EXPECT_EQ(all.size(), universe.size());
}

// ---------- the fault table, pinned per (kind, target) ----------
//
// Every simulation path, the naive oracle (tests/support/naive_reference.hpp)
// included, consumes the one fault table (resolve_lane_fault). So the table
// is pinned here on its own: each valid (kind, target) pair is injected and
// the faulty float compared with the paper's formula written out below.

/// conv(1x5x5 -> 2x3x3) -> recurrent(18 -> 6) -> dense(6 -> 4): one layer
/// per weight-bearing target. The target neuron (layer 1, neuron 5) gets
/// non-default LIF parameters so every formula sees its stored value.
snn::Network make_mixed_net() {
  util::Rng rng(21);
  snn::LifParams lif;
  snn::Network net("fault-table");
  snn::Conv2dSpec spec;
  spec.in_height = 5;
  spec.in_width = 5;
  spec.out_channels = 2;
  auto conv = std::make_unique<snn::ConvLayer>(spec, lif);
  conv->init_weights(rng, 1.3f);
  net.add_layer(std::move(conv));
  auto rec = std::make_unique<snn::RecurrentLayer>(spec.output_size(), 6, lif);
  rec->init_weights(rng, 1.3f);
  net.add_layer(std::move(rec));
  auto fc = std::make_unique<snn::DenseLayer>(6, 4, lif);
  fc->init_weights(rng, 1.3f);
  net.add_layer(std::move(fc));
  snn::LifBank& bank = net.layer(1).lif();
  bank.thresholds()[5] = 0.8f;
  bank.leaks()[5] = 0.7f;
  bank.refractories()[5] = 2;
  return net;
}

enum class Target { kNeuron, kDenseWeight, kRecurrentLateral, kConvTap, kConvConnection };

const char* target_name(Target t) {
  switch (t) {
    case Target::kNeuron: return "neuron";
    case Target::kDenseWeight: return "dense weight";
    case Target::kRecurrentLateral: return "recurrent lateral weight";
    case Target::kConvTap: return "conv kernel tap";
    case Target::kConvConnection: return "conv connection";
  }
  return "?";
}

// Conv connection (oc 1, oy 1, ox 2) <- input pixel (2, 3): kernel tap (1, 1).
constexpr size_t kConnOut = (1 * 3 + 1) * 3 + 2;
constexpr size_t kConnIn = 2 * 5 + 3;

FaultDescriptor target_fault(FaultKind kind, Target t, float magnitude) {
  FaultDescriptor f;
  f.kind = kind;
  f.magnitude = magnitude;
  switch (t) {
    case Target::kNeuron: f.neuron = {1, 5}; break;
    case Target::kDenseWeight: f.weight = {2, 0, 11}; break;
    case Target::kRecurrentLateral: f.weight = {1, 1, 7}; break;
    case Target::kConvTap: f.weight = {0, 0, 13}; break;
    case Target::kConvConnection:
      f.connection_granularity = true;
      f.connection = {0, kConnOut, kConnIn};
      break;
  }
  return f;
}

/// Every weight and LIF parameter of `net`, and each conv layer's override
/// flag, as raw bytes.
std::vector<uint8_t> state_bytes(snn::Network& net) {
  std::vector<uint8_t> bytes;
  auto append = [&](const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + n);
  };
  for (size_t l = 0; l < net.num_layers(); ++l) {
    snn::Layer& layer = net.layer(l);
    for (const snn::ParamView& p : layer.params()) append(p.value, p.size * sizeof(float));
    const snn::LifBank& lif = layer.lif();
    append(lif.thresholds().data(), lif.size() * sizeof(float));
    append(lif.leaks().data(), lif.size() * sizeof(float));
    append(lif.refractories().data(), lif.size() * sizeof(int));
    append(lif.modes().data(), lif.size() * sizeof(snn::NeuronMode));
    if (layer.kind() == snn::LayerKind::kConv2d) {
      bytes.push_back(static_cast<snn::ConvLayer&>(layer).connection_override_active());
    }
  }
  return bytes;
}

/// Magnitudes per kind, chosen to reach both sides of every clamp.
std::vector<float> magnitudes(FaultKind kind, float max_abs) {
  switch (kind) {
    case FaultKind::kNeuronThresholdVariation: return {0.5f, -0.3f, -2.0f};
    case FaultKind::kNeuronLeakVariation: return {-0.5f, 0.5f, -0.999f};
    case FaultKind::kNeuronRefractoryVariation: return {3.0f, -1.0f, -100.0f};
    case FaultKind::kSynapseSaturatedPositive:
    case FaultKind::kSynapseSaturatedNegative: return {1.5f * max_abs, -1.5f * max_abs};
    case FaultKind::kSynapseBitFlip: return {0.0f, 6.0f, 7.0f};
    default: return {0.7f};
  }
}

class InjectorKindTest : public testing::TestWithParam<FaultKind> {};

// The target is the test's second parameter, iterated in the body so every
// kind keeps one ctest entry.
TEST_P(InjectorKindTest, InjectChangesAndRemoveRestores) {
  const FaultKind kind = GetParam();
  const std::vector<Target> targets =
      is_neuron_fault(kind) ? std::vector<Target>{Target::kNeuron}
                            : std::vector<Target>{Target::kDenseWeight, Target::kRecurrentLateral,
                                                  Target::kConvTap, Target::kConvConnection};
  auto net = make_mixed_net();
  snn::Network pristine(net);
  const auto clean = state_bytes(pristine);
  const auto stats = compute_weight_stats(net);
  FaultInjector injector(net, stats);

  for (Target target : targets) {
    const size_t layer = fault_layer(target_fault(kind, target, 0.0f));
    for (float m : magnitudes(kind, stats[layer].max_abs)) {
      const FaultDescriptor f = target_fault(kind, target, m);
      SCOPED_TRACE(f.to_string() + " on a " + target_name(target) +
                   ", magnitude " + std::to_string(m));
      const snn::LaneFault resolved = resolve_lane_fault(pristine, stats, f);
      injector.inject(f);
      ASSERT_TRUE(injector.active());

      if (target == Target::kNeuron) {
        const snn::LifBank& ref = pristine.layer(1).lif();
        float threshold = ref.thresholds()[5];
        float leak = ref.leaks()[5];
        int refractory = ref.refractories()[5];
        snn::NeuronMode mode = ref.modes()[5];
        switch (kind) {
          case FaultKind::kNeuronDead: mode = snn::NeuronMode::kDead; break;
          case FaultKind::kNeuronSaturated: mode = snn::NeuronMode::kSaturated; break;
          case FaultKind::kNeuronThresholdVariation:
            threshold = std::max(1e-3f, threshold * (1.0f + m));
            break;
          case FaultKind::kNeuronLeakVariation:
            leak = std::clamp(leak * (1.0f + m), 0.01f, 1.0f);
            break;
          case FaultKind::kNeuronRefractoryVariation:
            refractory = std::max(0, refractory + static_cast<int>(m));
            break;
          default: FAIL();
        }
        const snn::LifBank& lif = net.layer(1).lif();
        EXPECT_EQ(lif.thresholds()[5], threshold);
        EXPECT_EQ(lif.leaks()[5], leak);
        EXPECT_EQ(lif.refractories()[5], refractory);
        EXPECT_EQ(lif.modes()[5], mode);
        EXPECT_TRUE(resolved.neuron.active);
        EXPECT_EQ(resolved.neuron.threshold, threshold);
        EXPECT_EQ(resolved.neuron.leak, leak);
        EXPECT_EQ(resolved.neuron.refractory, refractory);
        EXPECT_EQ(resolved.neuron.mode, mode);
      } else {
        auto& conv = static_cast<snn::ConvLayer&>(pristine.layer(0));
        const float stored =
            target == Target::kConvConnection
                ? conv.connection_weight(kConnOut, kConnIn)
                : pristine.layer(f.weight.layer).params()[f.weight.param].value[f.weight.index];
        float expected = 0.0f;
        switch (kind) {
          case FaultKind::kSynapseDead: expected = 0.0f; break;
          case FaultKind::kSynapseSaturatedPositive: expected = std::fabs(m); break;
          case FaultKind::kSynapseSaturatedNegative: expected = -std::fabs(m); break;
          case FaultKind::kSynapseBitFlip:
            expected = bitflip_weight(stored, stats[layer].quant_scale, static_cast<int>(m));
            break;
          default: FAIL();
        }
        EXPECT_EQ(resolved.synapse.value, expected);
        if (target == Target::kConvConnection) {
          // No stored weight moves; the connection's input alone, through
          // the override, reaches its output as stored + (value - stored):
          // one frame holding only that input, through ConvLayer::forward,
          // integrates exactly that current into a membrane reset to 0.
          EXPECT_EQ(resolved.synapse.delta, expected - stored);
          auto& faulty = static_cast<snn::ConvLayer&>(net.layer(0));
          EXPECT_TRUE(faulty.connection_override_active());
          tensor::Tensor one_hot(tensor::Shape{1, faulty.num_inputs()}, 0.0f);
          one_hot.row(0)[kConnIn] = 1.0f;
          faulty.forward(one_hot, /*record_traces=*/true);
          const snn::LifBank& bank = faulty.lif();
          ASSERT_EQ(bank.defaults().reset_potential, 0.0f);
          ASSERT_TRUE(bank.trace_integrated()[kConnOut]);
          EXPECT_EQ(bank.trace_u_pre()[kConnOut], stored + (expected - stored));
          EXPECT_EQ(faulty.weights(), conv.weights());
        } else {
          EXPECT_EQ(net.layer(f.weight.layer).params()[f.weight.param].value[f.weight.index],
                    expected);
        }
      }

      injector.remove();
      EXPECT_FALSE(injector.active());
      EXPECT_EQ(state_bytes(net), clean) << "not restored byte-exactly";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, InjectorKindTest,
    testing::Values(FaultKind::kNeuronDead, FaultKind::kNeuronSaturated,
                    FaultKind::kNeuronThresholdVariation, FaultKind::kNeuronLeakVariation,
                    FaultKind::kNeuronRefractoryVariation, FaultKind::kSynapseDead,
                    FaultKind::kSynapseSaturatedPositive, FaultKind::kSynapseSaturatedNegative,
                    FaultKind::kSynapseBitFlip),
    [](const testing::TestParamInfo<FaultKind>& info) {
      std::string name = fault_kind_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Injector, NonFiniteSynapseFaultValuesRejected) {
  // A NaN or Inf magnitude makes the faulty weight non-finite, and then
  // value * 0 is NaN where the sparse kernels skip the term: the fault
  // table rejects it, naming the fault and the value, for every synapse
  // kind — and so do the injector and the campaign that consume it.
  auto net = make_mixed_net();
  const auto stats = compute_weight_stats(net);
  std::vector<FaultDescriptor> targets;
  for (Target t : {Target::kDenseWeight, Target::kRecurrentLateral, Target::kConvTap,
                   Target::kConvConnection}) {
    targets.push_back(target_fault(FaultKind::kSynapseSaturatedPositive, t, 0.0f));
  }
  FaultDescriptor recurrent_w;
  recurrent_w.kind = FaultKind::kSynapseSaturatedPositive;
  recurrent_w.weight = {1, 0, 5};
  targets.push_back(recurrent_w);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (FaultDescriptor f : targets) {
    for (const FaultKind kind : {FaultKind::kSynapseSaturatedPositive,
                                 FaultKind::kSynapseSaturatedNegative, FaultKind::kSynapseBitFlip}) {
      for (const float m : {nan, inf, -inf}) {
        f.kind = kind;
        f.magnitude = m;
        SCOPED_TRACE(f.to_string());
        try {
          resolve_lane_fault(net, stats, f);
          ADD_FAILURE() << "non-finite magnitude accepted";
        } catch (const std::invalid_argument& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find(f.to_string()), std::string::npos) << what;
          EXPECT_TRUE(what.find("nan") != std::string::npos ||
                      what.find("inf") != std::string::npos)
              << what;
        }
        FaultInjector injector(net, stats);
        EXPECT_THROW(injector.inject(f), std::invalid_argument);
        EXPECT_FALSE(injector.active());
      }
    }
    // A finite magnitude of the same fault resolves.
    f.kind = FaultKind::kSynapseSaturatedPositive;
    f.magnitude = 2.0f;
    EXPECT_NO_THROW(resolve_lane_fault(net, stats, f));
  }
  util::Rng rng(3);
  const auto input = snn::random_spike_train(6, net.input_size(), 0.5, rng);
  FaultDescriptor bad = targets.front();
  bad.magnitude = nan;
  EXPECT_THROW(campaign::run_campaign(net, input, {bad, bad, bad}), std::invalid_argument);
}

TEST(Injector, SingleFaultAssumptionEnforced) {
  // With no fault active there is nothing to restore: remove() must leave
  // every weight and LIF parameter byte-identical, also right after a
  // completed inject/remove cycle. (The double-inject rule is covered by
  // DoubleInjectThrowsAcrossTargetKinds.)
  auto net = make_mixed_net();
  const auto clean = state_bytes(net);
  FaultInjector injector(net);
  injector.remove();
  EXPECT_EQ(state_bytes(net), clean);
  FaultDescriptor f;
  f.kind = FaultKind::kSynapseSaturatedPositive;
  f.weight = {1, 1, 7};
  f.magnitude = 3.0f;
  injector.inject(f);
  injector.remove();
  injector.remove();
  EXPECT_FALSE(injector.active());
  EXPECT_EQ(state_bytes(net), clean);
}

TEST(Injector, DeadNeuronSilencesItsRow) {
  auto net = make_net();
  FaultInjector injector(net);
  FaultDescriptor f;
  f.kind = FaultKind::kNeuronDead;
  f.neuron = {0, 2};
  ScopedFault scoped(injector, f);
  const auto fwd = net.forward(busy_input());
  EXPECT_EQ(fwd.spike_count(0, 2), 0u);
}

TEST(Injector, SaturatedNeuronFiresEveryStep) {
  auto net = make_net();
  FaultInjector injector(net);
  FaultDescriptor f;
  f.kind = FaultKind::kNeuronSaturated;
  f.neuron = {1, 1};
  ScopedFault scoped(injector, f);
  const auto input = busy_input(10);
  const auto fwd = net.forward(input);
  EXPECT_EQ(fwd.spike_count(1, 1), 10u);
}

TEST(Injector, SynapseDeadZeroesWeight) {
  auto net = make_net();
  FaultInjector injector(net);
  FaultDescriptor f;
  f.kind = FaultKind::kSynapseDead;
  f.weight = {0, 0, 5};
  injector.inject(f);
  EXPECT_EQ(net.layer(0).params()[0].value[5], 0.0f);
  injector.remove();
}

TEST(Injector, ScopedFaultRestoresOnException) {
  auto net = make_net();
  const float original = net.layer(0).params()[0].value[0];
  FaultInjector injector(net);
  FaultDescriptor f;
  f.kind = FaultKind::kSynapseDead;
  f.weight = {0, 0, 0};
  try {
    ScopedFault scoped(injector, f);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(net.layer(0).params()[0].value[0], original);
}

TEST(Injector, ScopedFaultRestoresNeuronStateOnException) {
  auto net = make_net();
  snn::Network pristine(net);
  FaultInjector injector(net);
  FaultDescriptor f;
  f.kind = FaultKind::kNeuronThresholdVariation;
  f.neuron = {0, 4};
  f.magnitude = 0.75f;
  try {
    ScopedFault scoped(injector, f);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(injector.active());
  const auto& lif = net.layer(0).lif();
  const auto& ref = pristine.layer(0).lif();
  EXPECT_EQ(lif.thresholds()[4], ref.thresholds()[4]);
  EXPECT_EQ(lif.leaks()[4], ref.leaks()[4]);
  EXPECT_EQ(lif.modes()[4], ref.modes()[4]);
}

TEST(Injector, DoubleInjectThrowsAcrossTargetKinds) {
  auto net = make_net();
  FaultInjector injector(net);
  FaultDescriptor neuron;
  neuron.kind = FaultKind::kNeuronDead;
  neuron.neuron = {0, 1};
  FaultDescriptor synapse;
  synapse.kind = FaultKind::kSynapseDead;
  synapse.weight = {1, 0, 2};
  injector.inject(neuron);
  // The single-fault assumption holds regardless of the second fault's kind.
  EXPECT_THROW(injector.inject(synapse), std::logic_error);
  EXPECT_THROW(injector.inject(neuron), std::logic_error);
  injector.remove();
  injector.inject(synapse);  // allowed after removal
  injector.remove();
}

TEST(Campaign, SaturatedOutputNeuronAlwaysDetected) {
  auto net = make_net();
  std::vector<FaultDescriptor> faults(1);
  faults[0].kind = FaultKind::kNeuronSaturated;
  faults[0].neuron = {1, 0};
  const auto outcome = campaign::run_campaign(net, busy_input(), faults);
  EXPECT_TRUE(outcome.results[0].detected);
  EXPECT_GT(outcome.results[0].output_l1, 0.0);
  EXPECT_EQ(outcome.detected_count(), 1u);
}

TEST(Campaign, ZeroInputDetectsNothingButSaturation) {
  auto net = make_net();
  std::vector<FaultDescriptor> faults(2);
  faults[0].kind = FaultKind::kNeuronDead;
  faults[0].neuron = {0, 0};
  faults[1].kind = FaultKind::kNeuronSaturated;
  faults[1].neuron = {1, 2};
  const auto zero = snn::zero_train(12, 8);
  const auto outcome = campaign::run_campaign(net, zero, faults);
  // dead neuron can't be observed without activity...
  EXPECT_FALSE(outcome.results[0].detected);
  // ...but a saturated output neuron self-announces (Sec. IV-C1 note).
  EXPECT_TRUE(outcome.results[1].detected);
}

TEST(Campaign, DoesNotMutateInputNetwork) {
  auto net = make_net();
  snn::Network pristine(net);
  auto faults = enumerate_faults(net);
  faults.resize(30);
  campaign::run_campaign(net, busy_input(), faults);
  const auto input = busy_input(14, 8, 9);
  const auto a = net.forward(input).output();
  const auto b = pristine.forward(input).output();
  for (size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(Campaign, ClassCountDiffSignsConsistent) {
  auto net = make_net();
  std::vector<FaultDescriptor> faults(1);
  faults[0].kind = FaultKind::kNeuronSaturated;
  faults[0].neuron = {1, 3};  // output neuron 3 saturates -> its count rises
  const auto outcome = campaign::run_campaign(net, busy_input(), faults);
  EXPECT_GT(outcome.results[0].class_count_diff[3], 0);
}

TEST(Classifier, SaturatedOutputNeuronIsCritical) {
  auto net = make_net();
  // tiny dataset matching the 8-channel network
  data::SyntheticShdConfig cfg;
  cfg.count = 40;
  cfg.channels = 8;
  cfg.num_steps = 16;
  data::SyntheticShd ds(cfg);
  // SyntheticShd has 20 classes but the net has only 4 outputs; labels are
  // irrelevant for criticality (prediction *changes* matter), so restrict to
  // prediction comparison only.
  std::vector<FaultDescriptor> faults(2);
  faults[0].kind = FaultKind::kNeuronSaturated;
  faults[0].neuron = {1, 0};
  faults[1].kind = FaultKind::kSynapseDead;
  faults[1].weight = {1, 0, 0};
  ClassifierConfig cc;
  cc.max_samples = 12;
  const auto outcome = classify_faults(net, faults, ds, cc);
  EXPECT_TRUE(outcome.labels[0].critical);
  EXPECT_GT(outcome.labels[0].prediction_changes, 0u);
}

TEST(Coverage, ReportPartitionsAndEscapes) {
  std::vector<FaultDescriptor> faults(4);
  faults[0].kind = FaultKind::kNeuronDead;     // critical, detected
  faults[1].kind = FaultKind::kNeuronDead;     // critical, UNDETECTED (escape)
  faults[2].kind = FaultKind::kSynapseDead;    // benign, detected
  faults[3].kind = FaultKind::kSynapseDead;    // benign, undetected
  std::vector<DetectionResult> det(4);
  det[0].detected = true;
  det[1].detected = false;
  det[2].detected = true;
  det[3].detected = false;
  std::vector<FaultClassification> labels(4);
  labels[0].critical = true;
  labels[1].critical = true;
  labels[1].accuracy_drop = 0.07;
  labels[2].critical = false;
  labels[3].critical = false;
  const auto report = build_coverage_report(faults, det, labels);
  EXPECT_EQ(report.critical_neuron.detected, 1u);
  EXPECT_EQ(report.critical_neuron.total, 2u);
  EXPECT_DOUBLE_EQ(report.critical_neuron.coverage(), 0.5);
  EXPECT_EQ(report.benign_synapse.total, 2u);
  EXPECT_DOUBLE_EQ(report.overall.coverage(), 0.5);
  EXPECT_DOUBLE_EQ(report.max_escape_accuracy_drop_neuron, 0.07);
  EXPECT_DOUBLE_EQ(report.max_escape_accuracy_drop_synapse, 0.0);
}

TEST(Coverage, MismatchedArraysRejected) {
  std::vector<FaultDescriptor> faults(2);
  std::vector<DetectionResult> det(1);
  std::vector<FaultClassification> labels(2);
  EXPECT_THROW(build_coverage_report(faults, det, labels), std::invalid_argument);
}

TEST(Coverage, EmptyIsFullCoverage) {
  EXPECT_DOUBLE_EQ(fault_coverage({}), 1.0);
}

// ---------- per-connection conv synapse faults ----------

snn::Network make_conv_net(uint64_t seed = 31) {
  util::Rng rng(seed);
  snn::LifParams lif;
  snn::Network net("conv-fault-net");
  snn::Conv2dSpec spec;
  spec.in_channels = 1;
  spec.in_height = 6;
  spec.in_width = 6;
  spec.out_channels = 4;
  spec.kernel = 3;
  spec.stride = 1;
  spec.padding = 1;
  auto conv = std::make_unique<snn::ConvLayer>(spec, lif);
  conv->init_weights(rng, 1.3f);
  net.add_layer(std::move(conv));
  auto fc = std::make_unique<snn::DenseLayer>(spec.output_size(), 3, lif);
  fc->init_weights(rng, 1.3f);
  net.add_layer(std::move(fc));
  return net;
}

TEST(ConnectionFaults, RegistryCountsMatchConnections) {
  auto net = make_conv_net();
  FaultUniverseConfig cfg;
  cfg.neuron_dead = false;
  cfg.neuron_saturated = false;
  cfg.conv_connection_granularity = true;
  const auto faults = enumerate_faults(net, cfg);
  const size_t conv_connections = net.layer(0).num_connections();
  const size_t dense_weights = net.layer(1).num_weights();
  EXPECT_EQ(faults.size(), 3 * (conv_connections + dense_weights));
  size_t connection_faults = 0;
  for (const auto& f : faults) connection_faults += f.connection_granularity;
  EXPECT_EQ(connection_faults, 3 * conv_connections);
}

TEST(ConnectionFaults, DeadConnectionMatchesStoredWeightOnSinglePosition) {
  // A dead *connection* at one output position must differ from the golden
  // network only through that position's synaptic current — verified by
  // comparing against a manual recomputation.
  auto net = make_conv_net(32);
  auto& conv = static_cast<snn::ConvLayer&>(net.layer(0));
  // connection: input pixel (2, 2) -> output (channel 1, position (2, 2)),
  // i.e. the kernel's center tap with padding 1.
  const size_t in_index = 2 * 6 + 2;
  const size_t out_index = (1 * 6 + 2) * 6 + 2;
  const float stored = conv.connection_weight(out_index, in_index);
  EXPECT_NE(stored, 0.0f);

  util::Rng rng(33);
  const auto input = snn::random_spike_train(10, 36, 0.5, rng);
  snn::Network golden(net);
  const auto golden_fwd = golden.forward(input);

  FaultInjector injector(net);
  FaultDescriptor f;
  f.kind = FaultKind::kSynapseDead;
  f.connection_granularity = true;
  f.connection = {0, out_index, in_index};
  {
    ScopedFault scoped(injector, f);
    const auto faulty_fwd = net.forward(input);
    // the faulted output neuron's train may change; all other conv outputs
    // at timesteps where the input pixel is silent are unaffected...
    // the crisp property: with the input pixel firing every step and a
    // center-tap weight, *some* behavioural difference in the conv layer is
    // expected only via out_index.
    const auto& a = golden_fwd.layer_outputs[0];
    const auto& b = faulty_fwd.layer_outputs[0];
    for (size_t t = 0; t < a.shape().dim(0); ++t) {
      for (size_t i = 0; i < a.shape().dim(1); ++i) {
        if (i != out_index) {
          ASSERT_EQ(a.at(t, i), b.at(t, i)) << "non-target conv neuron changed";
        }
      }
    }
  }
  // removal restores bit-exact behaviour
  const auto restored = net.forward(input);
  for (size_t i = 0; i < golden_fwd.output().numel(); ++i) {
    ASSERT_EQ(restored.output()[i], golden_fwd.output()[i]);
  }
}

TEST(ConnectionFaults, SaturatedConnectionInjectsCurrent) {
  auto net = make_conv_net(34);
  auto& conv = static_cast<snn::ConvLayer&>(net.layer(0));
  (void)conv;
  FaultInjector injector(net);
  FaultDescriptor f;
  f.kind = FaultKind::kSynapseSaturatedPositive;
  f.connection_granularity = true;
  const size_t in_index = 3 * 6 + 3;
  const size_t out_index = (0 * 6 + 3) * 6 + 3;
  f.connection = {0, out_index, in_index};
  f.magnitude = 10.0f;  // huge weight: a single input spike must fire it
  ScopedFault scoped(injector, f);
  tensor::Tensor input(tensor::Shape{1, 36});
  input[in_index] = 1.0f;
  const auto fwd = net.forward(input);
  EXPECT_EQ(fwd.layer_outputs[0].at(0, out_index), 1.0f);
}

TEST(ConnectionFaults, UnconnectedPairRejected) {
  auto net = make_conv_net(35);
  auto& conv = static_cast<snn::ConvLayer&>(net.layer(0));
  // output (0,0) and input (5,5) are farther than the kernel reach
  EXPECT_THROW(conv.connection_weight(0, 35), std::invalid_argument);
}

TEST(ConnectionFaults, ScopedFaultRestoresOverrideOnException) {
  auto net = make_conv_net(40);
  auto& conv = static_cast<snn::ConvLayer&>(net.layer(0));
  FaultInjector injector(net);
  FaultDescriptor f;
  f.kind = FaultKind::kSynapseDead;
  f.connection_granularity = true;
  f.connection = {0, (1u * 6 + 2) * 6 + 2, 2u * 6 + 2};
  try {
    ScopedFault scoped(injector, f);
    EXPECT_TRUE(conv.connection_override_active());
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(conv.connection_override_active());
  EXPECT_FALSE(injector.active());
}

TEST(ConnectionFaults, CampaignMixesGranularities) {
  auto net = make_conv_net(36);
  FaultUniverseConfig cfg;
  cfg.conv_connection_granularity = true;
  auto universe = enumerate_faults(net, cfg);
  util::Rng rng(37);
  auto faults = sample_faults(universe, 60, rng);
  const auto input = snn::random_spike_train(10, 36, 0.5, rng);
  const auto outcome = campaign::run_campaign(net, input, faults);
  EXPECT_EQ(outcome.results.size(), faults.size());
  EXPECT_GT(outcome.detected_count(), 0u);
}

// ---------- fault labelling on the campaign engine vs the naive oracle ----------

/// In-memory dataset over explicit samples.
class SampleSet final : public data::Dataset {
 public:
  SampleSet(std::vector<data::Sample> samples, size_t classes)
      : samples_(std::move(samples)), classes_(classes) {}
  std::string name() const override { return "sample-set"; }
  size_t size() const override { return samples_.size(); }
  size_t num_classes() const override { return classes_; }
  size_t input_size() const override {
    return samples_.empty() ? 0 : samples_[0].input.shape().dim(1);
  }
  size_t num_steps() const override {
    return samples_.empty() ? 0 : samples_[0].input.shape().dim(0);
  }
  data::Sample get(size_t index) const override { return samples_.at(index); }

 private:
  std::vector<data::Sample> samples_;
  size_t classes_;
};

/// Random input trains; even samples are labelled with the golden rate
/// prediction and odd ones with the next class, so golden accuracy and
/// per-fault accuracy drops are both non-trivial.
SampleSet random_samples(const snn::Network& net, size_t count, size_t T, double density,
                         uint64_t seed) {
  util::Rng rng(seed);
  snn::Network golden(net);
  const size_t classes = net.output_size();
  std::vector<data::Sample> samples;
  for (size_t i = 0; i < count; ++i) {
    data::Sample s;
    s.input = snn::random_spike_train(T, net.input_size(), density, rng);
    const size_t pred = golden.forward(s.input).predicted_class();
    s.label = i % 2 == 0 ? pred : (pred + 1) % classes;
    samples.push_back(std::move(s));
  }
  return SampleSet(std::move(samples), classes);
}

snn::Network make_recurrent_net(uint64_t seed = 51) {
  util::Rng rng(seed);
  snn::LifParams lif;
  snn::Network net("fault-recurrent");
  auto l1 = std::make_unique<snn::DenseLayer>(8, 10, lif);
  l1->init_weights(rng, 1.3f);
  net.add_layer(std::move(l1));
  auto rec = std::make_unique<snn::RecurrentLayer>(10, 9, lif);
  rec->init_weights(rng, 1.2f, 0.5f);
  net.add_layer(std::move(rec));
  auto l3 = std::make_unique<snn::DenseLayer>(9, 4, lif);
  l3->init_weights(rng, 1.3f);
  net.add_layer(std::move(l3));
  return net;
}

std::vector<FaultDescriptor> all_kinds_sample(const snn::Network& net, size_t k, uint64_t seed) {
  FaultUniverseConfig cfg;
  cfg.neuron_threshold_variation = true;
  cfg.neuron_leak_variation = true;
  cfg.neuron_refractory_variation = true;
  cfg.synapse_bitflip = true;
  snn::Network copy(net);
  auto universe = enumerate_faults(copy, cfg);
  util::Rng rng(seed);
  return sample_faults(universe, k, rng);
}

void expect_labels_identical(const ClassificationOutcome& got,
                             const ClassificationOutcome& want) {
  EXPECT_EQ(got.golden_accuracy, want.golden_accuracy);
  ASSERT_EQ(got.labels.size(), want.labels.size());
  for (size_t j = 0; j < got.labels.size(); ++j) {
    EXPECT_EQ(got.labels[j].critical, want.labels[j].critical) << "fault " << j;
    EXPECT_EQ(got.labels[j].prediction_changes, want.labels[j].prediction_changes)
        << "fault " << j;
    EXPECT_EQ(got.labels[j].accuracy_drop, want.labels[j].accuracy_drop) << "fault " << j;
  }
}

TEST(Classifier, MatchesNaiveOracleAcrossNetsDecodingsAndThreads) {
  struct Case {
    std::string name;
    snn::Network net;
    SampleSet data;
    std::vector<FaultDescriptor> faults;
  };
  std::vector<Case> cases;
  {
    auto net = make_net(3);
    auto data = random_samples(net, 8, 16, 0.5, 61);
    auto faults = all_kinds_sample(net, 48, 62);
    cases.push_back({"dense", std::move(net), std::move(data), std::move(faults)});
  }
  {
    auto net = make_conv_net(63);
    auto data = random_samples(net, 8, 12, 0.4, 64);
    auto faults = all_kinds_sample(net, 48, 65);
    cases.push_back({"conv", std::move(net), std::move(data), std::move(faults)});
  }
  {
    auto net = make_recurrent_net();
    auto data = random_samples(net, 8, 16, 0.4, 66);
    auto faults = all_kinds_sample(net, 48, 67);
    cases.push_back({"recurrent", std::move(net), std::move(data), std::move(faults)});
  }

  for (auto& c : cases) {
    for (const auto decoding : {snn::Decoding::kRate, snn::Decoding::kTimeToFirstSpike}) {
      ClassifierConfig base;
      base.max_samples = 0;
      base.decoding = decoding;
      const auto oracle = test_support::naive_classify(c.net, c.faults, c.data, base);
      // Both labels occur, so the identity below is not vacuous.
      EXPECT_GT(oracle.critical_count(), 0u) << c.name;
      EXPECT_LT(oracle.critical_count(), c.faults.size()) << c.name;
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(c.name + " decoding=" + std::to_string(static_cast<int>(decoding)) +
                     " threads=" + std::to_string(threads));
        ClassifierConfig cfg = base;
        cfg.num_threads = threads;
        expect_labels_identical(classify_faults(c.net, c.faults, c.data, cfg), oracle);
      }
    }
  }
}

/// One sample over `channels` inputs spiking at the listed frames.
data::Sample spike_sample(size_t T, size_t channels,
                          const std::vector<std::pair<size_t, size_t>>& spikes, size_t label) {
  data::Sample s;
  s.input = snn::zero_train(T, channels);
  for (const auto& [t, c] : spikes) s.input[t * channels + c] = 1.0f;
  s.label = label;
  return s;
}

TEST(Classifier, RateTieBreaksToFirstClass) {
  // One dense layer, 4 inputs -> 3 classes; every weight that exists is 2x
  // the threshold, so each input spike fires its class neuron once (the
  // spikes are 4 frames apart, clear of the refractory step). Class 1 reads
  // inputs 1 and 3. Golden counts (2, 3, 1) predict class 1; killing the
  // synapse from input 3 leaves (2, 2, 1), a tie that first-max decoding
  // resolves to class 0 — a prediction flip.
  snn::LifParams lif;
  snn::Network net("rate-tie");
  auto layer = std::make_unique<snn::DenseLayer>(4, 3, lif);
  std::fill(layer->weights().begin(), layer->weights().end(), 0.0f);
  layer->weights()[0 * 4 + 0] = 2.0f;
  layer->weights()[1 * 4 + 1] = 2.0f;
  layer->weights()[1 * 4 + 3] = 2.0f;
  layer->weights()[2 * 4 + 2] = 2.0f;
  net.add_layer(std::move(layer));
  std::vector<data::Sample> samples;
  samples.push_back(spike_sample(12, 4, {{0, 0}, {4, 0}, {0, 1}, {4, 1}, {8, 3}, {2, 2}}, 1));
  SampleSet data(std::move(samples), 3);
  ASSERT_EQ(net.forward(data.get(0).input).output_counts(), (std::vector<size_t>{2, 3, 1}));

  std::vector<FaultDescriptor> faults(1);
  faults[0].kind = FaultKind::kSynapseDead;
  faults[0].weight = {0, 0, 1 * 4 + 3};
  ClassifierConfig cfg;
  const auto outcome = classify_faults(net, faults, data, cfg);
  expect_labels_identical(outcome, test_support::naive_classify(net, faults, data, cfg));
  EXPECT_DOUBLE_EQ(outcome.golden_accuracy, 1.0);
  EXPECT_TRUE(outcome.labels[0].critical);
  EXPECT_EQ(outcome.labels[0].prediction_changes, 1u);
  EXPECT_DOUBLE_EQ(outcome.labels[0].accuracy_drop, 1.0);
}

TEST(Classifier, AllSilentOutputUnderTtfsDecodesToClassZero) {
  // A single hidden neuron drives all three classes; class 1 (weight above
  // threshold) fires first, so TTFS predicts it. A dead hidden neuron
  // silences every class: each first spike is T and every count is 0, so
  // the count tie-break picks class 0.
  snn::LifParams lif;
  snn::Network net("all-silent");
  auto hidden = std::make_unique<snn::DenseLayer>(1, 1, lif);
  hidden->weights()[0] = 2.0f;
  net.add_layer(std::move(hidden));
  auto out = std::make_unique<snn::DenseLayer>(1, 3, lif);
  out->weights() = {0.6f, 2.0f, 0.6f};
  net.add_layer(std::move(out));
  const size_t T = 10;
  std::vector<data::Sample> samples;
  samples.push_back(spike_sample(T, 1, {{0, 0}, {2, 0}, {4, 0}, {6, 0}}, 1));
  SampleSet data(std::move(samples), 3);
  ASSERT_EQ(net.forward(data.get(0).input).output_first_spike_times(),
            (std::vector<size_t>{2, 0, 2}));

  std::vector<FaultDescriptor> faults(1);
  faults[0].kind = FaultKind::kNeuronDead;
  faults[0].neuron = {0, 0};
  const auto run = campaign::run_campaign(net, data.get(0).input, faults);
  EXPECT_EQ(run.results[0].class_first_spike, (std::vector<size_t>{T, T, T}));
  EXPECT_EQ(run.results[0].class_count_diff, (std::vector<long>{-2, -4, -2}));

  ClassifierConfig cfg;
  cfg.decoding = snn::Decoding::kTimeToFirstSpike;
  const auto outcome = classify_faults(net, faults, data, cfg);
  expect_labels_identical(outcome, test_support::naive_classify(net, faults, data, cfg));
  EXPECT_DOUBLE_EQ(outcome.golden_accuracy, 1.0);
  EXPECT_TRUE(outcome.labels[0].critical);
  EXPECT_DOUBLE_EQ(outcome.labels[0].accuracy_drop, 1.0);
}

TEST(Classifier, EmptyFaultListStillReportsGoldenAccuracy) {
  auto net = make_net();
  const auto data = random_samples(net, 5, 16, 0.5, 81);
  size_t calls = 0;
  ClassifierConfig cfg;
  cfg.progress = [&](size_t, size_t) { ++calls; };
  const auto outcome = classify_faults(net, {}, data, cfg);
  EXPECT_TRUE(outcome.labels.empty());
  EXPECT_EQ(outcome.critical_count(), 0u);
  EXPECT_EQ(outcome.golden_accuracy, test_support::naive_classify(net, {}, data, cfg).golden_accuracy);
  EXPECT_GT(outcome.golden_accuracy, 0.0);
  EXPECT_EQ(calls, 0u);
}

TEST(Classifier, EmptyDatasetLabelsEveryFaultBenign) {
  auto net = make_net();
  const SampleSet empty({}, net.output_size());
  const auto faults = all_kinds_sample(net, 10, 82);
  size_t calls = 0;
  ClassifierConfig cfg;
  cfg.progress = [&](size_t, size_t) { ++calls; };
  const auto outcome = classify_faults(net, faults, empty, cfg);
  ASSERT_EQ(outcome.labels.size(), faults.size());
  for (const auto& l : outcome.labels) {
    EXPECT_FALSE(l.critical);
    EXPECT_EQ(l.prediction_changes, 0u);
    EXPECT_EQ(l.accuracy_drop, 0.0);
  }
  EXPECT_EQ(outcome.golden_accuracy, 0.0);
  EXPECT_EQ(calls, 0u);
}

TEST(Classifier, MaxSamplesBeyondDatasetUsesWholeDataset) {
  auto net = make_net(4);
  const auto data = random_samples(net, 6, 16, 0.5, 83);
  const auto faults = all_kinds_sample(net, 24, 84);
  ClassifierConfig all;
  all.max_samples = 0;
  ClassifierConfig over = all;
  over.max_samples = 1000;
  const auto oracle = test_support::naive_classify(net, faults, data, all);
  expect_labels_identical(classify_faults(net, faults, data, over), oracle);
  expect_labels_identical(classify_faults(net, faults, data, all), oracle);
}

TEST(Classifier, ProgressCountsPairsMonotonicallyToTotal) {
  auto net = make_net(5);
  const auto data = random_samples(net, 5, 16, 0.5, 85);
  const auto faults = all_kinds_sample(net, 40, 86);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<std::pair<size_t, size_t>> calls;
    ClassifierConfig cfg;
    cfg.max_samples = 4;
    cfg.num_threads = threads;
    cfg.progress = [&](size_t done, size_t total) { calls.emplace_back(done, total); };
    classify_faults(net, faults, data, cfg);
    const size_t total = faults.size() * 4;
    ASSERT_FALSE(calls.empty());
    for (size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].second, total);
      if (i > 0) {
        EXPECT_GT(calls[i].first, calls[i - 1].first);
      }
    }
    EXPECT_EQ(calls.back().first, total);
  }
}

}  // namespace
}  // namespace snntest::fault
