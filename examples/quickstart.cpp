// Quickstart: the whole pipeline on a small SNN in under a minute.
//
//  1. build + train a spiking network on a synthetic event dataset,
//  2. enumerate the hardware fault universe,
//  3. generate a compact test stimulus with the paper's algorithm,
//  4. fault-simulate the stimulus and report fault coverage.
//
// Run:  ./build/examples/quickstart
#include <cstdio>

#include "campaign/engine.hpp"
#include "core/test_generator.hpp"
#include "data/synthetic_shd.hpp"
#include "fault/coverage.hpp"
#include "snn/dense_layer.hpp"
#include "train/trainer.hpp"
#include "util/csv.hpp"
#include "util/timer.hpp"

using namespace snntest;

int main() {
  std::printf("== snntest quickstart ==\n\n");

  // --- 1. a small 3-layer fully connected SNN on spiking audio data ---
  data::SyntheticShdConfig data_cfg;
  data_cfg.count = 400;
  data_cfg.channels = 32;
  data_cfg.num_steps = 20;
  auto dataset = std::make_shared<data::SyntheticShd>(data_cfg);
  auto splits = data::split(dataset, 300, 100);

  snn::LifParams lif;
  lif.threshold = 1.0f;
  lif.leak = 0.9f;
  lif.refractory = 1;
  util::Rng rng(1);
  snn::Network net("quickstart-snn");
  auto l1 = std::make_unique<snn::DenseLayer>(32, 48, lif);
  l1->init_weights(rng, 1.2f);
  net.add_layer(std::move(l1));
  auto l2 = std::make_unique<snn::DenseLayer>(48, 20, lif);
  l2->init_weights(rng, 1.2f);
  net.add_layer(std::move(l2));

  std::printf("network: %zu neurons, %zu synapses\n", net.total_neurons(), net.total_weights());

  train::TrainerConfig tc;
  tc.epochs = 18;
  tc.lr = 4e-3;
  tc.lr_final = 1e-3;
  tc.verbose = false;
  train::Trainer trainer(net, tc);
  const auto eval = trainer.fit(*splits.train, *splits.test);
  std::printf("trained: %.1f%% top-1 accuracy on held-out data\n\n", eval.accuracy * 100.0);

  // --- 2. the fault universe (Sec. III): dead/saturated neurons,
  //         dead/saturated synapses ---
  auto faults = fault::enumerate_faults(net);
  std::printf("fault universe: %zu faults (%zu neuron, %zu synapse)\n", faults.size(),
              fault::count_neuron_faults(faults), fault::count_synapse_faults(faults));

  // --- 3. optimized test generation (Sec. IV) ---
  core::TestGenConfig cfg;
  cfg.steps_stage1 = 150;
  cfg.max_iterations = 8;
  cfg.t_limit_seconds = 60.0;
  cfg.verbose = false;
  util::Timer gen_timer;
  core::TestGenerator generator(net, cfg);
  auto report = generator.generate();
  std::printf("test generated in %s: %zu chunks, %zu timesteps total (%.2f sample-equivalents)\n",
              util::format_duration(report.runtime_seconds).c_str(),
              report.stimulus.num_chunks(), report.stimulus.total_steps(),
              report.stimulus.duration_in_samples(data_cfg.num_steps));
  std::printf("activated neurons: %s\n\n", util::fmt_pct(report.activated_fraction()).c_str());

  // --- 4. verify with one fault-simulation campaign (Eq. (3)/(4)) ---
  const auto stimulus = report.stimulus.assemble();
  const auto outcome = campaign::run_campaign(net, stimulus, faults);
  std::printf("fault coverage: %s (%zu / %zu detected) in %s\n",
              util::fmt_pct(fault::fault_coverage(outcome.results)).c_str(),
              outcome.detected_count(), faults.size(),
              util::format_duration(outcome.stats.elapsed_seconds).c_str());
  std::printf("\nDone. Next: examples/testgen_pipeline reproduces the paper's full flow.\n");
  return 0;
}
