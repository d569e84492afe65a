// Fault-injection walkthrough: inject one fault of every kind into a
// trained SNN and show how the output spike train corrupts — the Eq. (3)
// detection criterion made visible, including ASCII rasters of the golden
// vs faulty output.
//
// Run:  ./build/examples/fault_injection_demo [--benchmark shd]
//
// With --dict it also runs a detection campaign backed by a fault
// dictionary (coverage/incremental.hpp), demonstrating kill/resume
// end-to-end: every finished pair is recorded, and the dictionary is
// committed (atomically) with save when the run ends.
//
//   # start a campaign and "kill" it after 150 simulated faults
//   fault_injection_demo --dict /tmp/demo.snfd --interrupt-after 150
//   # reuse every recorded pair and finish
//   fault_injection_demo --dict /tmp/demo.snfd --resume 1
#include <algorithm>
#include <atomic>
#include <cstdio>

#include "campaign/engine.hpp"
#include "coverage/incremental.hpp"
#include "fault/injector.hpp"
#include "fault/registry.hpp"
#include "obs/report.hpp"
#include "snn/spike_train.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/timer.hpp"
#include "zoo/model_zoo.hpp"

using namespace snntest;

int main(int argc, char** argv) {
  util::CliParser cli({{"benchmark", "shd"},
                       {"dict", ""},
                       {"resume", "0"},
                       {"campaign-faults", "400"},
                       {"interrupt-after", "0"},
                       {"lane-width", "8"},
                       {"trace-out", ""},
                       {"metrics-out", ""}},
                      "Inject one fault of each kind and visualize the output corruption; "
                      "with --dict, run a resumable detection campaign. --lane-width N "
                      "batches N same-layer faults per forward pass (1 = batches of one; "
                      "results are bit-identical at every width).");
  // Validate every numeric flag up front — a malformed --lane-width must be
  // a usage error even on runs (no --dict) that never read it.
  size_t campaign_faults = 0;
  size_t lane_width = 1;
  long interrupt_after = 0;
  try {
    if (!cli.parse(argc, argv)) return 0;
    campaign_faults = cli.get_size("campaign-faults");
    lane_width = std::max<size_t>(1, cli.get_size("lane-width"));
    interrupt_after = cli.get_int("interrupt-after");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  obs::configure(cli.get("trace-out"), cli.get("metrics-out"));
  obs::set_report_field("benchmark", cli.get("benchmark"));

  auto bundle = zoo::load_or_train(zoo::parse_benchmark(cli.get("benchmark")));
  auto& net = bundle.network;
  const auto sample = bundle.test->get(0);
  const auto golden = net.forward(sample.input);
  std::printf("\ngolden prediction for sample 0 (label %zu): class %zu\n", sample.label,
              golden.predicted_class());
  std::printf("golden output raster (rows = classes, cols = time):\n%s\n",
              snn::ascii_raster(golden.output(), 24, 64).c_str());

  // One representative fault of every kind, all on layer 0 / output layer.
  fault::FaultUniverseConfig universe_cfg;
  universe_cfg.neuron_threshold_variation = true;
  universe_cfg.neuron_leak_variation = true;
  universe_cfg.neuron_refractory_variation = true;
  universe_cfg.synapse_bitflip = true;

  const auto stats = fault::compute_weight_stats(net);
  fault::FaultInjector injector(net, stats);

  std::vector<fault::FaultDescriptor> demos;
  {
    fault::FaultDescriptor f;
    f.kind = fault::FaultKind::kNeuronDead;
    f.neuron = {0, 3};
    demos.push_back(f);
    f.kind = fault::FaultKind::kNeuronSaturated;
    f.neuron = {net.num_layers() - 1, 0};
    demos.push_back(f);
    f.kind = fault::FaultKind::kNeuronThresholdVariation;
    f.neuron = {0, 5};
    f.magnitude = 0.5f;
    demos.push_back(f);
    f = {};
    f.kind = fault::FaultKind::kSynapseDead;
    f.weight = {0, 0, 17};
    demos.push_back(f);
    f.kind = fault::FaultKind::kSynapseSaturatedPositive;
    f.magnitude = 1.5f * stats[0].max_abs;
    demos.push_back(f);
    f.kind = fault::FaultKind::kSynapseBitFlip;
    f.magnitude = 6;  // flip bit 6 of the int8 weight code
    demos.push_back(f);
  }

  util::TextTable table({"fault", "output L1 diff", "detected", "prediction"});
  for (const auto& fd : demos) {
    fault::ScopedFault scoped(injector, fd);
    const auto faulty = net.forward(sample.input);
    const double l1 = snn::output_distance(golden.output(), faulty.output());
    table.add_row({fd.to_string(), util::fmt_double(l1, 0), l1 > 0 ? "yes" : "no",
                   std::to_string(faulty.predicted_class())});
    if (fd.kind == fault::FaultKind::kNeuronSaturated) {
      std::printf("output raster with %s:\n%s\n", fd.to_string().c_str(),
                  snn::ascii_raster(faulty.output(), 24, 64).c_str());
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("note: a dataset sample often misses faults (low L1 diff) — that is exactly\n"
              "why the paper optimizes a dedicated test stimulus.\n");

  // --- optional: dictionary-backed campaign through the differential engine ---
  const std::string dict_path = cli.get("dict");
  if (dict_path.empty()) return 0;

  const bool resume = cli.get_bool("resume");
  if (!resume) std::remove(dict_path.c_str());

  util::Rng sample_rng(42);
  auto universe = fault::enumerate_faults(net);
  auto faults = fault::sample_faults(universe, campaign_faults, sample_rng);

  coverage::FaultDictionary dict = coverage::make_dictionary(net, faults);
  if (auto loaded = coverage::FaultDictionary::load(dict_path)) {
    if (!loaded->compatible_with(dict)) {
      std::fprintf(stderr, "error: dictionary %s was written for different campaign inputs; "
                           "rerun without --resume to start fresh\n", dict_path.c_str());
      return 1;
    }
    dict = std::move(*loaded);
  }

  coverage::IncrementalConfig cfg;
  cfg.engine.lane_width = lane_width;
  std::atomic<long> simulated{0};
  if (interrupt_after > 0) {
    // Simulated kill: stop claiming work once N faults have been simulated,
    // leaving a partial dictionary behind. The engine polls cancel once per
    // work item (a lane batch or a single fault), so the faults are counted
    // by the result sink, which sees every one of them.
    cfg.engine.result_sink = [&simulated](size_t, const fault::DetectionResult&) {
      simulated.fetch_add(1, std::memory_order_relaxed);
    };
    cfg.engine.cancel = [&simulated, interrupt_after] {
      return simulated.load(std::memory_order_relaxed) >= interrupt_after;
    };
  }
  std::printf("\n%s campaign: %zu sampled faults, dictionary %s\n",
              resume ? "resuming" : "starting", faults.size(), dict_path.c_str());
  coverage::IncrementalResult run;
  try {
    run = coverage::run_incremental_campaign(net, sample.input, faults, dict, cfg);
    dict.save(dict_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const campaign::CampaignResult& result = run.campaign;
  std::printf("pairs_reused: %zu, simulated now: %zu, detected: %zu/%zu\n",
              result.stats.pairs_reused, result.stats.faults_simulated,
              result.detected_count(), faults.size());
  if (result.stats.lane_batches > 0) {
    std::printf("lane batches: %zu carrying %zu faults (width %zu), %zu lanes retired early\n",
                result.stats.lane_batches, result.stats.lane_batched_faults,
                result.stats.lane_width_effective,
                result.stats.lanes_retired_early);
  }
  std::printf("layer forwards: %zu of %zu naive (%s saved), %s elapsed\n",
              result.stats.layer_forwards, result.stats.layer_forwards_naive,
              util::fmt_pct(result.stats.forward_savings()).c_str(),
              util::format_duration(result.stats.elapsed_seconds).c_str());
  if (!result.completed) {
    std::printf("campaign interrupted before completion — rerun with\n"
                "  --dict %s --resume 1\nto continue from the recorded pairs.\n",
                dict_path.c_str());
  } else {
    std::printf("campaign complete.\n");
  }
  return 0;
}
