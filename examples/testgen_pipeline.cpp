// The paper's complete flow on one benchmark: train/load the SNN, generate
// the optimized test stimulus (Sec. IV), run the verification fault
// simulation (Eq. (3)), classify faults critical/benign (Sec. III) and
// print a Table III-style metric block. The stimulus is saved to disk for
// reuse by examples/infield_test.
//
// Run:  ./build/examples/testgen_pipeline --benchmark shd
//       [--steps 300] [--restarts 1] [--threads 1]
//       [--fault-sample 4000] [--out stimulus.bin] [--iters 0]
//       [--train-budget 1.0] [--trace-out trace.json] [--metrics-out m.json]
#include <cstdio>

#include "campaign/engine.hpp"
#include "core/test_generator.hpp"
#include "fault/classifier.hpp"
#include "fault/coverage.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/timer.hpp"
#include "zoo/model_zoo.hpp"

using namespace snntest;

namespace {

/// Everything after flag parsing; runs inside main's try so flag validation
/// errors (e.g. --steps=abc) exit cleanly instead of aborting.
int run(const util::CliParser& cli) {
  obs::configure(cli.get("trace-out"), cli.get("metrics-out"));
  obs::set_report_field("benchmark", cli.get("benchmark"));

  const auto id = zoo::parse_benchmark(cli.get("benchmark"));
  zoo::ZooOptions zoo_opts;
  zoo_opts.train_budget = cli.get_double("train-budget");
  auto bundle = zoo::load_or_train(id, zoo_opts);
  auto& net = bundle.network;
  std::printf("\nmodel: %s — %zu neurons, %zu weights, accuracy %s\n", net.name().c_str(),
              net.total_neurons(), net.total_weights(),
              util::fmt_pct(bundle.test_accuracy).c_str());

  // --- fault universe (statistically sampled if large, DESIGN.md §2.4) ---
  auto universe = fault::enumerate_faults(net);
  util::Rng sample_rng(99);
  const size_t sample_size = cli.get_size("fault-sample");
  auto faults = sample_size != 0 && universe.size() > sample_size
                    ? fault::sample_faults(universe, sample_size, sample_rng)
                    : universe;
  std::printf("fault universe: %zu faults, simulating %zu\n", universe.size(), faults.size());

  // --- test generation ---
  core::TestGenConfig cfg;
  cfg.steps_stage1 = cli.get_size("steps");
  cfg.restarts = cli.get_size("restarts");
  cfg.num_threads = cli.get_size("threads");
  if (cli.get_size("iters") > 0) cfg.max_iterations = cli.get_size("iters");
  cfg.verbose = true;
  core::TestGenerator generator(net, cfg);
  auto report = generator.generate();
  std::printf("\ngenerated %zu chunks in %s; activated %s of neurons; T_test = %zu steps "
              "(%.2f samples)\n",
              report.stimulus.num_chunks(), util::format_duration(report.runtime_seconds).c_str(),
              util::fmt_pct(report.activated_fraction()).c_str(), report.stimulus.total_steps(),
              report.stimulus.duration_in_samples(bundle.steps_per_sample));

  // --- criticality labels + verification campaign ---
  // Labelling runs campaigns too, and the run report's campaign_* fields
  // describe the last campaign, so the verification campaign goes last.
  fault::ClassifierConfig cc;
  cc.max_samples = cli.get_size("classify-samples");
  const auto classes = fault::classify_faults(net, faults, *bundle.test, cc);
  const auto stimulus = report.stimulus.assemble();
  const auto detection = campaign::run_campaign(net, stimulus, faults);
  const auto coverage = fault::build_coverage_report(faults, detection.results, classes.labels);

  std::printf("\nfault simulation: %s; classification: %s\n",
              util::format_duration(detection.stats.elapsed_seconds).c_str(),
              util::format_duration(classes.elapsed_seconds).c_str());
  std::printf("%s\n", coverage.to_string().c_str());

  // --- persist the compact stimulus ---
  std::string out = cli.get("out");
  if (out.empty()) out = std::string("stimulus_") + zoo::benchmark_name(id) + ".bin";
  report.stimulus.save(out);
  std::printf("stimulus saved to %s (density %s) — reuse with examples/infield_test\n",
              out.c_str(), util::fmt_pct(report.stimulus.spike_density()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli({{"benchmark", "shd"},
                       {"steps", "300"},
                       {"restarts", "1"},
                       {"threads", "1"},
                       {"fault-sample", "4000"},
                       {"classify-samples", "48"},
                       {"iters", "0"},
                       {"train-budget", "1.0"},
                       {"out", ""},
                       {"trace-out", ""},
                       {"metrics-out", ""}},
                      "Full test-generation pipeline on a benchmark SNN.");
  try {
    if (!cli.parse(argc, argv)) return 0;
    return run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
