// Table III — test generation efficiency metrics (the headline result).
//
// For every benchmark: run the proposed algorithm, then verify with one
// fault-simulation campaign (Eq. (3)) and the criticality labels.
// Paper rows to match in *shape*: generation runtime bounded and scaling
// mildly with model size; test duration of a few sample-equivalents;
// high neuron-activation percentage; near-perfect critical-fault coverage
// with visibly lower benign coverage; small worst-case accuracy drop for
// test escapes.
#include "bench_common.hpp"

#include "campaign/engine.hpp"
#include "fault/classifier.hpp"
#include "fault/coverage.hpp"
#include "util/timer.hpp"

using namespace snntest;

namespace {

struct Table3Row {
  double gen_seconds = 0.0;
  double duration_samples = 0.0;
  double duration_time_samples = 0.0;
  size_t duration_steps = 0;
  size_t chunks = 0;
  double activated = 0.0;
  fault::CoverageReport coverage;
  size_t faults_simulated = 0;
  size_t universe_size = 0;
};

Table3Row run_benchmark(zoo::BenchmarkId id, size_t max_faults, size_t classify_samples) {
  auto bundle = bench::get_bundle(id);
  auto& net = bundle.network;

  // --- generation (timed fresh, then cached for the figure benches) ---
  core::TestGenerator generator(net, bench::testgen_config(id));
  util::Timer timer;
  auto report = generator.generate();
  Table3Row row;
  row.gen_seconds = timer.seconds();
  report.stimulus.save(bench::stimulus_cache_path(id));

  row.duration_samples = report.stimulus.duration_in_samples(bundle.steps_per_sample);
  row.duration_time_samples = report.stimulus.total_duration_in_samples(bundle.steps_per_sample);
  row.duration_steps = report.stimulus.total_steps();
  row.chunks = report.stimulus.num_chunks();
  row.activated = report.activated_fraction();

  // --- verification campaign on a sampled fault list ---
  auto universe = fault::enumerate_faults(net);
  row.universe_size = universe.size();
  auto faults = bench::sampled_faults(net, max_faults);
  row.faults_simulated = faults.size();
  // Labelling runs campaigns too; the verification campaign goes last so
  // the run report's campaign_* fields describe it.
  fault::ClassifierConfig cc;
  cc.max_samples = classify_samples;
  const auto classes = fault::classify_faults(net, faults, *bundle.test, cc);
  const auto stimulus = report.stimulus.assemble();
  const auto detection = campaign::run_campaign(net, stimulus, faults);
  row.coverage = fault::build_coverage_report(faults, detection.results, classes.labels);
  return row;
}

}  // namespace

int main() {
  bench::print_header("Test generation efficiency metrics", "Table III");

  const size_t kFaults[3] = {700, 500, 900};
  const size_t kSamples[3] = {24, 24, 24};

  std::vector<Table3Row> rows;
  for (size_t i = 0; i < bench::kAllBenchmarks.size(); ++i) {
    std::printf("running proposed algorithm on %s...\n",
                zoo::benchmark_name(bench::kAllBenchmarks[i]));
    rows.push_back(run_benchmark(bench::kAllBenchmarks[i], kFaults[i], kSamples[i]));
  }

  util::TextTable table({"Metric", "NMNIST", "IBM-gesture", "SHD"});
  util::CsvWriter csv(bench::out_dir() + "/table3.csv");
  csv.write_row({"metric", "nmnist", "gesture", "shd"});
  auto emit = [&](const std::string& name, auto getter) {
    std::vector<std::string> cells = {name};
    std::vector<std::string> csv_row = {name};
    for (auto& r : rows) {
      cells.push_back(getter(r));
      csv_row.push_back(cells.back());
    }
    table.add_row(cells);
    csv.write_row(csv_row);
  };

  emit("Test generation runtime",
       [](Table3Row& r) { return util::format_duration(r.gen_seconds); });
  emit("Test duration (samples)",
       [](Table3Row& r) { return util::fmt_double(r.duration_samples, 2); });
  emit("Test duration (time, sample units incl. sleeps)",
       [](Table3Row& r) { return util::fmt_double(r.duration_time_samples, 2); });
  emit("Test duration (timesteps)",
       [](Table3Row& r) { return util::fmt_count(r.duration_steps); });
  emit("# optimized input chunks", [](Table3Row& r) { return util::fmt_count(r.chunks); });
  emit("Activated neurons", [](Table3Row& r) { return util::fmt_pct(r.activated); });
  auto pct_or_na = [](const fault::CoverageCell& cell) {
    return cell.total == 0 ? std::string("n/a (0 sampled)")
                           : util::fmt_pct(cell.coverage()) + " (" +
                                 std::to_string(cell.detected) + "/" +
                                 std::to_string(cell.total) + ")";
  };
  emit("FC critical neuron faults",
       [&](Table3Row& r) { return pct_or_na(r.coverage.critical_neuron); });
  emit("FC critical synapse faults",
       [&](Table3Row& r) { return pct_or_na(r.coverage.critical_synapse); });
  emit("FC benign neuron faults",
       [&](Table3Row& r) { return pct_or_na(r.coverage.benign_neuron); });
  emit("FC benign synapse faults",
       [&](Table3Row& r) { return pct_or_na(r.coverage.benign_synapse); });
  emit("Max accuracy drop, undetected critical neuron faults", [](Table3Row& r) {
    return util::fmt_pct(r.coverage.max_escape_accuracy_drop_neuron);
  });
  emit("Max accuracy drop, undetected critical synapse faults", [](Table3Row& r) {
    return util::fmt_pct(r.coverage.max_escape_accuracy_drop_synapse);
  });
  emit("Faults simulated (sampled / universe)", [](Table3Row& r) {
    return util::fmt_count(r.faults_simulated) + " / " + util::fmt_count(r.universe_size);
  });

  std::printf("\n%s\n", table.render().c_str());
  std::printf("shape checks vs paper: near-perfect critical coverage with benign coverage\n"
              "well below it; test duration of only a few sample-equivalents; generation\n"
              "runtime grows mildly with model size and is independent of the fault-model\n"
              "size (contrast the extrapolated labelling times in bench_table2).\n"
              "CSV: %s/table3.csv\n",
              bench::out_dir().c_str());
  return 0;
}
