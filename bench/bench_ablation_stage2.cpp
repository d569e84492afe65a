// Ablation B (ours): effect of stage 2 (spike sparsification under constant
// O^L, Sec. IV-C2).
//
// Stage 2 exists to keep fault effects from drowning in refractory periods
// on their way to the output. We compare with/without stage 2 on SHD:
// hidden spike counts of the stimulus response, fault coverage, and the
// mean output corruption magnitude of detected faults (propagation
// strength).
#include "bench_common.hpp"

#include "campaign/engine.hpp"
#include "fault/coverage.hpp"
#include "snn/spike_train.hpp"
#include "util/timer.hpp"

using namespace snntest;

namespace {

struct StageRow {
  std::string name;
  double activated = 0.0;
  size_t hidden_spikes = 0;
  double coverage = 0.0;
  double mean_corruption = 0.0;
  double gen_seconds = 0.0;
};

}  // namespace

int main() {
  bench::print_header("Ablation: stage 2 (fault-effect propagation)", "Sec. IV-C2 design choice");

  auto bundle = bench::get_bundle(zoo::BenchmarkId::kShd);
  auto& net = bundle.network;
  auto faults = bench::sampled_faults(net, 1200);

  std::vector<StageRow> rows;
  for (const bool with_stage2 : {true, false}) {
    std::printf("running %s stage 2...\n", with_stage2 ? "WITH" : "WITHOUT");
    auto cfg = bench::testgen_config(zoo::BenchmarkId::kShd);
    cfg.enable_stage2 = with_stage2;
    core::TestGenerator generator(net, cfg);
    util::Timer timer;
    auto report = generator.generate();
    StageRow row;
    row.name = with_stage2 ? "stage 1 + stage 2" : "stage 1 only";
    row.gen_seconds = timer.seconds();
    row.activated = report.activated_fraction();
    const auto stimulus = report.stimulus.assemble();
    // hidden spiking activity of the fault-free response
    const auto fwd = net.forward(stimulus);
    for (size_t l = 0; l + 1 < fwd.layer_outputs.size(); ++l) {
      row.hidden_spikes += fwd.layer_outputs[l].count_nonzero();
    }
    const auto outcome = campaign::run_campaign(net, stimulus, faults);
    row.coverage = fault::fault_coverage(outcome.results);
    double corruption = 0.0;
    size_t detected = 0;
    for (const auto& r : outcome.results) {
      if (r.detected) {
        corruption += r.output_l1;
        ++detected;
      }
    }
    row.mean_corruption = detected ? corruption / detected : 0.0;
    rows.push_back(row);
  }

  util::TextTable table({"configuration", "activated", "hidden spikes", "FC",
                         "mean |output corruption|", "gen time"});
  util::CsvWriter csv(bench::out_dir() + "/ablation_stage2.csv");
  csv.write_row({"config", "activated", "hidden_spikes", "fc", "mean_corruption", "gen_seconds"});
  for (auto& r : rows) {
    table.add_row({r.name, util::fmt_pct(r.activated), util::fmt_count(r.hidden_spikes),
                   util::fmt_pct(r.coverage), util::fmt_double(r.mean_corruption, 1),
                   util::format_duration(r.gen_seconds)});
    csv.write_row({r.name, util::CsvWriter::field(r.activated),
                   util::CsvWriter::field(r.hidden_spikes), util::CsvWriter::field(r.coverage),
                   util::CsvWriter::field(r.mean_corruption),
                   util::CsvWriter::field(r.gen_seconds)});
  }
  std::printf("\n%s\n", table.render().c_str());
  std::printf("expected shape: stage 2 reduces hidden spike counts (its Sec. IV-C2 job)\n"
              "without losing neuron activation. Note the compactness/coverage trade-off\n"
              "visible at CPU scale: fewer spikes also means fewer benign margin flips, so\n"
              "overall FC can dip slightly while the critical coverage (bench_table3, which\n"
              "runs WITH stage 2) stays near-perfect.\n"
              "CSV: %s/ablation_stage2.csv\n",
              bench::out_dir().c_str());
  return 0;
}
