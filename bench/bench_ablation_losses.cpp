// Ablation A (ours, motivated by DESIGN.md §5): contribution of each
// stage-1 loss function.
//
// The paper motivates L1-L4 individually (Sec. IV-C1) but does not ablate
// them. We run the generator on the SHD benchmark with each loss removed
// (leave-one-out) plus an L2-only configuration, and compare neuron
// activation and fault coverage on a fixed sampled fault list. Expected:
// dropping L2 collapses activation; dropping L1/L3/L4 degrades specific
// coverage components.
#include "bench_common.hpp"

#include "campaign/engine.hpp"
#include "fault/coverage.hpp"
#include "util/timer.hpp"

using namespace snntest;

namespace {

struct AblationRow {
  std::string name;
  double activated = 0.0;
  double coverage = 0.0;
  double neuron_coverage = 0.0;
  double synapse_coverage = 0.0;
  double duration_samples = 0.0;
  double gen_seconds = 0.0;
};

}  // namespace

int main() {
  bench::print_header("Ablation: stage-1 loss functions (SHD)", "design-choice ablation");

  auto bundle = bench::get_bundle(zoo::BenchmarkId::kShd);
  auto& net = bundle.network;
  auto faults = bench::sampled_faults(net, 1200);

  struct Config {
    std::string name;
    bool l1, l2, l3, l4;
  };
  const std::vector<Config> configs = {
      {"all losses (L1+L2+L3+L4)", true, true, true, true},
      {"without L1 (output activation)", false, true, true, true},
      {"without L2 (neuron activation)", true, false, true, true},
      {"without L3 (temporal diversity)", true, true, false, true},
      {"without L4 (synapse uniformity)", true, true, true, false},
      {"L2 only", false, true, false, false},
  };

  std::vector<AblationRow> rows;
  for (const auto& config : configs) {
    std::printf("running: %s...\n", config.name.c_str());
    auto cfg = bench::testgen_config(zoo::BenchmarkId::kShd);
    cfg.use_l1 = config.l1;
    cfg.use_l2 = config.l2;
    cfg.use_l3 = config.l3;
    cfg.use_l4 = config.l4;
    core::TestGenerator generator(net, cfg);
    util::Timer timer;
    auto report = generator.generate();
    AblationRow row;
    row.name = config.name;
    row.gen_seconds = timer.seconds();
    row.activated = report.activated_fraction();
    row.duration_samples = report.stimulus.duration_in_samples(bundle.steps_per_sample);
    const auto outcome = campaign::run_campaign(net, report.stimulus.assemble(), faults);
    row.coverage = fault::fault_coverage(outcome.results);
    size_t nd = 0, nt = 0, sd = 0, st = 0;
    for (size_t j = 0; j < faults.size(); ++j) {
      if (faults[j].targets_neuron()) {
        ++nt;
        nd += outcome.results[j].detected;
      } else {
        ++st;
        sd += outcome.results[j].detected;
      }
    }
    row.neuron_coverage = nt ? static_cast<double>(nd) / nt : 1.0;
    row.synapse_coverage = st ? static_cast<double>(sd) / st : 1.0;
    rows.push_back(row);
  }

  util::TextTable table({"configuration", "activated", "FC all", "FC neuron", "FC synapse",
                         "dur (samples)", "gen time"});
  util::CsvWriter csv(bench::out_dir() + "/ablation_losses.csv");
  csv.write_row({"config", "activated", "fc", "fc_neuron", "fc_synapse", "duration_samples",
                 "gen_seconds"});
  for (auto& r : rows) {
    table.add_row({r.name, util::fmt_pct(r.activated), util::fmt_pct(r.coverage),
                   util::fmt_pct(r.neuron_coverage), util::fmt_pct(r.synapse_coverage),
                   util::fmt_double(r.duration_samples, 2),
                   util::format_duration(r.gen_seconds)});
    csv.write_row({r.name, util::CsvWriter::field(r.activated),
                   util::CsvWriter::field(r.coverage), util::CsvWriter::field(r.neuron_coverage),
                   util::CsvWriter::field(r.synapse_coverage),
                   util::CsvWriter::field(r.duration_samples),
                   util::CsvWriter::field(r.gen_seconds)});
  }
  std::printf("\n%s\nCSV: %s/ablation_losses.csv\n", table.render().c_str(),
              bench::out_dir().c_str());
  return 0;
}
