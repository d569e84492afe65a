// The Sec. IV-B complexity argument, quantified.
//
// The straightforward formulation (Eq. (5): maximize FC directly) costs
// O(M * T_FS) because every candidate needs a fault-simulation campaign;
// the paper's reformulation costs O(M + T_FS). We run both on the same
// small network and fault list and report: per-iteration cost, total fault
// simulations, wall-clock, and the coverage each attains — then extrapolate
// the naive cost to the benchmark-sized universes of Table II, reproducing
// the "several days" infeasibility claim.
#include "bench_common.hpp"

#include "campaign/engine.hpp"
#include "core/naive_fc_optimizer.hpp"
#include "fault/coverage.hpp"
#include "snn/dense_layer.hpp"
#include "util/timer.hpp"

using namespace snntest;

int main() {
  bench::print_header("Naive FC-in-the-loop optimization vs proposed reformulation",
                      "Sec. IV-B complexity argument");

  // Small network so the naive method is even runnable.
  util::Rng rng(77);
  snn::LifParams lif;
  snn::Network net("naive-vs-proposed");
  auto l1 = std::make_unique<snn::DenseLayer>(24, 32, lif);
  l1->init_weights(rng, 1.2f);
  net.add_layer(std::move(l1));
  auto l2 = std::make_unique<snn::DenseLayer>(32, 8, lif);
  l2->init_weights(rng, 1.2f);
  net.add_layer(std::move(l2));
  auto faults = fault::enumerate_faults(net);
  std::printf("network: %zu neurons, %zu weights -> %zu faults\n\n", net.total_neurons(),
              net.total_weights(), faults.size());

  // --- naive: FC as the fitness (Eq. (5)) ---
  core::NaiveFcConfig naive_cfg;
  naive_cfg.iterations = 60;
  naive_cfg.num_steps = 16;
  std::printf("running naive FC hill-climb (%zu iterations = %zu campaigns)...\n",
              naive_cfg.iterations, naive_cfg.iterations);
  const auto naive = core::naive_fc_optimize(net, faults, naive_cfg);

  // --- proposed: loss-function reformulation (Eq. (6)) ---
  core::TestGenConfig cfg;
  cfg.steps_stage1 = 200;
  cfg.max_iterations = 6;
  cfg.verbose = false;
  util::Timer timer;
  core::TestGenerator generator(net, cfg);
  auto report = generator.generate();
  const double proposed_gen_seconds = timer.seconds();
  const auto verify = campaign::run_campaign(net, report.stimulus.assemble(), faults);
  const double proposed_fc = fault::fault_coverage(verify.results);

  util::TextTable table({"method", "iterations", "fault sims", "gen time", "final FC"});
  util::CsvWriter csv(bench::out_dir() + "/naive_fc.csv");
  csv.write_row({"method", "iterations", "fault_sims", "gen_seconds", "fc"});
  table.add_row({"naive FC-in-the-loop (Eq. 5)", std::to_string(naive_cfg.iterations),
                 util::fmt_count(naive.fault_simulations),
                 util::format_duration(naive.seconds), util::fmt_pct(naive.best_coverage)});
  csv.write_row({"naive", util::CsvWriter::field(naive_cfg.iterations),
                 util::CsvWriter::field(naive.fault_simulations),
                 util::CsvWriter::field(naive.seconds),
                 util::CsvWriter::field(naive.best_coverage)});
  const size_t proposed_steps =
      cfg.steps_stage1 * report.stimulus.num_chunks() * 3 / 2;  // stage1 + stage2
  table.add_row({"proposed (Eq. 6, losses L1-L5)", std::to_string(proposed_steps),
                 "0 (+1 final verify)", util::format_duration(proposed_gen_seconds),
                 util::fmt_pct(proposed_fc)});
  csv.write_row({"proposed", util::CsvWriter::field(proposed_steps), "0",
                 util::CsvWriter::field(proposed_gen_seconds),
                 util::CsvWriter::field(proposed_fc)});
  std::printf("\n%s\n", table.render().c_str());

  // --- extrapolation to benchmark scale (Table II's infeasibility row) ---
  const double per_sim_seconds =
      naive.fault_simulations ? naive.seconds / static_cast<double>(naive.fault_simulations)
                              : 0.0;
  std::printf("naive per-fault-simulation cost here: %.3f ms\n", per_sim_seconds * 1e3);
  std::printf("extrapolated naive cost for 2000 iterations on the gesture universe\n"
              "(349,886 faults, ~40x slower inference): %s — the paper's 'days' regime.\n",
              util::format_duration(per_sim_seconds * 40.0 * 349886.0 * 2000.0).c_str());
  std::printf("proposed cost on the same universe stays O(M + T_FS): generation is\n"
              "independent of the fault count (Table III measures it directly).\n"
              "CSV: %s/naive_fc.csv\n",
              bench::out_dir().c_str());
  return 0;
}
