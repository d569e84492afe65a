// Fig. 9 — per-class output spike-count difference distribution for
// detected faults.
//
// For every detected fault the campaign records, per output class, the
// signed spike-count difference w.r.t. the fault-free response. The paper
// shows that while a difference of one suffices for detection, the
// optimized test drives most faults to large output corruption (heavy
// distribution tails). We print the aggregate histogram and per-class
// summary statistics, and dump the raw per-fault differences to CSV.
#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "campaign/engine.hpp"

using namespace snntest;

int main() {
  bench::print_header("Per-class spike-count difference of detected faults", "Fig. 9");

  auto bundle = bench::get_bundle(zoo::BenchmarkId::kNmnist);
  auto& net = bundle.network;
  auto stimulus = bench::get_stimulus(zoo::BenchmarkId::kNmnist, net);
  auto faults = bench::sampled_faults(net, 600);

  std::printf("simulating %zu sampled faults against the optimized stimulus...\n\n",
              faults.size());
  const auto outcome = campaign::run_campaign(net, stimulus.report.stimulus.assemble(), faults);

  // Histogram of |count difference| over (detected fault, class) pairs with
  // logarithmic-ish bins mirroring the paper's broken x-axis.
  const std::vector<std::pair<long, long>> bins = {
      {1, 1}, {2, 3}, {4, 7}, {8, 15}, {16, 31}, {32, 63}, {64, 127}, {128, 1 << 20}};
  std::vector<size_t> histogram(bins.size(), 0);
  size_t detected = 0;
  double max_abs = 0.0;
  std::vector<double> per_class_mean(net.output_size(), 0.0);
  std::vector<size_t> per_class_nonzero(net.output_size(), 0);

  util::CsvWriter csv(bench::out_dir() + "/fig9_diffs.csv");
  csv.write_row({"fault", "class", "count_diff"});
  for (size_t j = 0; j < faults.size(); ++j) {
    const auto& r = outcome.results[j];
    if (!r.detected) continue;
    ++detected;
    for (size_t c = 0; c < r.class_count_diff.size(); ++c) {
      const long d = r.class_count_diff[c];
      if (d != 0) {
        csv.write_row({faults[j].to_string(), util::CsvWriter::field(c),
                       util::CsvWriter::field(static_cast<int>(d))});
        per_class_mean[c] += std::fabs(static_cast<double>(d));
        per_class_nonzero[c] += 1;
        max_abs = std::max(max_abs, std::fabs(static_cast<double>(d)));
        for (size_t b = 0; b < bins.size(); ++b) {
          if (std::labs(d) >= bins[b].first && std::labs(d) <= bins[b].second) {
            ++histogram[b];
            break;
          }
        }
      }
    }
  }

  std::printf("detected faults: %zu / %zu\n\n", detected, faults.size());
  util::TextTable hist_table({"|count diff| bin", "pairs", "bar"});
  size_t total_pairs = 0;
  for (size_t b = 0; b < bins.size(); ++b) total_pairs += histogram[b];
  for (size_t b = 0; b < bins.size(); ++b) {
    const std::string label = bins[b].second > 1000
                                  ? ">= " + std::to_string(bins[b].first)
                                  : std::to_string(bins[b].first) + "-" +
                                        std::to_string(bins[b].second);
    const size_t bar_len = total_pairs == 0 ? 0 : histogram[b] * 50 / std::max<size_t>(1, total_pairs);
    hist_table.add_row({label, util::fmt_count(histogram[b]), std::string(bar_len, '#')});
  }
  std::printf("%s\n", hist_table.render().c_str());

  util::TextTable class_table({"class", "mean |diff| (when hit)", "faults hitting it"});
  for (size_t c = 0; c < per_class_mean.size(); ++c) {
    const double mean =
        per_class_nonzero[c] == 0 ? 0.0 : per_class_mean[c] / per_class_nonzero[c];
    class_table.add_row({std::to_string(c), util::fmt_double(mean, 1),
                         util::fmt_count(per_class_nonzero[c])});
  }
  std::printf("%s\n", class_table.render().c_str());
  std::printf("max |count diff| observed: %.0f\n\n", max_abs);
  std::printf("shape checks vs paper: detection only needs |diff| >= 1, but the optimized\n"
              "test spreads fault effects widely — the distribution has long tails with\n"
              "corruptions of tens-to-hundreds of output spikes. CSV: %s/fig9_diffs.csv\n",
              bench::out_dir().c_str());
  return 0;
}
