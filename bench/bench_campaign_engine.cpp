// Differential campaign engine vs. naive re-simulate-everything, bucketed
// by fault depth.
//
// The engine's two structural shortcuts — golden-prefix reuse and
// convergence pruning (campaign/engine.hpp) — pay off more the deeper the
// faulty layer sits: a fault in the last layer of an L-layer network skips
// L-1 of its L layer forwards outright. This bench quantifies that per
// layer-depth bucket on a 4-layer network: wall-clock for the naive path
// (all shortcuts disabled, same scheduler) vs. the differential path, the
// fraction of layer forwards avoided, and a result-equality check so the
// speedup is never bought with wrong answers. The detect-only mode is
// reported on the mixed bucket as an extra row.
//
// A second section sweeps EngineConfig::lane_width over a dense same-layer
// synapse-fault population — the best case for fault-batched lanes, where
// every batch fills all its lanes — once per available SIMD backend
// (tensor/simd.hpp), and reports wall-clock speedup vs. the naive
// configuration plus mean lane occupancy, again gated on bit-identical
// results.
//
// A third section sweeps divergence-frontier simulation
// (EngineConfig::frontier, DESIGN.md §17) on/off per fault-depth bucket and
// lane width: the frontier engine recomputes only the fault-effect cone per
// frame, so its win scales with how little of the network a fault actually
// disturbs. Each cell reports wall-clock speedup vs. the same configuration
// with frontier off, the fraction of neuron updates actually recomputed,
// and an inline bit-identity check.
#include <algorithm>
#include <thread>

#include "bench_common.hpp"

#include "campaign/engine.hpp"
#include "obs/metrics.hpp"
#include "snn/dense_layer.hpp"
#include "snn/spike_train.hpp"
#include "tensor/simd.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace snntest;

namespace {

snn::Network make_deep_net(uint64_t seed = 123) {
  util::Rng rng(seed);
  snn::LifParams lif;
  snn::Network net("campaign-bench");
  const size_t widths[] = {64, 128, 96, 48, 10};
  for (size_t l = 0; l + 1 < std::size(widths); ++l) {
    auto layer = std::make_unique<snn::DenseLayer>(widths[l], widths[l + 1], lif);
    layer->init_weights(rng, 1.3f);
    net.add_layer(std::move(layer));
  }
  return net;
}

std::vector<fault::FaultDescriptor> bucket_faults(const std::vector<fault::FaultDescriptor>& universe,
                                                  size_t layer, size_t max_count,
                                                  uint64_t seed) {
  std::vector<fault::FaultDescriptor> in_layer;
  for (const auto& f : universe) {
    if (campaign::fault_layer(f) == layer) in_layer.push_back(f);
  }
  util::Rng rng(seed);
  return fault::sample_faults(in_layer, max_count, rng);
}

bool results_identical(const std::vector<fault::DetectionResult>& a,
                       const std::vector<fault::DetectionResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t j = 0; j < a.size(); ++j) {
    if (a[j].detected != b[j].detected || a[j].output_l1 != b[j].output_l1 ||
        a[j].class_count_diff != b[j].class_count_diff ||
        a[j].class_first_spike != b[j].class_first_spike) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli({{"json", ""}, {"trace-out", ""}, {"metrics-out", ""}},
                      "Differential campaign engine vs naive fault simulation.");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  bench::wire_observability(cli);
  const std::string json_path = cli.get("json");

  bench::print_header("Differential campaign engine vs naive fault simulation",
                      "the T_FS cost model of Sec. IV-B / Table III");

  auto net = make_deep_net();
  util::Rng stim_rng(7);
  const auto stimulus = snn::random_spike_train(48, net.input_size(), 0.4, stim_rng);
  auto universe = fault::enumerate_faults(net);
  constexpr size_t kPerBucket = 400;

  std::printf("network: %zu layers, %zu neurons, %zu weights (%zu-fault universe)\n",
              net.num_layers(), net.total_neurons(), net.total_weights(), universe.size());
  std::printf("stimulus: [%zu x %zu], bucket size: %zu faults\n\n", size_t{48}, net.input_size(),
              kPerBucket);

  campaign::EngineConfig naive_cfg;
  naive_cfg.prefix_reuse = false;
  naive_cfg.convergence_pruning = false;

  util::TextTable table(
      {"fault bucket", "faults", "naive", "differential", "speedup", "fwd saved", "identical"});
  util::CsvWriter csv(bench::out_dir() + "/campaign_engine.csv");
  csv.write_row({"bucket", "faults", "naive_seconds", "differential_seconds", "speedup",
                 "forward_savings", "identical"});

  std::vector<bench::JsonObject> json_rows;
  auto run_bucket = [&](const std::string& name, const std::vector<fault::FaultDescriptor>& faults) {
    const auto naive = campaign::run_campaign(net, stimulus, faults, naive_cfg);
    const auto diff = campaign::run_campaign(net, stimulus, faults, {});
    const bool identical = results_identical(naive.results, diff.results);
    const double speedup = diff.stats.elapsed_seconds > 0.0
                               ? naive.stats.elapsed_seconds / diff.stats.elapsed_seconds
                               : 0.0;
    table.add_row({name, std::to_string(faults.size()),
                   util::format_duration(naive.stats.elapsed_seconds),
                   util::format_duration(diff.stats.elapsed_seconds),
                   util::fmt_double(speedup, 2) + "x", util::fmt_pct(diff.stats.forward_savings()),
                   identical ? "yes" : "NO"});
    csv.write_row({name, util::CsvWriter::field(faults.size()),
                   util::CsvWriter::field(naive.stats.elapsed_seconds),
                   util::CsvWriter::field(diff.stats.elapsed_seconds),
                   util::CsvWriter::field(speedup),
                   util::CsvWriter::field(diff.stats.forward_savings()),
                   identical ? "1" : "0"});
    json_rows.push_back(bench::JsonObject()
                            .field("bucket", name)
                            .field("faults", faults.size())
                            .field("naive_seconds", naive.stats.elapsed_seconds)
                            .field("differential_seconds", diff.stats.elapsed_seconds)
                            .field("speedup", speedup)
                            .field("forward_savings", diff.stats.forward_savings())
                            .field("identical", identical));
    return identical;
  };

  bool all_identical = true;
  for (size_t l = 0; l < net.num_layers(); ++l) {
    const auto faults = bucket_faults(universe, l, kPerBucket, 1000 + l);
    all_identical &= run_bucket("layer " + std::to_string(l), faults);
  }
  util::Rng mix_rng(55);
  const auto mixed = fault::sample_faults(universe, kPerBucket, mix_rng);
  all_identical &= run_bucket("mixed", mixed);

  // Detect-only early exit on the mixed bucket (detection bits only).
  campaign::EngineConfig detect_cfg;
  detect_cfg.detect_only = true;
  const auto full = campaign::run_campaign(net, stimulus, mixed, {});
  const auto fast = campaign::run_campaign(net, stimulus, mixed, detect_cfg);
  bool detection_agrees = true;
  for (size_t j = 0; j < mixed.size(); ++j) {
    detection_agrees &= full.results[j].detected == fast.results[j].detected;
  }
  table.add_row({"mixed (detect-only)", std::to_string(mixed.size()),
                 util::format_duration(full.stats.elapsed_seconds),
                 util::format_duration(fast.stats.elapsed_seconds),
                 util::fmt_double(fast.stats.elapsed_seconds > 0.0
                                      ? full.stats.elapsed_seconds / fast.stats.elapsed_seconds
                                      : 0.0,
                                  2) +
                     "x",
                 util::fmt_pct(fast.stats.forward_savings()),
                 detection_agrees ? "yes*" : "NO"});

  std::printf("%s\n", table.render().c_str());
  std::printf("* detect-only compares detection bits only (L1 is a lower bound by design).\n");
  std::printf("naive = same engine and scheduler with prefix reuse + pruning disabled, so the\n"
              "speedup isolates the differential algorithm, not threading differences.\n");
  std::printf("results identical across all buckets: %s\n", all_identical ? "yes" : "NO");

  // Lane-width sweep: a dense synapse-fault population confined to layer 1
  // packs every batch full, so the sweep isolates the per-lane cost of the
  // shared forward (weight streaming amortized, serial double-add chains
  // broken across lanes) against the naive one-fault-per-pass walk.
  // Swept per SIMD backend (tensor/simd.hpp): the reference is the naive
  // configuration, which runs no lane kernel, and every (backend, width)
  // cell must reproduce it bit for bit.
  namespace simd = tensor::simd;
  const simd::Backend default_backend = simd::active_backend();
  const auto backends = simd::available_backends();
  const auto lane_pop = bucket_faults(universe, 1, kPerBucket, 2024);
  std::printf("\nlane-width sweep: %zu same-layer synapse faults, %u hardware threads, "
              "default backend %s\n",
              lane_pop.size(), std::thread::hardware_concurrency(),
              simd::backend_name(default_backend));
  util::TextTable lane_table(
      {"backend", "lane width", "seconds", "speedup vs naive", "lane occupancy", "identical"});
  std::vector<bench::JsonObject> lane_rows;
  const auto naive_lane = campaign::run_campaign(net, stimulus, lane_pop, naive_cfg);
  const double naive_seconds = naive_lane.stats.elapsed_seconds;
  for (const simd::Backend backend : backends) {
    simd::force_backend(backend);
    const char* backend_str = simd::backend_name(backend);
    for (const size_t width : {size_t{1}, size_t{2}, size_t{4}, size_t{8}, size_t{16}}) {
      campaign::EngineConfig cfg;
      cfg.lane_width = width;
      const auto run = campaign::run_campaign(net, stimulus, lane_pop, cfg);
      const bool identical = results_identical(run.results, naive_lane.results);
      all_identical &= identical;
      const double speedup =
          run.stats.elapsed_seconds > 0.0 ? naive_seconds / run.stats.elapsed_seconds : 0.0;
      const double occupancy =
          run.stats.lane_batches > 0
              ? static_cast<double>(run.stats.lane_batched_faults) /
                    static_cast<double>(run.stats.lane_batches * width)
              : 0.0;
      lane_table.add_row({backend_str, std::to_string(width),
                          util::format_duration(run.stats.elapsed_seconds),
                          util::fmt_double(speedup, 2) + "x", util::fmt_double(occupancy, 3),
                          identical ? "yes" : "NO"});
      csv.write_row({std::string(backend_str) + "_lane_width_" + std::to_string(width),
                     util::CsvWriter::field(lane_pop.size()),
                     util::CsvWriter::field(naive_seconds),
                     util::CsvWriter::field(run.stats.elapsed_seconds),
                     util::CsvWriter::field(speedup), util::CsvWriter::field(occupancy),
                     identical ? "1" : "0"});
      lane_rows.push_back(bench::JsonObject()
                              .field("backend", backend_str)
                              .field("lane_width", width)
                              .field("seconds", run.stats.elapsed_seconds)
                              .field("speedup_vs_naive", speedup)
                              .field("lane_batches", run.stats.lane_batches)
                              .field("lane_occupancy", occupancy)
                              .field("lanes_retired_early", run.stats.lanes_retired_early)
                              .field("identical", identical));
    }
  }
  simd::force_backend(default_backend);
  std::printf("%s\n", lane_table.render().c_str());
  std::printf("results identical across all backends and lane widths: %s\n",
              all_identical ? "yes" : "NO");

  // Frontier sweep: frontier on vs off per fault-depth bucket × lane width.
  // The baseline of each cell is the identical configuration with frontier
  // disabled, so the speedup isolates the cone-tracking algorithm from lane
  // batching and threading.
  std::printf("\nfrontier sweep: divergence-frontier vs dense/lane kernels per bucket\n");
  util::TextTable frontier_table({"fault bucket", "lane width", "dense", "frontier", "speedup",
                                  "recomputed", "fallback frames", "identical"});
  std::vector<bench::JsonObject> frontier_rows;
  double frontier_best = 0.0, frontier_worst = 0.0;
  auto run_frontier_cell = [&](const std::string& name,
                               const std::vector<fault::FaultDescriptor>& faults, size_t width) {
    // Best-of-N per side, N sized so each side accumulates ~700 ms of
    // measurement: the small buckets finish in single-digit milliseconds,
    // where one host-contention hiccup swings a single run by 10%, so they
    // need far more repetitions than the half-second buckets to make the
    // minimum a stable contention-free estimate. Reps interleave the two
    // sides so slow drift (thermal, host load) cannot bias one of them.
    campaign::EngineConfig dense_cfg;
    dense_cfg.lane_width = width;
    campaign::EngineConfig frontier_cfg = dense_cfg;
    frontier_cfg.frontier = true;
    auto dense = campaign::run_campaign(net, stimulus, faults, dense_cfg);
    auto frontier = campaign::run_campaign(net, stimulus, faults, frontier_cfg);
    const int reps = static_cast<int>(
        std::clamp(0.7 / std::max(dense.stats.elapsed_seconds, 1e-4), 5.0, 31.0));
    for (int rep = 1; rep < reps; ++rep) {
      auto d = campaign::run_campaign(net, stimulus, faults, dense_cfg);
      if (d.stats.elapsed_seconds < dense.stats.elapsed_seconds) dense = std::move(d);
      auto f = campaign::run_campaign(net, stimulus, faults, frontier_cfg);
      if (f.stats.elapsed_seconds < frontier.stats.elapsed_seconds) frontier = std::move(f);
    }
    const bool identical =
        frontier.stats.frontier_active && results_identical(dense.results, frontier.results);
    all_identical &= identical;
    const double speedup = frontier.stats.elapsed_seconds > 0.0
                               ? dense.stats.elapsed_seconds / frontier.stats.elapsed_seconds
                               : 0.0;
    // The fraction of per-neuron updates the frontier actually recomputed
    // (the rest were copied from the golden trace).
    const double recomputed =
        frontier.stats.frontier_neuron_updates_dense > 0
            ? static_cast<double>(frontier.stats.frontier_neuron_updates) /
                  static_cast<double>(frontier.stats.frontier_neuron_updates_dense)
            : 0.0;
    if (frontier_best == 0.0 || speedup > frontier_best) frontier_best = speedup;
    if (frontier_worst == 0.0 || speedup < frontier_worst) frontier_worst = speedup;
    frontier_table.add_row({name, std::to_string(width),
                            util::format_duration(dense.stats.elapsed_seconds),
                            util::format_duration(frontier.stats.elapsed_seconds),
                            util::fmt_double(speedup, 2) + "x", util::fmt_pct(recomputed),
                            std::to_string(frontier.stats.frontier_fallback_frames),
                            identical ? "yes" : "NO"});
    csv.write_row({name + "_frontier_lane_width_" + std::to_string(width),
                   util::CsvWriter::field(faults.size()),
                   util::CsvWriter::field(dense.stats.elapsed_seconds),
                   util::CsvWriter::field(frontier.stats.elapsed_seconds),
                   util::CsvWriter::field(speedup), util::CsvWriter::field(recomputed),
                   identical ? "1" : "0"});
    frontier_rows.push_back(
        bench::JsonObject()
            .field("bucket", name)
            .field("lane_width", width)
            .field("dense_seconds", dense.stats.elapsed_seconds)
            .field("frontier_seconds", frontier.stats.elapsed_seconds)
            .field("speedup", speedup)
            .field("recompute_fraction", recomputed)
            .field("frontier_faults", frontier.stats.frontier_faults)
            .field("faults_simulated", frontier.stats.faults_simulated)
            .field("lane_batches", frontier.stats.lane_batches)
            .field("frontier_fallback_frames", frontier.stats.frontier_fallback_frames)
            .field("golden_cache_bytes", frontier.stats.golden_cache_bytes)
            .field("identical", identical));
  };
  // Larger buckets than the differential sweep: a production campaign runs
  // thousands of faults per stimulus, so the per-stimulus fixed costs the
  // frontier adds (golden state-trace recording, one probe batch per fault
  // layer) must be measured amortized the way they are in the field.
  constexpr size_t kFrontierPerBucket = 1000;
  for (size_t l = 0; l < net.num_layers(); ++l) {
    const auto faults = bucket_faults(universe, l, kFrontierPerBucket, 1000 + l);
    for (const size_t width : {size_t{1}, size_t{8}}) {
      run_frontier_cell("layer " + std::to_string(l), faults, width);
    }
  }
  util::Rng frontier_mix_rng(3000);
  const auto frontier_mixed = fault::sample_faults(universe, kFrontierPerBucket, frontier_mix_rng);
  for (const size_t width : {size_t{1}, size_t{8}}) {
    run_frontier_cell("mixed", frontier_mixed, width);
  }
  std::printf("%s\n", frontier_table.render().c_str());
  std::printf("frontier speedup range: %.2fx (worst) to %.2fx (best); identical everywhere: %s\n",
              frontier_worst, frontier_best, all_identical ? "yes" : "NO");
  std::printf("CSV: %s/campaign_engine.csv\n", bench::out_dir().c_str());

  // Per-fault sim-time percentiles from the obs histogram (interpolated from
  // bucket counts, obs::histogram_percentile): one telemetry-on run of the
  // mixed bucket, AFTER all timing rows so the instrumented pass cannot
  // perturb them. Telemetry never feeds back into results (§11).
  const bool telemetry_was_on = obs::telemetry_enabled();
  obs::set_telemetry_enabled(true);
  campaign::run_campaign(net, stimulus, mixed, {});
  obs::set_telemetry_enabled(telemetry_was_on);
  const auto metrics = obs::Registry::instance().snapshot();
  double sim_p50 = 0.0, sim_p95 = 0.0, sim_p99 = 0.0;
  uint64_t sim_count = 0;
  if (const auto it = metrics.histograms.find("campaign/fault_sim_seconds");
      it != metrics.histograms.end() && it->second.count > 0) {
    sim_p50 = it->second.percentile(0.50);
    sim_p95 = it->second.percentile(0.95);
    sim_p99 = it->second.percentile(0.99);
    sim_count = it->second.count;
  }
  std::printf("per-fault sim time (instrumented mixed-bucket run, %llu faults): "
              "p50 %.3gs, p95 %.3gs, p99 %.3gs\n",
              static_cast<unsigned long long>(sim_count), sim_p50, sim_p95, sim_p99);

  if (!json_path.empty()) {
    bench::JsonObject report;
    report.field("benchmark", "campaign_engine")
        .object("fault_sim_seconds_percentiles",
                bench::JsonObject()
                    .field("count", static_cast<size_t>(sim_count))
                    .field("p50", sim_p50)
                    .field("p95", sim_p95)
                    .field("p99", sim_p99))
        .object("config", bench::JsonObject()
                              .field("layers", net.num_layers())
                              .field("timesteps", size_t{48})
                              .field("faults_per_bucket", kPerBucket)
                              .field("universe_size", universe.size())
                              .field("simd_backend_default",
                                     std::string(simd::backend_name(default_backend)))
                              .field("hardware_threads",
                                     size_t{std::thread::hardware_concurrency()}))
        .array("results", json_rows)
        .array("lane_sweep", lane_rows)
        .array("frontier_sweep", frontier_rows)
        .field("frontier_best_speedup", frontier_best)
        .field("frontier_worst_speedup", frontier_worst)
        .field("all_identical", all_identical);
    bench::write_json_report(json_path, report);
  }
  return all_identical ? 0 : 1;
}
