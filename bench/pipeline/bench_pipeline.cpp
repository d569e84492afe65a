// bench_pipeline — the paper's pipeline on the three zoo models (nmnist,
// gesture, shd) as four named workloads: generate, campaign, label, replay.
// README.md has the workloads, the metrics and the layer -> end-to-end map.
//
// One process runs one workload for --seconds on all three models, checks
// the outputs inline (correctness gates), and prints as its last stdout line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics, or
// with --trace <file> the per-layer metrics from a traced run.
//
//   bench_pipeline --workload campaign --seed 1 --seconds 15 [--threads 2]
//                  [--trace trace.json] [--cache-dir bench_cache]
//                  [--prime-only 1] [--smoke 1] [--record runs.jsonl]
//
// --seed picks the fault samples, the dataset samples and the generator
// seed. The trained models, the Table III stimuli and the per-seed reference
// artifacts are primed into --cache-dir once, outside every timer.
#include <malloc.h>
#include <sys/resource.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "campaign/engine.hpp"
#include "core/test_generator.hpp"
#include "coverage/fault_dictionary.hpp"
#include "coverage/incremental.hpp"
#include "coverage/minimize.hpp"
#include "fault/classifier.hpp"
#include "fault/registry.hpp"
#include "obs/metrics.hpp"
#include "tensor/simd.hpp"
#include "tracer.hpp"
#include "yardstick.hpp"
#include "util/cli.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "zoo/model_zoo.hpp"

namespace {

using namespace snntest;
using bench::median;
using bench::Tracer;
using Scope = Tracer::Scope;
namespace fs = std::filesystem;

enum Workload : int { kGenerate = 0, kCampaign = 1, kLabel = 2, kReplay = 3 };
const std::vector<std::string> kWorkloadNames = {"generate", "campaign", "label", "replay"};
constexpr size_t kModels = 3;  // bench::kAllBenchmarks: nmnist, gesture, shd
using PerModel = std::array<size_t, kModels>;

/// Input sizes. A workload pass takes ~2 s over the three models on two
/// threads, so a 15 s run holds enough passes for a steady median.
struct Sizes {
  double train_budget = 1.0;
  size_t table3_iterations = 0;  // 0 = bench::testgen_config's own cap
  size_t table3_steps = 0;       // 0 = bench::testgen_config's own steps
  size_t table3_t_in_max = 0;    // 0 = TestGenConfig default
  size_t gen_restarts = 4;
  PerModel gen_steps = {32, 6, 48};
  PerModel gen_iterations = {1, 1, 4};
  PerModel campaign_faults = {800, 200, 640};
  PerModel label_faults = {128, 48, 320};
  PerModel replay_faults = {2000, 250, 1500};
  size_t samples = 8;         // test samples next to the Table III stimulus
  size_t label_samples = 16;  // dataset samples per fault when labelling
  // The reference engine configuration costs 16-116 ms per fault on the
  // Table III stimuli (gesture is the slow one), so its gate checks a few
  // dozen faults per model rather than hundreds.
  PerModel campaign_gate_faults = {32, 6, 40};
  size_t label_gate_faults = 100;
};

Sizes smoke_sizes() {
  Sizes s;
  s.train_budget = 0.05;
  s.table3_iterations = 1;
  s.table3_steps = 40;
  s.table3_t_in_max = 8;
  s.gen_restarts = 2;
  s.gen_steps = {20, 8, 20};
  s.gen_iterations = {1, 1, 1};
  s.campaign_faults = s.label_faults = s.replay_faults = {100, 100, 100};
  s.samples = 2;
  s.label_samples = 4;
  s.campaign_gate_faults = {20, 5, 20};
  s.label_gate_faults = 25;
  return s;
}

/// Short stable tag of the sizes a cached artifact depends on, so a cache
/// built for other sizes is never read back.
std::string size_tag(const std::vector<size_t>& values) {
  const uint64_t h = util::fnv1a(values.data(), values.size() * sizeof(size_t));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%08llx", static_cast<unsigned long long>(h & 0xffffffffull));
  return buf;
}

struct Options {
  Workload workload = kCampaign;
  uint64_t seed = 1;
  double seconds = 15.0;
  size_t threads = 2;
  std::string trace_path;
  std::string cache_dir;
  Sizes sizes;
};

/// Counts public calls and gates attempted and failed.
struct Ledger {
  size_t attempted = 0;
  size_t failed = 0;

  void gate(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "gate failed: %s\n", what.c_str());
    }
  }
};

/// A Dataset view over chosen indices of another dataset (the seed's
/// labelling samples).
class IndexView final : public data::Dataset {
 public:
  IndexView(std::shared_ptr<const data::Dataset> base, std::vector<size_t> indices)
      : base_(std::move(base)), indices_(std::move(indices)) {}
  std::string name() const override { return base_->name() + "[view]"; }
  size_t size() const override { return indices_.size(); }
  size_t num_classes() const override { return base_->num_classes(); }
  size_t input_size() const override { return base_->input_size(); }
  size_t num_steps() const override { return base_->num_steps(); }
  data::Sample get(size_t index) const override { return base_->get(indices_.at(index)); }

 private:
  std::shared_ptr<const data::Dataset> base_;
  std::vector<size_t> indices_;
};

/// Sample k faults stratified by (layer, kind): every stratum gets its
/// proportional share (largest remainder, at least one), so the mix of
/// shallow and deep, neuron and synapse faults is the same for every seed
/// and only the faults within each stratum vary. Universe order is kept.
std::vector<fault::FaultDescriptor> stratified_sample(
    const std::vector<fault::FaultDescriptor>& universe, size_t k, uint64_t seed) {
  if (k == 0) return {};
  if (k >= universe.size()) return universe;
  std::map<std::pair<size_t, int>, std::vector<size_t>> strata;
  for (size_t i = 0; i < universe.size(); ++i) {
    strata[{campaign::fault_layer(universe[i]), static_cast<int>(universe[i].kind)}].push_back(i);
  }
  struct Quota {
    const std::vector<size_t>* members;
    size_t take;
    double remainder;
  };
  std::vector<Quota> quotas;
  size_t assigned = 0;
  for (const auto& [key, members] : strata) {
    const double exact = static_cast<double>(k) * static_cast<double>(members.size()) /
                         static_cast<double>(universe.size());
    const size_t take = static_cast<size_t>(exact);
    quotas.push_back({&members, take, exact - static_cast<double>(take)});
    assigned += take;
  }
  std::vector<size_t> order(quotas.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return quotas[a].remainder > quotas[b].remainder; });
  for (size_t i = 0; assigned < k && i < order.size(); ++i, ++assigned) ++quotas[order[i]].take;

  util::Rng rng(seed);
  std::vector<size_t> picked;
  for (Quota& q : quotas) {
    q.take = std::min(std::max<size_t>(q.take, 1), q.members->size());
    for (size_t j : rng.sample_without_replacement(q.members->size(), q.take)) {
      picked.push_back((*q.members)[j]);
    }
  }
  std::sort(picked.begin(), picked.end());
  std::vector<fault::FaultDescriptor> out;
  out.reserve(picked.size());
  for (size_t i : picked) out.push_back(universe[i]);
  return out;
}

/// One dataset sample from each of `count` equal bins of `order` (the test
/// samples sorted by spike count): the seed picks which samples, while the
/// spread of input activity, and so the work per sample, stays the same.
std::vector<size_t> pick_by_activity(const std::vector<size_t>& order, size_t count,
                                     uint64_t seed) {
  util::Rng rng(seed);
  std::vector<size_t> out;
  const size_t n = order.size();
  count = std::min(count, n);
  for (size_t b = 0; b < count; ++b) {
    const size_t lo = b * n / count;
    const size_t hi = (b + 1) * n / count;
    out.push_back(order[lo + rng.uniform_index(hi - lo)]);
  }
  return out;
}

/// Every `count`-th element spread evenly over [0, n): the gate subsamples.
std::vector<size_t> strided(size_t n, size_t count) {
  std::vector<size_t> out;
  if (n == 0) return out;
  count = std::min(count, n);
  for (size_t i = 0; i < count; ++i) out.push_back(i * n / count);
  return out;
}

// --- cache --------------------------------------------------------------------

std::string cache_file(const Options& opt, const std::string& name) {
  return (fs::path(opt.cache_dir) / name).string();
}

zoo::ZooOptions zoo_options(const Options& opt) {
  zoo::ZooOptions zo;
  zo.cache_dir = opt.cache_dir;
  zo.train_budget = opt.sizes.train_budget;
  zo.verbose = false;
  return zo;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << bytes;
    if (!out) throw std::runtime_error("cannot write " + tmp);
  }
  fs::rename(tmp, path);
}

// --- models -------------------------------------------------------------------

struct Model {
  size_t index = 0;
  zoo::BenchmarkId id{};
  std::string name;
  zoo::BenchmarkBundle bundle;
  std::vector<fault::FaultDescriptor> universe;
  std::vector<fault::FaultDescriptor> faults;  // the workload's sample
  tensor::Tensor table3;                       // the Table III stimulus, assembled
  size_t table3_t_in_min = 0;
  std::vector<tensor::Tensor> samples;        // test samples for campaigns
  std::shared_ptr<data::Dataset> label_set;  // test samples for labelling
};

uint64_t model_seed(const Options& opt, uint64_t stream, size_t model) {
  return util::mix_seed(opt.seed, stream, model);
}

size_t workload_faults(const Options& opt, size_t m) {
  switch (opt.workload) {
    case kCampaign: return opt.sizes.campaign_faults[m];
    case kLabel: return opt.sizes.label_faults[m];
    case kReplay: return opt.sizes.replay_faults[m];
    case kGenerate: return 0;
  }
  return 0;
}

/// Train (or reuse) one model, order its test samples by spike count, and
/// generate its Table III stimulus: bench's per-model test-generation
/// config, one restart, no time limit.
void prime_model(const Options& opt, zoo::BenchmarkId id) {
  const std::string name = zoo::benchmark_name(id);
  const std::string stim_path = cache_file(opt, "table3-" + name + ".stim");
  const std::string order_path = cache_file(opt, "samples-" + name + ".order");
  if (fs::exists(stim_path) && fs::exists(order_path) &&
      fs::exists(zoo::model_cache_path(id, zoo_options(opt)))) {
    return;
  }
  auto bundle = zoo::load_or_train(id, zoo_options(opt));
  std::vector<std::pair<size_t, size_t>> activity;  // (spikes, index)
  for (size_t i = 0; i < bundle.test->size(); ++i) {
    activity.emplace_back(bundle.test->get(i).input.count_nonzero(), i);
  }
  std::sort(activity.begin(), activity.end());
  std::string order;
  for (const auto& [spikes, i] : activity) order += std::to_string(i) + "\n";
  write_file(order_path, order);

  core::TestGenConfig cfg = bench::testgen_config(id);
  cfg.restarts = 1;
  cfg.num_threads = 1;
  cfg.t_limit_seconds = 1e9;
  if (opt.sizes.table3_iterations) cfg.max_iterations = opt.sizes.table3_iterations;
  if (opt.sizes.table3_steps) cfg.steps_stage1 = opt.sizes.table3_steps;
  if (opt.sizes.table3_t_in_max) cfg.t_in_max = opt.sizes.table3_t_in_max;
  core::TestGenerator generator(bundle.network, cfg);
  const auto report = generator.generate();
  write_file(cache_file(opt, "table3-" + name + ".tin"), std::to_string(report.t_in_min));
  report.stimulus.save(stim_path + ".tmp");
  fs::rename(stim_path + ".tmp", stim_path);
}

struct SetupTimes {
  double load_s = 0.0;
  double enumerate_s = 0.0;
};

/// Load everything a pass needs; the timed set-up of every workload.
std::vector<Model> setup(const Options& opt, Tracer& tracer, SetupTimes& times) {
  std::vector<Model> models;
  for (size_t m = 0; m < kModels; ++m) {
    Model model;
    model.index = m;
    model.id = bench::kAllBenchmarks[m];
    model.name = zoo::benchmark_name(model.id);
    {
      Scope span(tracer, "zoo.load." + model.name);
      model.bundle = zoo::load_or_train(model.id, zoo_options(opt));
      times.load_s += span.close();
    }
    {
      Scope span(tracer, "fault.enumerate." + model.name);
      model.universe = fault::enumerate_faults(model.bundle.network);
      model.faults = stratified_sample(model.universe, workload_faults(opt, m),
                                       model_seed(opt, 1, m));
      times.enumerate_s += span.close();
    }
    const std::string stim = cache_file(opt, "table3-" + model.name + ".stim");
    model.table3 = core::TestStimulus::load(stim).assemble();
    model.table3_t_in_min = std::stoul(read_file(cache_file(opt, "table3-" + model.name + ".tin")));

    std::vector<size_t> order;
    std::istringstream in(read_file(cache_file(opt, "samples-" + model.name + ".order")));
    for (size_t i = 0; in >> i;) order.push_back(i);
    const auto& test = model.bundle.test;
    for (size_t i : pick_by_activity(order, opt.sizes.samples, model_seed(opt, 2, m))) {
      model.samples.push_back(test->get(i).input);
    }
    model.label_set = std::make_shared<IndexView>(
        test, pick_by_activity(order, opt.sizes.label_samples, model_seed(opt, 3, m)));
    models.push_back(std::move(model));
  }
  return models;
}

// --- workload configurations ----------------------------------------------------

core::TestGenConfig generate_config(const Options& opt, const Model& model) {
  core::TestGenConfig cfg = bench::testgen_config(model.id);
  cfg.restarts = opt.sizes.gen_restarts;
  cfg.num_threads = opt.threads;
  cfg.t_limit_seconds = 1e9;
  cfg.steps_stage1 = opt.sizes.gen_steps[model.index];
  cfg.max_iterations = opt.sizes.gen_iterations[model.index];
  // The same work for every seed: the Table III duration instead of a T_in
  // search, and no window growth, each of which reruns optimizer stages a
  // seed-dependent number of times (find_min_input_duration is probed on
  // its own in traced runs; growth runs when the Table III stimulus is
  // primed).
  cfg.t_in_min = model.table3_t_in_min;
  cfg.max_growths_per_iteration = 0;
  cfg.seed = model_seed(opt, 4, model.index);
  return cfg;
}

campaign::EngineConfig engine_config(const Options& opt) {
  campaign::EngineConfig cfg;
  cfg.num_threads = opt.threads;
  return cfg;
}

std::string generate_digest_path(const Options& opt) {
  const Sizes& s = opt.sizes;
  std::vector<size_t> key = {s.gen_restarts};
  for (size_t m = 0; m < kModels; ++m) {
    key.push_back(s.gen_steps[m]);
    key.push_back(s.gen_iterations[m]);
  }
  return cache_file(opt, "generate-" + size_tag(key) + "-s" + std::to_string(opt.seed) + ".txt");
}

std::string replay_path(const Options& opt, size_t m, const char* suffix) {
  const std::vector<size_t> key = {opt.sizes.replay_faults[m], opt.sizes.samples};
  return cache_file(opt, std::string("replay-") + zoo::benchmark_name(bench::kAllBenchmarks[m]) +
                             "-" + size_tag(key) + "-s" + std::to_string(opt.seed) + suffix);
}

uint64_t stimulus_digest(const core::TestStimulus& stimulus) {
  return coverage::stimulus_fingerprint(stimulus.assemble());
}

/// The detect-only dictionary over (Table III stimulus + samples) that the
/// replay workload executes, and its minimized schedule.
void prime_replay(const Options& opt, const Model& model) {
  coverage::IncrementalConfig ic;
  ic.engine = engine_config(opt);
  ic.engine.detect_only = true;
  auto dict = coverage::make_dictionary(model.bundle.network, model.faults, 0.0, true);
  ic.stimulus_name = "table3";
  coverage::run_incremental_campaign(model.bundle.network, model.table3, model.faults, dict, ic);
  for (size_t k = 0; k < model.samples.size(); ++k) {
    ic.stimulus_name = "sample" + std::to_string(k);
    coverage::run_incremental_campaign(model.bundle.network, model.samples[k], model.faults, dict,
                                       ic);
  }
  dict.save(replay_path(opt, model.index, ".snfd"));
  const auto schedule = coverage::minimize_schedule(dict);
  write_file(replay_path(opt, model.index, ".schedule.snfd"),
             coverage::schedule_as_dictionary(dict, schedule).serialize());
}

/// Prime the cache: models and Table III stimuli (one thread per model),
/// then the per-seed references of the workload. Returns seconds spent.
double prime(const Options& opt) {
  util::Timer timer;
  fs::create_directories(opt.cache_dir);
  {
    std::vector<std::thread> threads;
    std::vector<std::string> errors(kModels);
    for (size_t m = 0; m < kModels; ++m) {
      threads.emplace_back([&, m] {
        try {
          prime_model(opt, bench::kAllBenchmarks[m]);
        } catch (const std::exception& e) {
          errors[m] = e.what();
        }
      });
    }
    for (auto& t : threads) t.join();
    for (const auto& e : errors) {
      if (!e.empty()) throw std::runtime_error("prime: " + e);
    }
  }
  if (opt.workload == kGenerate && !fs::exists(generate_digest_path(opt))) {
    Tracer off;
    SetupTimes unused;
    auto models = setup(opt, off, unused);
    std::string lines;
    for (auto& model : models) {
      core::TestGenerator generator(model.bundle.network, generate_config(opt, model));
      lines += model.name + " " + std::to_string(stimulus_digest(generator.generate().stimulus)) +
               "\n";
    }
    write_file(generate_digest_path(opt), lines);
  }
  bool replay_primed = true;
  for (size_t m = 0; m < kModels; ++m) {
    replay_primed = replay_primed && fs::exists(replay_path(opt, m, ".schedule.snfd"));
  }
  if (opt.workload == kReplay && !replay_primed) {
    Tracer off;
    SetupTimes unused;
    for (const auto& model : setup(opt, off, unused)) prime_replay(opt, model);
  }
  return timer.seconds();
}

// --- timing -------------------------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Wall and CPU seconds of one call as measured, and the factor that
/// rescales them to the reference machine speed, from the mean of the
/// yardstick timed right before and right after the call.
struct Timed {
  double wall = 0.0;
  double cpu = 0.0;
  double yardstick = 0.0;
  double scale = 1.0;
  double wall_ref() const { return wall * scale; }
  double cpu_ref() const { return cpu * scale; }
};

template <class F>
Timed timed(size_t threads, F&& call) {
  const double before = bench::yardstick_seconds(threads);
  const double cpu0 = cpu_seconds();
  util::Timer timer;
  call();
  Timed t;
  t.wall = timer.seconds();
  t.cpu = cpu_seconds() - cpu0;
  const double after = bench::yardstick_seconds(threads);
  t.yardstick = 0.5 * (before + after);
  t.scale = bench::reference_scale(t.yardstick);
  return t;
}

// --- workloads ----------------------------------------------------------------

/// What one pass produced for one model: the outputs the gates check and
/// the exact quality numbers the run reports.
struct ModelOutput {
  // generate
  double activated_frac = 0.0;
  size_t iterations = 0;
  size_t stimulus_steps = 0;
  // campaign
  std::optional<coverage::FaultDictionary> dictionary;
  size_t records_saved = 0;
  double fault_coverage = 0.0;
  // label
  fault::ClassificationOutcome classes;
  double fc_critical = 0.0;
  // replay
  coverage::TestSchedule schedule;
  size_t replay_detected = 0;
};

class Workloads {
 public:
  Workloads(const Options& opt, Tracer& tracer, std::vector<Model>& models)
      : opt_(opt), tracer_(tracer), models_(models), out_(models.size()) {
    if (opt.workload == kGenerate) {
      std::istringstream in(read_file(generate_digest_path(opt)));
      std::string name;
      uint64_t digest = 0;
      while (in >> name >> digest) primed_digests_[name] = digest;
    }
  }

  const std::vector<ModelOutput>& outputs() const { return out_; }

  /// One pass over all three models; returns each model's timing.
  std::vector<Timed> pass(Ledger& ledger) {
    std::vector<Timed> timings;
    for (Model& model : models_) {
      timings.push_back(timed(opt_.threads, [&] {
        Scope span(tracer_, kWorkloadNames[opt_.workload] + "." + model.name);
        try {
          switch (opt_.workload) {
            case kGenerate: generate(model, ledger); break;
            case kCampaign: campaign(model, ledger); break;
            case kLabel: label(model, ledger); break;
            case kReplay: replay(model, ledger); break;
          }
        } catch (const std::exception& e) {
          ++ledger.failed;
          std::fprintf(stderr, "%s/%s: %s\n", kWorkloadNames[opt_.workload].c_str(),
                       model.name.c_str(), e.what());
        }
      }));
    }
    return timings;
  }

  /// Checks on the last pass' outputs that need extra work (run once).
  void gates(Ledger& ledger) {
    for (Model& model : models_) {
      try {
        switch (opt_.workload) {
          case kGenerate: break;  // checked in every pass
          case kCampaign: campaign_gate(model, ledger); break;
          case kLabel: label_gate(model, ledger); break;
          case kReplay: break;  // checked in every pass
        }
      } catch (const std::exception& e) {
        ledger.gate(false, model.name + " gate threw: " + e.what());
      }
    }
  }

 private:
  void generate(Model& model, Ledger& ledger) {
    ModelOutput& out = out_[model.index];
    ++ledger.attempted;
    core::TestGenerator generator(model.bundle.network, generate_config(opt_, model));
    core::TestGenReport report;
    {
      Scope span(tracer_, "core.generate." + model.name);
      report = generator.generate();
    }
    const uint64_t digest = stimulus_digest(report.stimulus);
    out.activated_frac = report.activated_fraction();
    out.iterations = report.iterations.size();
    out.stimulus_steps = report.stimulus.total_steps();
    const auto primed = primed_digests_.find(model.name);
    ledger.gate(primed != primed_digests_.end() && primed->second == digest,
                model.name + ": stimulus digest differs from the primed digest");
    ledger.gate(!report.hit_time_limit, model.name + ": generation hit the time limit");
  }

  void campaign(Model& model, Ledger& ledger) {
    ModelOutput& out = out_[model.index];
    const snn::Network& net = model.bundle.network;
    auto dict = coverage::make_dictionary(net, model.faults);
    coverage::IncrementalConfig ic;
    ic.engine = engine_config(opt_);
    ic.stimulus_name = "table3";
    ++ledger.attempted;
    coverage::IncrementalResult table3;
    {
      Scope span(tracer_, "campaign.table3." + model.name);
      table3 = coverage::run_incremental_campaign(net, model.table3, model.faults, dict, ic);
    }
    out.fault_coverage = static_cast<double>(table3.campaign.detected_count()) /
                         static_cast<double>(model.faults.size());
    {
      Scope span(tracer_, "campaign.samples." + model.name);
      for (size_t k = 0; k < model.samples.size(); ++k) {
        ++ledger.attempted;
        ic.stimulus_name = "sample" + std::to_string(k);
        coverage::run_incremental_campaign(net, model.samples[k], model.faults, dict, ic);
      }
    }
    const std::string path = cache_file(opt_, "campaign-" + model.name + ".snfd");
    ++ledger.attempted;
    {
      Scope span(tracer_, "coverage.save." + model.name);
      dict.save(path);
    }
    ++ledger.attempted;
    coverage::FaultDictionary::LoadStats load_stats;
    {
      Scope span(tracer_, "coverage.load." + model.name);
      out.dictionary = coverage::FaultDictionary::load(path, &load_stats);
    }
    out.records_saved = dict.num_records();
    ledger.gate(out.dictionary.has_value() && load_stats.records_skipped == 0 &&
                    load_stats.records_loaded == out.records_saved,
                model.name + ": dictionary round trip skipped records");
  }

  /// The default engine is bit-identical to the reference configuration
  /// (scalar, no prefix reuse, no pruning, dense kernels) on a subsample.
  void campaign_gate(Model& model, Ledger& ledger) {
    const ModelOutput& out = out_[model.index];
    if (!out.dictionary) return ledger.gate(false, model.name + ": no dictionary to check");
    const auto pick = strided(model.faults.size(), opt_.sizes.campaign_gate_faults[model.index]);
    std::vector<fault::FaultDescriptor> subset;
    for (size_t i : pick) subset.push_back(model.faults[i]);
    campaign::EngineConfig ref = engine_config(opt_);
    ref.lane_width = 1;
    ref.prefix_reuse = false;
    ref.convergence_pruning = false;
    ref.kernel_mode = snn::KernelMode::kDense;
    std::vector<const tensor::Tensor*> stimuli = {&model.table3};
    for (const auto& s : model.samples) stimuli.push_back(&s);
    bool identical = true;
    for (size_t s = 0; s < stimuli.size(); ++s) {
      const auto fp = coverage::stimulus_fingerprint(*stimuli[s]);
      const auto index = out.dictionary->find_stimulus(fp);
      const auto reference = campaign::run_campaign(model.bundle.network, *stimuli[s], subset, ref);
      for (size_t j = 0; j < pick.size(); ++j) {
        const fault::DetectionResult* stored =
            index ? out.dictionary->lookup(*index, pick[j]) : nullptr;
        identical = identical && stored != nullptr &&
                    coverage::results_identical(*stored, reference.results[j]);
      }
    }
    ledger.gate(identical, model.name + ": default engine differs from the reference config");
  }

  void label(Model& model, Ledger& ledger) {
    ModelOutput& out = out_[model.index];
    fault::ClassifierConfig cc;
    cc.max_samples = model.label_set->size();
    cc.num_threads = opt_.threads;
    ++ledger.attempted;
    {
      Scope span(tracer_, "fault.classify." + model.name);
      out.classes = fault::classify_faults(model.bundle.network, model.faults, *model.label_set, cc);
    }
    ++ledger.attempted;
    campaign::CampaignResult detection;
    {
      Scope span(tracer_, "campaign.critical." + model.name);
      detection = campaign::run_campaign(model.bundle.network, model.table3, model.faults,
                                         engine_config(opt_));
    }
    size_t critical = 0;
    size_t caught = 0;
    for (size_t i = 0; i < model.faults.size(); ++i) {
      if (!out.classes.labels[i].critical) continue;
      ++critical;
      caught += detection.results[i].detected ? 1 : 0;
    }
    out.fc_critical =
        critical == 0 ? 1.0 : static_cast<double>(caught) / static_cast<double>(critical);
  }

  /// Labels do not depend on the thread count.
  void label_gate(Model& model, Ledger& ledger) {
    const ModelOutput& out = out_[model.index];
    const auto pick = strided(model.faults.size(), opt_.sizes.label_gate_faults);
    std::vector<fault::FaultDescriptor> subset;
    for (size_t i : pick) subset.push_back(model.faults[i]);
    fault::ClassifierConfig cc;
    cc.max_samples = model.label_set->size();
    cc.num_threads = 1;
    const auto serial = fault::classify_faults(model.bundle.network, subset, *model.label_set, cc);
    bool identical = out.classes.labels.size() == model.faults.size();
    for (size_t j = 0; identical && j < pick.size(); ++j) {
      const auto& a = serial.labels[j];
      const auto& b = out.classes.labels[pick[j]];
      identical = a.critical == b.critical && a.prediction_changes == b.prediction_changes &&
                  a.accuracy_drop == b.accuracy_drop;
    }
    ledger.gate(identical, model.name + ": labels differ at num_threads=1");
  }

  void replay(Model& model, Ledger& ledger) {
    ModelOutput& out = out_[model.index];
    const snn::Network& net = model.bundle.network;
    ++ledger.attempted;
    std::optional<coverage::FaultDictionary> dict;
    {
      Scope span(tracer_, "coverage.load." + model.name);
      dict = coverage::FaultDictionary::load(replay_path(opt_, model.index, ".snfd"));
    }
    if (!dict) return ledger.gate(false, model.name + ": primed dictionary unreadable");

    coverage::IncrementalConfig ic;
    ic.engine = engine_config(opt_);
    ic.engine.detect_only = true;
    bool lookups_only = true;
    {
      Scope span(tracer_, "coverage.warm." + model.name);
      for (size_t s = 0; s < dict->num_stimuli(); ++s) {
        ++ledger.attempted;
        const tensor::Tensor stimulus = dict->stimulus(s).data;
        const auto warm =
            coverage::run_incremental_campaign(net, stimulus, model.faults, *dict, ic);
        lookups_only = lookups_only && !warm.coverage.dictionary_rejected &&
                       warm.campaign.stats.faults_simulated == 0;
      }
    }
    ++ledger.attempted;
    coverage::FaultDictionary schedule_dict;
    {
      Scope span(tracer_, "coverage.minimize." + model.name);
      out.schedule = coverage::minimize_schedule(*dict);
      schedule_dict = coverage::schedule_as_dictionary(*dict, out.schedule);
    }
    coverage::ScheduleReplayConfig rc;
    rc.engine = ic.engine;
    ++ledger.attempted;
    coverage::ScheduleReplayResult replayed;
    {
      Scope span(tracer_, "coverage.replay." + model.name);
      replayed = coverage::replay_schedule(net, schedule_dict, model.faults, rc);
    }
    out.replay_detected = replayed.total_detected;

    std::vector<char> expected(model.faults.size(), 0);
    for (const auto& step : out.schedule.steps) {
      for (size_t f : dict->detected_faults(step.stimulus)) expected[f] = 1;
    }
    std::vector<char> got(model.faults.size(), 0);
    for (size_t f = 0; f < replayed.detected.size() && f < got.size(); ++f) {
      got[f] = replayed.detected[f] ? 1 : 0;
    }
    ledger.gate(lookups_only, model.name + ": warm re-run simulated pairs");
    ledger.gate(got == expected && replayed.detected.size() == model.faults.size(),
                model.name + ": replay detected set differs from the scheduled union");
    ledger.gate(schedule_dict.serialize() == read_file(replay_path(opt_, model.index, ".schedule.snfd")),
                model.name + ": re-minimized schedule differs from the stored one");
    ledger.gate(out.schedule.complete(), model.name + ": schedule is not complete");
  }

  const Options& opt_;
  Tracer& tracer_;
  std::vector<Model>& models_;
  std::vector<ModelOutput> out_;
  std::map<std::string, uint64_t> primed_digests_;
};

// --- per-layer probes (traced runs) -------------------------------------------------

using MetricMap = std::map<std::string, std::pair<double, std::string>>;  // name -> value, unit

/// Calls into each module's public functions at fixed sizes, timed from
/// here, giving every per-layer metric (README.md lists them).
class Probes {
 public:
  Probes(const Options& opt, Tracer& tracer, MetricMap& metrics)
      : opt_(opt), tracer_(tracer), metrics_(metrics) {}

  void run(std::vector<Model>& models, Ledger& ledger) {
    Scope span(tracer_, "probe");
    double save_s = 0, load_s = 0, minimize_s = 0, record_overhead_s = 0, warm_s = 0;
    size_t dict_bytes = 0, warm_pairs = 0, replay_simulated = 0, replay_total = 0;
    for (Model& model : models) {
      const std::string& m = model.name;
      const snn::Network& net = model.bundle.network;
      ++ledger.attempted;
      try {
        core_probe(model);
        snn_probe(model);

        // Campaign stages and their engine statistics, on the campaign sizes.
        const auto faults = stratified_sample(
            model.universe, opt_.sizes.campaign_faults[model.index], model_seed(opt_, 1, model.index));
        auto dict = coverage::make_dictionary(net, faults);
        coverage::IncrementalConfig ic;
        ic.engine = engine_config(opt_);
        double engine_s = 0.0;
        double incremental_s = 0.0;
        {
          Scope s(tracer_, "campaign.table3." + m);
          const auto r = coverage::run_incremental_campaign(net, model.table3, faults, dict, ic);
          const double secs = s.close();
          const auto& st = r.campaign.stats;
          incremental_s += secs;
          engine_s += st.elapsed_seconds;
          put("campaign.table3_s." + m, secs, "s");
          put("campaign.forward_savings." + m, st.forward_savings(), "ratio");
          put("campaign.pruned_frac." + m, ratio(st.faults_pruned, st.faults_simulated), "ratio");
          put("campaign.lane_occupancy." + m,
              ratio(st.lane_batched_faults, st.lane_batches * st.lane_width_effective), "ratio");
          put("campaign.golden_cache_bytes." + m, static_cast<double>(st.golden_cache_bytes),
              "bytes");
        }
        {
          Scope s(tracer_, "campaign.samples." + m);
          for (const auto& sample : model.samples) {
            Scope one(tracer_, "campaign.sample." + m);
            const auto r = coverage::run_incremental_campaign(net, sample, faults, dict, ic);
            incremental_s += one.close();
            engine_s += r.campaign.stats.elapsed_seconds;
          }
          put("campaign.samples_s." + m, s.close(), "s");
        }
        record_overhead_s += incremental_s - engine_s;

        const std::string path = cache_file(opt_, "probe-" + m + ".snfd");
        {
          Scope s(tracer_, "coverage.save." + m);
          dict.save(path);
          save_s += s.close();
        }
        dict_bytes += fs::file_size(path);
        std::optional<coverage::FaultDictionary> loaded;
        {
          Scope s(tracer_, "coverage.load." + m);
          loaded = coverage::FaultDictionary::load(path);
          load_s += s.close();
        }
        if (!loaded) throw std::runtime_error("probe dictionary did not load");
        {
          Scope s(tracer_, "coverage.warm." + m);
          for (size_t k = 0; k < loaded->num_stimuli(); ++k) {
            const tensor::Tensor stimulus = loaded->stimulus(k).data;
            coverage::run_incremental_campaign(net, stimulus, faults, *loaded, ic);
            warm_pairs += faults.size();
          }
          warm_s += s.close();
        }
        coverage::FaultDictionary schedule;
        {
          Scope s(tracer_, "coverage.minimize." + m);
          schedule = coverage::schedule_as_dictionary(*loaded, coverage::minimize_schedule(*loaded));
          minimize_s += s.close();
        }
        {
          Scope s(tracer_, "coverage.replay." + m);
          coverage::ScheduleReplayConfig rc;
          rc.engine = ic.engine;
          const auto r = coverage::replay_schedule(net, schedule, faults, rc);
          put("coverage.replay_s." + m, s.close(), "s");
          for (const auto& step : r.steps) {
            replay_simulated += step.faults_simulated;
            replay_total += step.faults_simulated + step.faults_dropped;
          }
        }

        route_probe(model, faults);
        label_probe(model);
      } catch (const std::exception& e) {
        ++ledger.failed;
        std::fprintf(stderr, "probe/%s: %s\n", m.c_str(), e.what());
      }
    }
    put("coverage.record_overhead_s", record_overhead_s, "s");
    put("coverage.save_s", save_s, "s");
    put("coverage.load_s", load_s, "s");
    put("coverage.dict_bytes", static_cast<double>(dict_bytes), "bytes");
    put("coverage.warm_pairs_per_s", warm_s > 0 ? static_cast<double>(warm_pairs) / warm_s : 0.0,
        "1/s");
    put("coverage.minimize_s", minimize_s, "s");
    put("coverage.replay_simulated_frac", ratio(replay_simulated, replay_total), "ratio");
  }

 private:
  static double ratio(size_t num, size_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  }
  void put(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }

  void core_probe(Model& model) {
    const std::string& m = model.name;
    core::TestGenConfig cfg = generate_config(opt_, model);
    // The T_in search as generate() runs it, started at the Table III
    // duration so it costs one candidate window.
    cfg.t_in_min = 0;
    cfg.t_in_start = model.table3_t_in_min;
    {
      Scope s(tracer_, "core.min_duration." + m);
      util::Rng rng(cfg.seed);
      core::TestGenerator::find_min_input_duration(model.bundle.network, cfg, rng);
      put("core.min_duration_s." + m, s.close(), "s");
    }
    cfg = generate_config(opt_, model);
    Scope s(tracer_, "core.generate." + m);
    core::TestGenerator generator(model.bundle.network, cfg);
    const auto report = generator.generate();
    put("core.generate_s." + m, s.close(), "s");
    put("core.iterations." + m, static_cast<double>(report.iterations.size()), "count");
    put("core.stimulus_steps." + m, static_cast<double>(report.stimulus.total_steps()), "steps");
  }

  /// Layer::forward_into / backward of every layer on its golden input
  /// under the Table III stimulus (median of repeated calls).
  void snn_probe(Model& model) {
    constexpr int kReps = 5;
    snn::Network net = model.bundle.network;
    net.set_kernel_mode(snn::KernelMode::kAuto);
    const auto golden = net.forward(model.table3);
    for (size_t l = 0; l < net.num_layers(); ++l) {
      const std::string key = model.name + ".L" + std::to_string(l + 1);
      const tensor::Tensor& in = l == 0 ? model.table3 : golden.layer_outputs[l - 1];
      auto layer = net.layer(l).clone();
      layer->set_kernel_mode(snn::KernelMode::kAuto);
      tensor::Tensor out;
      std::vector<double> fwd, bwd;
      for (int r = 0; r < kReps; ++r) {
        Scope s(tracer_, "snn.fwd." + key);
        layer->forward_into(in, false, out);
        fwd.push_back(s.close());
      }
      const tensor::Tensor grad(out.shape(), 1.0f);
      for (int r = 0; r < kReps; ++r) {
        layer->forward_into(in, true, out);
        Scope s(tracer_, "snn.bwd." + key);
        layer->backward(grad);
        bwd.push_back(s.close());
      }
      put("snn.fwd_s." + key, median(fwd), "s");
      put("snn.bwd_s." + key, median(bwd), "s");
      put("snn.in_density." + key,
          in.numel() == 0 ? 0.0 : static_cast<double>(in.count_nonzero()) /
                                      static_cast<double>(in.numel()),
          "ratio");
    }
  }

  /// One fault sample through each simulation route, then per fault layer.
  void route_probe(Model& model, const std::vector<fault::FaultDescriptor>& faults) {
    const std::string& m = model.name;
    const snn::Network& net = model.bundle.network;
    auto route = [&](const char* name, campaign::EngineConfig cfg) {
      Scope s(tracer_, std::string("campaign.route_") + name + "." + m);
      const auto r = campaign::run_campaign(net, model.table3, faults, cfg);
      put(std::string("campaign.route_") + name + "_s." + m, s.close(), "s");
      return r.stats;
    };
    campaign::EngineConfig scalar = engine_config(opt_);
    scalar.lane_width = 1;
    route("scalar", scalar);
    route("lane", engine_config(opt_));
    campaign::EngineConfig frontier = engine_config(opt_);
    frontier.frontier = true;
    const auto st = route("frontier", frontier);
    put("campaign.frontier_recompute_frac." + m,
        ratio(st.frontier_neuron_updates, st.frontier_neuron_updates_dense), "ratio");

    for (size_t l = 0; l < net.num_layers(); ++l) {
      std::vector<fault::FaultDescriptor> layer_faults;
      for (const auto& f : faults) {
        if (campaign::fault_layer(f) == l) layer_faults.push_back(f);
      }
      const std::string key = m + ".L" + std::to_string(l + 1);
      Scope s(tracer_, "campaign.layer." + key);
      campaign::run_campaign(net, model.table3, layer_faults, engine_config(opt_));
      const double secs = s.close();
      put("campaign.us_per_fault." + key,
          layer_faults.empty() ? 0.0 : secs * 1e6 / static_cast<double>(layer_faults.size()), "us");
    }
  }

  void label_probe(Model& model) {
    const std::string& m = model.name;
    const auto faults = stratified_sample(model.universe, opt_.sizes.label_faults[model.index],
                                          model_seed(opt_, 1, model.index));
    fault::ClassifierConfig cc;
    cc.max_samples = model.label_set->size();
    cc.num_threads = opt_.threads;
    Scope s(tracer_, "fault.classify." + m);
    const auto classes = fault::classify_faults(model.bundle.network, faults, *model.label_set, cc);
    put("fault.classify_s." + m, s.close(), "s");
    put("fault.critical." + m, ratio(classes.critical_count(), faults.size()), "ratio");
  }

  const Options& opt_;
  Tracer& tracer_;
  MetricMap& metrics_;
};

// --- reporting ----------------------------------------------------------------

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string metrics_json(const MetricMap& metrics) {
  std::string out = "{";
  for (const auto& [name, vu] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + util::json_escape(name) + "\": {\"value\": " + fmt(vu.first) +
           ", \"unit\": \"" + util::json_escape(vu.second) + "\"}";
  }
  return out + "}";
}

/// "median (pXX=..., n=N)" — the tail percentile only where ten samples
/// lie beyond it.
std::string timing_summary(const std::vector<double>& v) {
  const auto [p, value] = bench::tail_percentile(v);
  std::string out = fmt(median(v)) + " s (";
  if (p > 0) out += "p" + fmt(p) + "=" + fmt(value) + " s, ";
  return out + "n=" + std::to_string(v.size()) + ")";
}

void print_span_table(const Tracer& tracer) {
  auto stats = tracer.by_name();
  std::vector<std::pair<std::string, Tracer::NameStats>> rows(stats.begin(), stats.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.self_s > b.second.self_s; });
  std::printf("\nspans by self time (n calls; per call: median, tail percentile)\n");
  std::printf("  %-40s %8s %10s %10s  %s\n", "span", "self_s", "total_s", "n", "per call");
  for (const auto& [name, st] : rows) {
    std::printf("  %-40s %8.4f %10.4f %10zu  %s\n", name.c_str(), st.self_s, st.total_s, st.calls,
                timing_summary(st.call_s).c_str());
  }
}

int run(const util::CliParser& cli) {
  Options opt;
  const std::string workload = cli.get("workload");
  const auto it = std::find(kWorkloadNames.begin(), kWorkloadNames.end(), workload);
  if (it == kWorkloadNames.end()) {
    throw std::invalid_argument("--workload must be generate|campaign|label|replay, got '" +
                                workload + "'");
  }
  opt.workload = static_cast<Workload>(it - kWorkloadNames.begin());
  opt.seed = static_cast<uint64_t>(cli.get_size("seed"));
  opt.seconds = cli.get_double("seconds");
  opt.threads = std::max<size_t>(1, cli.get_size("threads"));
  opt.trace_path = cli.get("trace");
  const bool smoke = cli.get_bool("smoke");
  opt.sizes = smoke ? smoke_sizes() : Sizes{};
  opt.cache_dir = cli.get("cache-dir");

  // The library's own telemetry stays off: every span here is the
  // benchmark's, around public calls.
  obs::set_telemetry_enabled(false);

  // --smoke primes a throwaway cache and removes it at exit.
  std::string smoke_dir;
  if (smoke) {
    std::string tmpl = (fs::temp_directory_path() / "bench_pipeline_smoke_XXXXXX").string();
    if (mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
    smoke_dir = opt.cache_dir = tmpl;
  }
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      if (!dir.empty()) fs::remove_all(dir, ec);
    }
  } cleanup{smoke_dir};

  const double prime_s = prime(opt);
  std::printf("bench_pipeline workload=%s seed=%llu threads=%zu%s\n", workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.threads, smoke ? " (smoke)" : "");
  std::printf("prime_s=%.3f (info: cache %s)\n", prime_s, opt.cache_dir.c_str());
  if (cli.get_bool("prime-only")) return 0;

  const bool traced = !opt.trace_path.empty();
  Tracer tracer;
  tracer.set_workload(opt.workload);
  tracer.set_enabled(traced);

  // Set-up, several times; setup_s is the median.
  constexpr int kSetupReps = 3;
  std::vector<Timed> setups;
  std::vector<double> load_s, enumerate_s;
  std::vector<Model> models;
  for (int r = 0; r < kSetupReps; ++r) {
    SetupTimes times;
    models.clear();
    setups.push_back(timed(opt.threads, [&] { models = setup(opt, tracer, times); }));
    load_s.push_back(times.load_s);
    enumerate_s.push_back(times.enumerate_s);
  }

  Ledger ledger;
  Workloads workloads(opt, tracer, models);

  // Measured passes, each model timed on its own; the medians absorb the
  // first pass' cold caches. A traced run alternates untraced and traced
  // passes, so the two give the tracing overhead.
  std::vector<std::vector<Timed>> ops(kModels), traced_ops(kModels);
  const size_t min_passes = traced ? 4 : 3;
  size_t passes = 0;
  for (util::Timer window; window.seconds() < opt.seconds || passes < min_passes; ++passes) {
    const bool trace_this = traced && passes % 2 == 1;
    tracer.set_enabled(trace_this);
    const auto timings = workloads.pass(ledger);
    for (size_t m = 0; m < kModels; ++m) (trace_this ? traced_ops : ops)[m].push_back(timings[m]);
  }
  tracer.set_enabled(false);
  util::Timer gate_timer;
  workloads.gates(ledger);
  const double gates_s = gate_timer.seconds();

  // A pass is the sum over the models of each model's median.
  auto pass_of = [](const std::vector<std::vector<Timed>>& per_model, auto get) {
    double total = 0.0;
    for (const auto& runs : per_model) {
      std::vector<double> v;
      for (const Timed& t : runs) v.push_back(std::invoke(get, t));
      total += median(v);
    }
    return total;
  };
  auto raw_wall = [](const std::vector<Timed>& runs) {
    std::vector<double> v;
    for (const Timed& t : runs) v.push_back(t.wall);
    return v;
  };
  std::vector<double> setup_ref, setup_raw, yardstick;
  for (const Timed& t : setups) {
    setup_ref.push_back(t.wall_ref());
    setup_raw.push_back(t.wall);
  }
  for (const auto& runs : ops) {
    for (const Timed& t : runs) yardstick.push_back(t.yardstick);
  }

  MetricMap metrics;
  if (traced) {
    tracer.set_enabled(true);
    Probes(opt, tracer, metrics).run(models, ledger);
    tracer.set_enabled(false);
    metrics["zoo.load_s"] = {median(load_s), "s"};
    metrics["fault.enumerate_s"] = {median(enumerate_s), "s"};
    metrics["obs.trace_overhead_frac"] = {
        pass_of(traced_ops, &Timed::wall_ref) / pass_of(ops, &Timed::wall_ref) - 1.0, "ratio"};
    if (!tracer.write_chrome(opt.trace_path, kWorkloadNames)) {
      std::fprintf(stderr, "cannot write trace %s\n", opt.trace_path.c_str());
      ++ledger.failed;
    }
  } else {
    metrics["setup_s"] = {median(setup_ref), "s"};
    metrics["pass_s"] = {pass_of(ops, &Timed::wall_ref), "s"};
    metrics["cpu_s"] = {pass_of(ops, &Timed::cpu_ref), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  }

  // Human-readable report: timings at the reference speed and as measured,
  // each with its spread, then the exact outputs.
  std::printf("times in reference seconds (yardstick %s; as measured in brackets)\n",
              timing_summary(yardstick).c_str());
  std::printf("setup_s   %s [%s]\n", timing_summary(setup_ref).c_str(), fmt(median(setup_raw)).c_str());
  std::printf("pass_s    %s [%s] over %zu passes\n", fmt(pass_of(ops, &Timed::wall_ref)).c_str(),
              fmt(pass_of(ops, &Timed::wall)).c_str(), ops[0].size());
  std::printf("cpu_s     %s [%s]\n", fmt(pass_of(ops, &Timed::cpu_ref)).c_str(),
              fmt(pass_of(ops, &Timed::cpu)).c_str());
  if (traced) {
    std::printf("traced pass_s %s over %zu passes\n",
                fmt(pass_of(traced_ops, &Timed::wall_ref)).c_str(), traced_ops[0].size());
  }
  std::printf("peak_rss_mb %.1f MB\ngates_s %.3f s (info)\n", peak_rss_mb(), gates_s);
  std::map<std::string, double> quality;
  const auto& outs = workloads.outputs();
  for (size_t m = 0; m < kModels; ++m) {
    const std::string& name = models[m].name;
    const ModelOutput& o = outs[m];
    std::vector<double> ref;
    for (const Timed& t : ops[m]) ref.push_back(t.wall_ref());
    std::printf("  %-8s %s [%s]", name.c_str(), timing_summary(ref).c_str(),
                fmt(median(raw_wall(ops[m]))).c_str());
    if (!models[m].faults.empty()) std::printf(", %zu faults", models[m].faults.size());
    std::printf("\n");
    switch (opt.workload) {
      case kGenerate:
        quality["activated_frac." + name] = o.activated_frac;
        quality["iterations." + name] = static_cast<double>(o.iterations);
        quality["stimulus_steps." + name] = static_cast<double>(o.stimulus_steps);
        break;
      case kCampaign:
        quality["fault_coverage." + name] = o.fault_coverage;
        quality["dict_records." + name] = static_cast<double>(o.records_saved);
        break;
      case kLabel:
        quality["fc_critical." + name] = o.fc_critical;
        quality["critical." + name] = static_cast<double>(o.classes.critical_count());
        break;
      case kReplay:
        quality["test_frames." + name] = static_cast<double>(o.schedule.scheduled_frames);
        quality["detected." + name] = static_cast<double>(o.replay_detected);
        break;
    }
  }
  for (const auto& [name, value] : quality) {
    std::printf("  %-28s %s\n", name.c_str(), fmt(value).c_str());
  }
  if (traced) {
    print_span_table(tracer);
    std::printf("\nper-layer metrics\n");
    for (const auto& [name, vu] : metrics) {
      std::printf("  %-44s %14s %s\n", name.c_str(), fmt(vu.first).c_str(), vu.second.c_str());
    }
  }

  const bool correct = ledger.failed == 0;
  const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(ledger.attempted) +
                             ", \"failed\": " + std::to_string(ledger.failed) +
                             ", \"metrics\": " + metrics_json(metrics) + "}";

  if (const std::string record = cli.get("record"); !record.empty()) {
    std::string q = "{";
    for (const auto& [name, value] : quality) {
      if (q.size() > 1) q += ", ";
      q += "\"" + name + "\": " + fmt(value);
    }
    q += "}";
    std::ofstream out(record, std::ios::app);
    out << "{\"schema\": \"bench_pipeline/1\", \"workload\": \"" << workload
        << "\", \"seed\": " << opt.seed << ", \"seconds\": " << fmt(opt.seconds)
        << ", \"traced\": " << (traced ? "true" : "false") << ", \"result\": " << result
        << ", \"quality\": " << q << ", \"info\": {\"prime_s\": " << fmt(prime_s)
        << ", \"passes\": " << passes << ", \"threads\": " << opt.threads
        << ", \"yardstick_s\": " << fmt(median(yardstick))
        << ", \"raw_setup_s\": " << fmt(median(setup_raw))
        << ", \"raw_pass_s\": " << fmt(pass_of(ops, &Timed::wall))
        << ", \"raw_cpu_s\": " << fmt(pass_of(ops, &Timed::cpu)) << ", \"model_pass_s\": {";
    for (size_t m = 0; m < kModels; ++m) {
      out << (m ? ", " : "") << "\"" << models[m].name << "\": "
          << fmt(pass_of({ops[m]}, &Timed::wall_ref));
    }
    out << "}"
        << "}, \"provenance\": {\"simd_backend\": \""
        << tensor::simd::backend_name(tensor::simd::active_backend())
        << "\", \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ", \"git_sha\": \"" << util::json_escape(cli.get("git-sha")) << "\"}}\n";
  }

  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli({{"workload", ""},
                       {"seed", "1"},
                       {"seconds", "15"},
                       {"threads", "2"},
                       {"trace", ""},
                       {"cache-dir", "bench_cache"},
                       {"prime-only", "0"},
                       {"smoke", "0"},
                       {"record", ""},
                       {"git-sha", "unknown"}},
                      "The paper's pipeline on the three zoo models as one named workload.");
  try {
    if (!cli.parse(argc, argv)) return 0;
    // One malloc arena: with per-thread arenas the peak RSS depends on
    // which worker thread freed what first, and drifts by 10% run to run.
    mallopt(M_ARENA_MAX, 1);
    util::set_log_level(util::LogLevel::kWarn);
    return run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
