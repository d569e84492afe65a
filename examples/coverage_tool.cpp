// Coverage-database workbench: build, merge, query, minimize and report on
// persistent fault dictionaries (src/coverage, DESIGN.md §13).
//
//   coverage_tool build       --dict d.snfd [--benchmark nmnist] [--stimuli 8]
//                             [--stimulus-file stim.bin] [--fault-sample 2000]
//   coverage_tool orchestrate --dict d.snfd --shards 4 [--work-dir DIR]
//                             [build flags] [--chaos-crash-after N]
//   coverage_tool run-shard   --job j.bin --work-dir DIR --shard I --num-shards N
//   coverage_tool status      --work-dir DIR [--json 1]
//   coverage_tool merge       --out merged.snfd --inputs a.snfd,b.snfd
//   coverage_tool query       --dict d.snfd [--fault 17] [--stimulus 2]
//   coverage_tool minimize    --dict d.snfd [--out schedule.snfd] [--json r.json]
//   coverage_tool replay      --dict schedule.snfd [--frontier 1] [--json r.json]
//   coverage_tool report      --dict d.snfd [--json r.json]
//
// `build` is incremental: pairs the dictionary already holds are served as
// lookups (zero simulations on a warm re-run), only missing pairs simulate.
// `orchestrate` is `build` fanned out across worker processes (one per
// fault-universe shard, DESIGN.md §15) with crash recovery: the resulting
// dictionary file is byte-identical to what a single-process `build` of the
// same inputs writes. `run-shard` is the worker entry point it re-execs.
// `minimize` runs the lazy-greedy minimum-time set cover and can export the
// schedule as a self-contained, schedule_ordered dictionary that
// examples/infield_test --dict (or `replay` below) replays. `replay`
// executes such a schedule in file order against the live model, dropping
// every fault an earlier stimulus already detected — the minimum-time
// in-field loop; --frontier runs each step through the divergence-frontier
// engine (DESIGN.md §17). `status` reads a live or finished sharded
// campaign's work directory from ANOTHER process and prints each shard's
// progress: committed, partial (records in its snapshot) or not started
// (DESIGN.md §16).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/orchestrator.hpp"
#include "campaign/shard_worker.hpp"
#include "core/test_stimulus.hpp"
#include "coverage/incremental.hpp"
#include "coverage/minimize.hpp"
#include "fault/registry.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/subprocess.hpp"
#include "zoo/model_zoo.hpp"

using namespace snntest;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: coverage_tool <build|orchestrate|run-shard|status|merge|query|minimize"
               "|replay|report> [--flags]\n"
               "       coverage_tool <subcommand> --help for per-subcommand flags\n");
  return 1;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    const std::string item = s.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

coverage::FaultDictionary load_or_die(const std::string& path) {
  coverage::FaultDictionary::LoadStats stats;
  auto dict = coverage::FaultDictionary::load(path, &stats);
  if (!dict) {
    std::fprintf(stderr, "error: cannot load dictionary %s\n", path.c_str());
    std::exit(1);
  }
  if (stats.records_skipped > 0) {
    std::printf("note: %zu damaged record(s) skipped while loading %s\n", stats.records_skipped,
                path.c_str());
  }
  return std::move(*dict);
}

void print_schedule(const coverage::TestSchedule& schedule,
                    const coverage::FaultDictionary& dict) {
  util::TextTable table({"#", "stimulus", "frames", "new faults", "coverage", "cum. frames"});
  for (size_t i = 0; i < schedule.steps.size(); ++i) {
    const auto& step = schedule.steps[i];
    table.add_row({std::to_string(i), dict.stimulus(step.stimulus).name,
                   std::to_string(step.frames), std::to_string(step.new_faults),
                   util::fmt_pct(schedule.detectable_faults == 0
                                     ? 1.0
                                     : static_cast<double>(step.cumulative_detected) /
                                           static_cast<double>(schedule.detectable_faults)),
                   std::to_string(step.cumulative_frames)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("covered %zu/%zu detectable faults (universe %zu) in %llu frames;"
              " replaying all %zu stimuli costs %llu frames (%s of it scheduled)\n",
              schedule.covered_faults, schedule.detectable_faults, schedule.num_faults,
              static_cast<unsigned long long>(schedule.scheduled_frames), dict.num_stimuli(),
              static_cast<unsigned long long>(schedule.all_stimuli_frames),
              util::fmt_pct(schedule.all_stimuli_frames == 0
                                ? 0.0
                                : static_cast<double>(schedule.scheduled_frames) /
                                      static_cast<double>(schedule.all_stimuli_frames))
                  .c_str());
}

void write_schedule_json(const std::string& path, const coverage::TestSchedule& schedule,
                         const coverage::FaultDictionary& dict) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write JSON to %s\n", path.c_str());
    return;
  }
  char buf[64];
  out << "{\"num_faults\":" << schedule.num_faults
      << ",\"detectable_faults\":" << schedule.detectable_faults
      << ",\"covered_faults\":" << schedule.covered_faults
      << ",\"scheduled_frames\":" << schedule.scheduled_frames
      << ",\"all_stimuli_frames\":" << schedule.all_stimuli_frames;
  std::snprintf(buf, sizeof(buf), "%.17g", schedule.coverage_of_detectable());
  out << ",\"coverage_of_detectable\":" << buf << ",\"complete\":"
      << (schedule.complete() ? "true" : "false") << ",\"steps\":[";
  for (size_t i = 0; i < schedule.steps.size(); ++i) {
    const auto& step = schedule.steps[i];
    if (i) out << ",";
    out << "{\"stimulus\":\"" << util::json_escape(dict.stimulus(step.stimulus).name)
        << "\",\"frames\":" << step.frames << ",\"new_faults\":" << step.new_faults
        << ",\"cumulative_detected\":" << step.cumulative_detected
        << ",\"cumulative_frames\":" << step.cumulative_frames << "}";
  }
  out << "]}\n";
  std::printf("JSON: %s\n", path.c_str());
}

int cmd_build(int argc, char** argv) {
  util::CliParser cli({{"dict", "coverage.snfd"},
                       {"benchmark", "nmnist"},
                       {"train-budget", "1.0"},
                       {"stimuli", "8"},
                       {"stimulus-file", ""},
                       {"fault-sample", "2000"},
                       {"threads", "0"},
                       {"lane-width", "8"},
                       {"threshold", "0"},
                       {"detect-only", "0"},
                       {"frontier", "0"},
                       {"frontier-threshold", "0.5"},
                       {"golden-cache-budget", "0"},
                       {"trace-out", ""},
                       {"metrics-out", ""}},
                      "Build or incrementally extend a fault dictionary.");
  if (!cli.parse(argc, argv)) return 0;
  obs::configure(cli.get("trace-out"), cli.get("metrics-out"));

  const auto id = zoo::parse_benchmark(cli.get("benchmark"));
  zoo::ZooOptions zoo_opts;
  zoo_opts.train_budget = cli.get_double("train-budget");
  auto bundle = zoo::load_or_train(id, zoo_opts);
  auto& net = bundle.network;

  auto universe = fault::enumerate_faults(net);
  util::Rng sample_rng(99);
  const size_t sample_size = cli.get_size("fault-sample");
  auto faults = sample_size != 0 && universe.size() > sample_size
                    ? fault::sample_faults(universe, sample_size, sample_rng)
                    : universe;
  std::printf("model %s; fault universe %zu, simulating %zu\n", net.name().c_str(),
              universe.size(), faults.size());

  campaign::EngineConfig engine;
  engine.num_threads = cli.get_size("threads");
  engine.lane_width = cli.get_size("lane-width");
  engine.detection_threshold = cli.get_double("threshold");
  engine.detect_only = cli.get_bool("detect-only");
  engine.frontier = cli.get_bool("frontier");
  engine.frontier_threshold = cli.get_double("frontier-threshold");
  engine.golden_cache_budget_bytes = cli.get_size("golden-cache-budget");

  const std::string dict_path = cli.get("dict");
  coverage::FaultDictionary dict =
      coverage::make_dictionary(net, faults, engine.detection_threshold, engine.detect_only);
  if (std::filesystem::exists(dict_path)) {
    coverage::FaultDictionary::LoadStats stats;
    if (auto existing = coverage::FaultDictionary::load(dict_path, &stats)) {
      if (existing->compatible_with(dict)) {
        dict = std::move(*existing);
        std::printf("extending %s: %zu stimuli, %zu records already present"
                    " (%zu damaged record(s) skipped)\n",
                    dict_path.c_str(), dict.num_stimuli(), dict.num_records(),
                    stats.records_skipped);
      } else {
        std::printf("existing %s is for a different model/universe/settings; starting fresh\n",
                    dict_path.c_str());
      }
    } else {
      std::printf("existing %s unreadable; starting fresh\n", dict_path.c_str());
    }
  }

  // Stimulus sources: dataset test samples, plus the chunks of an optimized
  // TestStimulus when one is given.
  struct Source {
    std::string name;
    tensor::Tensor input;
  };
  std::vector<Source> sources;
  const size_t num_samples = cli.get_size("stimuli");
  for (size_t i = 0; i < num_samples; ++i) {
    const auto sample = bundle.test->get(i);
    sources.push_back({"sample" + std::to_string(i), sample.input});
  }
  const std::string stim_path = cli.get("stimulus-file");
  if (!stim_path.empty()) {
    const auto stored = core::TestStimulus::load(stim_path);
    for (size_t j = 0; j < stored.num_chunks(); ++j) {
      sources.push_back({"chunk" + std::to_string(j), stored.chunk(j)});
    }
  }

  util::TextTable table({"stimulus", "frames", "detected", "reused", "simulated"});
  size_t total_reused = 0, total_recorded = 0;
  for (const Source& src : sources) {
    coverage::IncrementalConfig config;
    config.engine = engine;
    config.stimulus_name = src.name;
    const auto out = coverage::run_incremental_campaign(net, src.input, faults, dict, config);
    total_reused += out.coverage.pairs_reused;
    total_recorded += out.coverage.pairs_recorded;
    table.add_row({src.name, std::to_string(src.input.shape().dim(0)),
                   std::to_string(out.campaign.detected_count()),
                   std::to_string(out.coverage.pairs_reused),
                   std::to_string(out.coverage.pairs_recorded)});
  }
  std::printf("%s\n", table.render().c_str());

  dict.save(dict_path);
  std::printf("dictionary %s: %zu stimuli, %zu records, %zu/%llu faults detectable"
              " (%zu pairs reused, %zu simulated this run)\n",
              dict_path.c_str(), dict.num_stimuli(), dict.num_records(), dict.detectable_count(),
              static_cast<unsigned long long>(dict.num_faults), total_reused, total_recorded);
  return 0;
}

int cmd_run_shard(int argc, char** argv) {
  util::CliParser cli({{"job", ""},
                       {"work-dir", "."},
                       {"shard", "0"},
                       {"num-shards", "1"},
                       {"flush-every", "16"},
                       {"chaos-crash-after", "0"},
                       {"chaos-hang-after", "0"}},
                      "Shard worker (internal: launched by `orchestrate`). Runs one fault-\n"
                      "universe shard of the job file and commits shard_<i>.snfd atomically.");
  if (!cli.parse(argc, argv)) return 0;
  campaign::ShardWorkerOptions opts;
  opts.job_path = cli.get("job");
  opts.work_dir = cli.get("work-dir");
  opts.shard_index = cli.get_size("shard");
  opts.num_shards = cli.get_size("num-shards");
  opts.flush_every = cli.get_size("flush-every");
  opts.crash_after = cli.get_size("chaos-crash-after");
  opts.hang_after = cli.get_size("chaos-hang-after");
  return campaign::run_shard_worker(opts);
}

/// Campaign directories under `root`: the root itself when it holds a
/// job.bin, else its immediate subdirectories that do (orchestrate runs one
/// campaign per stimulus under --work-dir/<stimulus>).
std::vector<std::string> find_campaign_dirs(const std::string& root) {
  const auto is_campaign = [](const std::string& dir) {
    return std::filesystem::exists(dir + "/job.bin");
  };
  if (is_campaign(root)) return {root};
  std::vector<std::string> dirs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
    if (entry.is_directory(ec) && is_campaign(entry.path().string())) {
      dirs.push_back(entry.path().string());
    }
  }
  std::sort(dirs.begin(), dirs.end());
  return dirs;
}

const char* state_name(campaign::ShardProgress::State state) {
  switch (state) {
    case campaign::ShardProgress::State::kCommitted:
      return "committed";
    case campaign::ShardProgress::State::kPartial:
      return "partial";
    case campaign::ShardProgress::State::kNotStarted:
      break;
  }
  return "not started";
}

int cmd_status(int argc, char** argv) {
  util::CliParser cli({{"work-dir", "orchestrate.work"}, {"json", "0"}},
                      "Progress of a live or finished sharded campaign, read from its work\n"
                      "directory: each shard is committed (final .snfd present), partial\n"
                      "(records in its partial snapshot out of its range) or not started.\n"
                      "--json 1 prints the same as one JSON document.");
  if (!cli.parse(argc, argv)) return 0;
  const std::string root = cli.get("work-dir");
  const bool as_json = cli.get_bool("json");
  const std::vector<std::string> dirs = find_campaign_dirs(root);
  if (dirs.empty()) {
    std::fprintf(stderr, "error: no campaign (job.bin) under %s\n", root.c_str());
    return 1;
  }

  std::string out = as_json ? "{\"campaigns\":[" : "";
  for (size_t d = 0; d < dirs.size(); ++d) {
    const auto shards = campaign::read_shard_progress(dirs[d]);
    size_t done = 0, faults = 0, committed = 0;
    std::string rows;
    for (size_t i = 0; i < shards.size(); ++i) {
      const campaign::ShardProgress& p = shards[i];
      done += p.done;
      faults += p.faults;
      if (p.state == campaign::ShardProgress::State::kCommitted) ++committed;
      const char* state = state_name(p.state);
      if (as_json) {
        rows += std::string(i ? "," : "") + "{\"state\":\"" + state +
                "\",\"done\":" + std::to_string(p.done) +
                ",\"faults\":" + std::to_string(p.faults) + "}";
      } else {
        rows += "  shard " + std::to_string(i) + ": " + state + " " + std::to_string(p.done) +
                "/" + std::to_string(p.faults) + "\n";
      }
    }
    if (as_json) {
      out += std::string(d ? "," : "") + "{\"work_dir\":\"" + util::json_escape(dirs[d]) +
             "\",\"shards_committed\":" + std::to_string(committed) +
             ",\"done\":" + std::to_string(done) + ",\"faults\":" + std::to_string(faults) +
             ",\"shards\":[" + rows + "]}";
    } else {
      out += "== " + dirs[d] + " ==\n" + rows + "  " + std::to_string(committed) + "/" +
             std::to_string(shards.size()) + " shards committed, " + std::to_string(done) + "/" +
             std::to_string(faults) + " faults done\n";
    }
  }
  if (as_json) out += "]}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

int cmd_orchestrate(int argc, char** argv) {
  util::CliParser cli({{"dict", "coverage.snfd"},
                       {"benchmark", "nmnist"},
                       {"train-budget", "1.0"},
                       {"stimuli", "8"},
                       {"stimulus-file", ""},
                       {"fault-sample", "2000"},
                       {"threads", "0"},
                       {"lane-width", "8"},
                       {"threshold", "0"},
                       {"detect-only", "0"},
                       {"shards", "2"},
                       {"work-dir", "orchestrate.work"},
                       {"max-retries", "2"},
                       {"heartbeat-timeout", "60"},
                       {"flush-every", "16"},
                       {"chaos-crash-after", "0"},
                       {"chaos-hang-after", "0"},
                       {"trace-out", ""},
                       {"metrics-out", ""}},
                      "Sharded multi-process `build`: the same dictionary, produced by\n"
                      "N crash-isolated worker processes per stimulus (DESIGN.md §15).\n"
                      "--chaos-crash-after/--chaos-hang-after sabotage every shard's FIRST\n"
                      "attempt (recovery drill); retries run clean. Check progress from\n"
                      "another terminal with `coverage_tool status --work-dir ...`.");
  if (!cli.parse(argc, argv)) return 0;
  obs::configure(cli.get("trace-out"), cli.get("metrics-out"));

  const std::string exe = util::current_executable_path();
  if (exe.empty()) {
    std::fprintf(stderr, "error: cannot resolve own executable path for worker re-exec\n");
    return 1;
  }

  const auto id = zoo::parse_benchmark(cli.get("benchmark"));
  zoo::ZooOptions zoo_opts;
  zoo_opts.train_budget = cli.get_double("train-budget");
  auto bundle = zoo::load_or_train(id, zoo_opts);
  auto& net = bundle.network;

  auto universe = fault::enumerate_faults(net);
  util::Rng sample_rng(99);
  const size_t sample_size = cli.get_size("fault-sample");
  auto faults = sample_size != 0 && universe.size() > sample_size
                    ? fault::sample_faults(universe, sample_size, sample_rng)
                    : universe;
  std::printf("model %s; fault universe %zu, simulating %zu across %zu shard processes\n",
              net.name().c_str(), universe.size(), faults.size(), cli.get_size("shards"));
  std::printf("monitor: coverage_tool status --work-dir %s\n",
              cli.get("work-dir").c_str());

  campaign::EngineConfig engine;
  engine.num_threads = cli.get_size("threads");
  engine.lane_width = cli.get_size("lane-width");
  engine.detection_threshold = cli.get_double("threshold");
  engine.detect_only = cli.get_bool("detect-only");

  const std::string dict_path = cli.get("dict");
  coverage::FaultDictionary dict =
      coverage::make_dictionary(net, faults, engine.detection_threshold, engine.detect_only);
  if (std::filesystem::exists(dict_path)) {
    if (auto existing = coverage::FaultDictionary::load(dict_path)) {
      if (existing->compatible_with(dict)) {
        dict = std::move(*existing);
        std::printf("extending %s: %zu stimuli, %zu records already present\n", dict_path.c_str(),
                    dict.num_stimuli(), dict.num_records());
      } else {
        std::printf("existing %s is for a different model/universe/settings; starting fresh\n",
                    dict_path.c_str());
      }
    }
  }

  struct Source {
    std::string name;
    tensor::Tensor input;
  };
  std::vector<Source> sources;
  const size_t num_samples = cli.get_size("stimuli");
  for (size_t i = 0; i < num_samples; ++i) {
    const auto sample = bundle.test->get(i);
    sources.push_back({"sample" + std::to_string(i), sample.input});
  }
  const std::string stim_path = cli.get("stimulus-file");
  if (!stim_path.empty()) {
    const auto stored = core::TestStimulus::load(stim_path);
    for (size_t j = 0; j < stored.num_chunks(); ++j) {
      sources.push_back({"chunk" + std::to_string(j), stored.chunk(j)});
    }
  }

  campaign::OrchestratorConfig ocfg;
  ocfg.num_shards = cli.get_size("shards");
  ocfg.max_retries = cli.get_size("max-retries");
  ocfg.heartbeat_timeout_seconds = cli.get_double("heartbeat-timeout");
  ocfg.flush_every = cli.get_size("flush-every");
  const size_t crash_after = cli.get_size("chaos-crash-after");
  const size_t hang_after = cli.get_size("chaos-hang-after");
  ocfg.worker_command = [&](const campaign::ShardLaunch& launch) {
    auto cmd = campaign::default_worker_command(launch, exe);
    if (launch.attempt == 0 && crash_after > 0) {
      cmd.push_back("--chaos-crash-after");
      cmd.push_back(std::to_string(crash_after));
    }
    if (launch.attempt == 0 && hang_after > 0) {
      cmd.push_back("--chaos-hang-after");
      cmd.push_back(std::to_string(hang_after));
    }
    return cmd;
  };

  util::TextTable table({"stimulus", "frames", "attempts", "reused", "simulated"});
  for (const Source& src : sources) {
    campaign::ShardJob job;
    job.net = net;
    job.stimulus = src.input;
    job.faults = faults;
    job.engine = engine;
    job.stimulus_name = src.name;
    ocfg.work_dir = cli.get("work-dir") + "/" + src.name;

    const auto run = campaign::run_sharded_campaign(job, ocfg);
    if (!run.completed) {
      std::fprintf(stderr, "error: stimulus %s: shard abandoned after retry exhaustion"
                           " (see %s/shard_*.log)\n",
                   src.name.c_str(), ocfg.work_dir.c_str());
      return 1;
    }
    uint64_t reused = 0, recorded = 0;
    for (const auto& shard : run.shards) {
      reused += shard.stats.pairs_reused;
      recorded += shard.stats.pairs_recorded;
    }
    dict.merge(run.merged);
    table.add_row({src.name, std::to_string(src.input.shape().dim(0)),
                   std::to_string(run.total_attempts()), std::to_string(reused),
                   std::to_string(recorded)});
  }
  std::printf("%s\n", table.render().c_str());

  dict.save(dict_path);
  std::printf("dictionary %s: %zu stimuli, %zu records, %zu/%llu faults detectable\n",
              dict_path.c_str(), dict.num_stimuli(), dict.num_records(), dict.detectable_count(),
              static_cast<unsigned long long>(dict.num_faults));
  return 0;
}

int cmd_merge(int argc, char** argv) {
  util::CliParser cli({{"out", "merged.snfd"}, {"inputs", ""}},
                      "Merge dictionaries (comma-separated --inputs) into --out.");
  if (!cli.parse(argc, argv)) return 0;
  const auto inputs = split_csv(cli.get("inputs"));
  if (inputs.empty()) {
    std::fprintf(stderr, "error: merge needs --inputs a.snfd,b.snfd,...\n");
    return 1;
  }
  coverage::FaultDictionary merged = load_or_die(inputs[0]);
  for (size_t i = 1; i < inputs.size(); ++i) {
    const coverage::FaultDictionary next = load_or_die(inputs[i]);
    try {
      const auto stats = merged.merge(next);
      std::printf("%s: +%zu records, +%zu stimuli, %zu duplicates, %zu conflicts skipped\n",
                  inputs[i].c_str(), stats.records_added, stats.stimuli_added,
                  stats.duplicates_agreeing, stats.conflicts_skipped);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s: %s\n", inputs[i].c_str(), e.what());
      return 1;
    }
  }
  merged.save(cli.get("out"));
  std::printf("merged %zu file(s) -> %s: %zu stimuli, %zu records\n", inputs.size(),
              cli.get("out").c_str(), merged.num_stimuli(), merged.num_records());
  return 0;
}

int cmd_query(int argc, char** argv) {
  util::CliParser cli({{"dict", "coverage.snfd"}, {"fault", "-1"}, {"stimulus", "-1"}},
                      "Query a dictionary: per-stimulus rows, one fault, or one stimulus.");
  if (!cli.parse(argc, argv)) return 0;
  const coverage::FaultDictionary dict = load_or_die(cli.get("dict"));

  const int fault_idx = cli.get_int("fault");
  if (fault_idx >= 0) {
    if (static_cast<uint64_t>(fault_idx) >= dict.num_faults) {
      std::fprintf(stderr, "error: fault %d out of range (universe %llu)\n", fault_idx,
                   static_cast<unsigned long long>(dict.num_faults));
      return 1;
    }
    std::printf("stimuli detecting fault %d:\n", fault_idx);
    size_t hits = 0;
    for (size_t s = 0; s < dict.num_stimuli(); ++s) {
      const auto* r = dict.lookup(s, static_cast<size_t>(fault_idx));
      if (r == nullptr || !r->detected) continue;
      ++hits;
      std::printf("  %-16s first frame %lld, L1 %.17g\n", dict.stimulus(s).name.c_str(),
                  static_cast<long long>(r->first_detection_frame), r->output_l1);
    }
    if (hits == 0) std::printf("  (none — undetectable by the recorded stimuli)\n");
    return 0;
  }

  const int stim_idx = cli.get_int("stimulus");
  if (stim_idx >= 0) {
    if (static_cast<size_t>(stim_idx) >= dict.num_stimuli()) {
      std::fprintf(stderr, "error: stimulus %d out of range (%zu stimuli)\n", stim_idx,
                   dict.num_stimuli());
      return 1;
    }
    const auto detected = dict.detected_faults(static_cast<size_t>(stim_idx));
    std::printf("%s: %zu records, %zu detected faults\n",
                dict.stimulus(static_cast<size_t>(stim_idx)).name.c_str(),
                dict.records_for(static_cast<size_t>(stim_idx)), detected.size());
    return 0;
  }

  util::TextTable table({"stimulus", "frames", "records", "detected", "embedded"});
  for (size_t s = 0; s < dict.num_stimuli(); ++s) {
    const auto& entry = dict.stimulus(s);
    table.add_row({entry.name, std::to_string(entry.duration_frames),
                   std::to_string(dict.records_for(s)),
                   std::to_string(dict.detected_faults(s).size()), entry.has_data() ? "yes" : "no"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("%zu/%llu faults detectable by at least one stimulus\n", dict.detectable_count(),
              static_cast<unsigned long long>(dict.num_faults));
  return 0;
}

int cmd_minimize(int argc, char** argv) {
  util::CliParser cli({{"dict", "coverage.snfd"}, {"out", ""}, {"json", ""}},
                      "Minimum-time test schedule (lazy-greedy weighted set cover).");
  if (!cli.parse(argc, argv)) return 0;
  const coverage::FaultDictionary dict = load_or_die(cli.get("dict"));
  const auto schedule = coverage::minimize_schedule(dict);
  print_schedule(schedule, dict);
  if (!cli.get("json").empty()) write_schedule_json(cli.get("json"), schedule, dict);
  if (!cli.get("out").empty()) {
    const auto sub = coverage::schedule_as_dictionary(dict, schedule);
    sub.save(cli.get("out"));
    std::printf("schedule dictionary -> %s (%zu stimuli, execute in file order)\n",
                cli.get("out").c_str(), sub.num_stimuli());
  }
  return schedule.complete() ? 0 : 2;
}

int cmd_replay(int argc, char** argv) {
  util::CliParser cli({{"dict", "schedule.snfd"},
                       {"benchmark", "nmnist"},
                       {"train-budget", "1.0"},
                       {"fault-sample", "2000"},
                       {"threads", "0"},
                       {"lane-width", "8"},
                       {"threshold", "0"},
                       {"detect-only", "0"},
                       {"frontier", "0"},
                       {"frontier-threshold", "0.5"},
                       {"golden-cache-budget", "0"},
                       {"json", ""},
                       {"trace-out", ""},
                       {"metrics-out", ""}},
                      "Execute a minimized schedule (minimize --out) in file order against\n"
                      "the live model, dropping every fault an earlier stimulus already\n"
                      "detected — the minimum-time in-field test loop. --frontier 1 runs\n"
                      "each step through the divergence-frontier engine; results and\n"
                      "coverage decisions are bit-identical either way.");
  if (!cli.parse(argc, argv)) return 0;
  obs::configure(cli.get("trace-out"), cli.get("metrics-out"));

  const auto id = zoo::parse_benchmark(cli.get("benchmark"));
  zoo::ZooOptions zoo_opts;
  zoo_opts.train_budget = cli.get_double("train-budget");
  auto bundle = zoo::load_or_train(id, zoo_opts);
  auto& net = bundle.network;

  // The fault universe must be reconstructed exactly as `build` sampled it;
  // replay_schedule verifies the fingerprints and refuses a mismatch.
  auto universe = fault::enumerate_faults(net);
  util::Rng sample_rng(99);
  const size_t sample_size = cli.get_size("fault-sample");
  auto faults = sample_size != 0 && universe.size() > sample_size
                    ? fault::sample_faults(universe, sample_size, sample_rng)
                    : universe;

  const coverage::FaultDictionary schedule = load_or_die(cli.get("dict"));
  coverage::ScheduleReplayConfig config;
  config.engine.num_threads = cli.get_size("threads");
  config.engine.lane_width = cli.get_size("lane-width");
  config.engine.detection_threshold = cli.get_double("threshold");
  config.engine.detect_only = cli.get_bool("detect-only");
  config.engine.frontier = cli.get_bool("frontier");
  config.engine.frontier_threshold = cli.get_double("frontier-threshold");
  config.engine.golden_cache_budget_bytes = cli.get_size("golden-cache-budget");

  const auto replay = coverage::replay_schedule(net, schedule, faults, config);

  util::TextTable table({"#", "stimulus", "frames", "simulated", "dropped", "new", "coverage",
                         "cum. frames"});
  for (const auto& step : replay.steps) {
    table.add_row({std::to_string(step.stimulus), schedule.stimulus(step.stimulus).name,
                   std::to_string(step.frames), std::to_string(step.faults_simulated),
                   std::to_string(step.faults_dropped), std::to_string(step.newly_detected),
                   util::fmt_pct(faults.empty() ? 0.0
                                                : static_cast<double>(step.cumulative_detected) /
                                                      static_cast<double>(faults.size())),
                   std::to_string(step.cumulative_frames)});
  }
  std::printf("%s\n", table.render().c_str());
  size_t simulated = 0, dropped = 0;
  for (const auto& step : replay.steps) {
    simulated += step.faults_simulated;
    dropped += step.faults_dropped;
  }
  std::printf("replayed %zu stimuli (%llu frames): %zu/%zu faults detected;"
              " %zu fault simulations run, %zu dropped as already-detected\n",
              replay.steps.size(), static_cast<unsigned long long>(replay.total_frames),
              replay.total_detected, faults.size(), simulated, dropped);

  if (!cli.get("json").empty()) {
    std::ofstream out(cli.get("json"));
    if (!out) {
      std::fprintf(stderr, "warning: cannot write JSON to %s\n", cli.get("json").c_str());
    } else {
      out << "{\"num_faults\":" << faults.size() << ",\"total_detected\":" << replay.total_detected
          << ",\"total_frames\":" << replay.total_frames << ",\"simulated\":" << simulated
          << ",\"dropped\":" << dropped << ",\"frontier\":"
          << (config.engine.frontier ? "true" : "false") << ",\"steps\":[";
      for (size_t i = 0; i < replay.steps.size(); ++i) {
        const auto& step = replay.steps[i];
        if (i) out << ",";
        out << "{\"stimulus\":\"" << util::json_escape(schedule.stimulus(step.stimulus).name)
            << "\",\"frames\":" << step.frames << ",\"simulated\":" << step.faults_simulated
            << ",\"dropped\":" << step.faults_dropped << ",\"new\":" << step.newly_detected
            << ",\"cumulative_detected\":" << step.cumulative_detected
            << ",\"cumulative_frames\":" << step.cumulative_frames << "}";
      }
      out << "]}\n";
      std::printf("JSON: %s\n", cli.get("json").c_str());
    }
  }
  return 0;
}

int cmd_report(int argc, char** argv) {
  util::CliParser cli({{"dict", "coverage.snfd"}, {"json", ""}},
                      "Dictionary summary: identity, stimuli, matrix completeness.");
  if (!cli.parse(argc, argv)) return 0;
  const coverage::FaultDictionary dict = load_or_die(cli.get("dict"));

  std::printf("dictionary %s\n", cli.get("dict").c_str());
  std::printf("  model fingerprint     %016llx\n",
              static_cast<unsigned long long>(dict.model_fingerprint));
  std::printf("  universe fingerprint  %016llx (%llu faults)\n",
              static_cast<unsigned long long>(dict.universe_fingerprint),
              static_cast<unsigned long long>(dict.num_faults));
  std::printf("  detection threshold   %.17g%s\n", dict.detection_threshold,
              dict.detect_only ? " (detect-only)" : "");
  std::printf("  schedule ordered      %s\n", dict.schedule_ordered ? "yes" : "no");
  const size_t total_pairs = dict.num_stimuli() * static_cast<size_t>(dict.num_faults);
  std::printf("  matrix                %zu stimuli x %llu faults, %zu/%zu pairs recorded\n",
              dict.num_stimuli(), static_cast<unsigned long long>(dict.num_faults),
              dict.num_records(), total_pairs);
  std::printf("  detectable            %zu/%llu\n", dict.detectable_count(),
              static_cast<unsigned long long>(dict.num_faults));

  if (!cli.get("json").empty()) {
    std::ofstream out(cli.get("json"));
    if (!out) {
      std::fprintf(stderr, "warning: cannot write JSON to %s\n", cli.get("json").c_str());
    } else {
      out << "{\"num_faults\":" << dict.num_faults << ",\"num_stimuli\":" << dict.num_stimuli()
          << ",\"num_records\":" << dict.num_records()
          << ",\"detectable\":" << dict.detectable_count() << ",\"schedule_ordered\":"
          << (dict.schedule_ordered ? "true" : "false") << "}\n";
      std::printf("JSON: %s\n", cli.get("json").c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  // Re-point argv so each subcommand's CliParser sees `coverage_tool-<cmd>`
  // as the program name and only its own flags.
  std::vector<char*> rest;
  static std::string prog;
  prog = std::string(argv[0]) + " " + cmd;
  rest.push_back(prog.data());
  for (int i = 2; i < argc; ++i) rest.push_back(argv[i]);
  const int sub_argc = static_cast<int>(rest.size());
  char** sub_argv = rest.data();

  try {
    if (cmd == "build") return cmd_build(sub_argc, sub_argv);
    if (cmd == "orchestrate") return cmd_orchestrate(sub_argc, sub_argv);
    if (cmd == "run-shard") return cmd_run_shard(sub_argc, sub_argv);
    if (cmd == "status") return cmd_status(sub_argc, sub_argv);
    if (cmd == "merge") return cmd_merge(sub_argc, sub_argv);
    if (cmd == "query") return cmd_query(sub_argc, sub_argv);
    if (cmd == "minimize") return cmd_minimize(sub_argc, sub_argv);
    if (cmd == "replay") return cmd_replay(sub_argc, sub_argv);
    if (cmd == "report") return cmd_report(sub_argc, sub_argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  return usage();
}
