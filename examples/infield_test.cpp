// In-field periodic testing scenario (paper Sec. I: the compact test "can
// be stored on-chip, taking up a small memory space, for in-field testing").
//
// Two modes:
//
//  * --dict schedule.snfd — replay a minimized test schedule produced by
//    `coverage_tool minimize --out` (or any dictionary with embedded
//    stimuli; non-schedule_ordered dictionaries are minimized here, which
//    is deterministic, so tool and device agree). The device executes the
//    scheduled stimuli in order, printing the coverage-vs-time curve as it
//    goes, and flags the first output-signature divergence.
//
//  * legacy (no --dict) — a single stored TestStimulus is applied
//    periodically over a simulated device lifetime; a latent fault appears
//    mid-life and the periodic test flags it.
//
// Run:  ./build/examples/infield_test [--benchmark shd] [--stimulus FILE]
//       [--dict schedule.snfd] [--fault-layer 0] [--fault-neuron 7]
//       [--json replay.json]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/test_generator.hpp"
#include "coverage/fault_dictionary.hpp"
#include "coverage/minimize.hpp"
#include "fault/injector.hpp"
#include "snn/spike_train.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "zoo/model_zoo.hpp"

using namespace snntest;

namespace {

fault::FaultDescriptor latent_fault(const util::CliParser& cli) {
  fault::FaultDescriptor latent;
  latent.kind = fault::FaultKind::kNeuronDead;
  latent.neuron = {cli.get_size("fault-layer"), cli.get_size("fault-neuron")};
  return latent;
}

/// Replay a coverage dictionary's (minimized) schedule on a faulty device.
int run_schedule_mode(const util::CliParser& cli, snn::Network& net) {
  coverage::FaultDictionary::LoadStats load_stats;
  auto loaded = coverage::FaultDictionary::load(cli.get("dict"), &load_stats);
  if (!loaded) {
    std::fprintf(stderr, "error: cannot load schedule dictionary %s\n", cli.get("dict").c_str());
    return 1;
  }
  const coverage::FaultDictionary& dict = *loaded;
  if (load_stats.records_skipped > 0) {
    std::printf("note: %zu damaged record(s) skipped in %s\n", load_stats.records_skipped,
                cli.get("dict").c_str());
  }

  // schedule_ordered dictionaries ARE the schedule (execute in file order);
  // anything else is minimized here — the minimizer is deterministic, so
  // the device derives the same schedule the factory tool would.
  coverage::TestSchedule schedule;
  if (dict.schedule_ordered) {
    schedule.num_faults = dict.num_faults();
    schedule.detectable_faults = dict.detectable_count();
    std::vector<char> covered(dict.num_faults(), 0);
    for (size_t s = 0; s < dict.num_stimuli(); ++s) {
      coverage::ScheduleStep step;
      step.stimulus = s;
      for (size_t f : dict.detected_faults(s)) {
        if (!covered[f]) {
          covered[f] = 1;
          ++step.new_faults;
        }
      }
      schedule.covered_faults += step.new_faults;
      step.cumulative_detected = schedule.covered_faults;
      step.frames = std::max<uint64_t>(dict.stimulus(s).duration_frames, 1);
      schedule.scheduled_frames += step.frames;
      step.cumulative_frames = schedule.scheduled_frames;
      schedule.all_stimuli_frames += step.frames;
      schedule.steps.push_back(step);
    }
  } else {
    std::printf("dictionary is not schedule-ordered; minimizing locally\n");
    schedule = coverage::minimize_schedule(dict);
  }
  if (schedule.steps.empty()) {
    std::fprintf(stderr, "error: empty schedule (no detected faults recorded?)\n");
    return 1;
  }

  std::printf("schedule: %zu stimuli, %llu frames, covering %zu/%zu detectable faults\n\n",
              schedule.steps.size(), static_cast<unsigned long long>(schedule.scheduled_frames),
              schedule.covered_faults, schedule.detectable_faults);

  // t0: golden signatures per scheduled stimulus on the known-good device.
  std::vector<tensor::Tensor> golden;
  for (const auto& step : schedule.steps) {
    const auto& entry = dict.stimulus(step.stimulus);
    if (!entry.has_data()) {
      std::fprintf(stderr, "error: stimulus %s has no embedded spike train; rebuild the\n"
                           "dictionary with coverage_tool build\n",
                   entry.name.c_str());
      return 1;
    }
    golden.push_back(net.forward(entry.data).output());
  }

  // Device lifetime: the latent fault is present when the periodic test
  // runs; execute the schedule and flag the first divergence.
  fault::FaultInjector injector(net);
  const auto latent = latent_fault(cli);
  injector.inject(latent);

  util::TextTable table(
      {"step", "stimulus", "frames", "cum. frames", "planned coverage", "L1 diff", "verdict"});
  int detected_step = -1;
  struct StepResult {
    std::string stimulus;
    uint64_t frames = 0;
    uint64_t cumulative_frames = 0;
    double diff = 0.0;
    bool flagged = false;
  };
  std::vector<StepResult> replay;
  for (size_t i = 0; i < schedule.steps.size(); ++i) {
    const auto& step = schedule.steps[i];
    const auto& entry = dict.stimulus(step.stimulus);
    const auto response = net.forward(entry.data).output();
    const double diff = snn::output_distance(golden[i], response);
    const bool flagged = diff > dict.detection_threshold;
    if (flagged && detected_step < 0) detected_step = static_cast<int>(i);
    replay.push_back({entry.name, step.frames, step.cumulative_frames, diff, flagged});
    table.add_row({std::to_string(i), entry.name, std::to_string(step.frames),
                   std::to_string(step.cumulative_frames),
                   util::fmt_pct(schedule.detectable_faults == 0
                                     ? 1.0
                                     : static_cast<double>(step.cumulative_detected) /
                                           static_cast<double>(schedule.detectable_faults)),
                   util::fmt_double(diff, 0), flagged ? "FAULTY" : "clean"});
  }
  injector.remove();
  std::printf("%s\n", table.render().c_str());

  if (!cli.get("json").empty()) {
    std::ofstream out(cli.get("json"));
    if (!out) {
      std::fprintf(stderr, "warning: cannot write JSON to %s\n", cli.get("json").c_str());
    } else {
      char buf[40];
      out << "{\"schema\":\"snntest-infield-replay-v1\",\"fault\":\""
          << util::json_escape(latent.to_string()) << "\",\"detected\":"
          << (detected_step >= 0 ? "true" : "false") << ",\"detected_step\":" << detected_step
          << ",\"scheduled_frames\":" << schedule.scheduled_frames
          << ",\"full_replay_frames\":" << schedule.all_stimuli_frames << ",\"steps\":[";
      for (size_t i = 0; i < replay.size(); ++i) {
        const StepResult& r = replay[i];
        if (i) out << ",";
        std::snprintf(buf, sizeof(buf), "%.17g", r.diff);
        out << "{\"stimulus\":\"" << util::json_escape(r.stimulus) << "\",\"frames\":" << r.frames
            << ",\"cumulative_frames\":" << r.cumulative_frames << ",\"l1_diff\":" << buf
            << ",\"flagged\":" << (r.flagged ? "true" : "false") << "}";
      }
      out << "]}\n";
      std::printf("JSON: %s\n", cli.get("json").c_str());
    }
  }

  if (detected_step >= 0) {
    std::printf("latent fault (%s) flagged at step %d after %llu frames"
                " (full replay would cost %llu frames).\n",
                latent.to_string().c_str(), detected_step,
                static_cast<unsigned long long>(schedule.steps[detected_step].cumulative_frames),
                static_cast<unsigned long long>(schedule.all_stimuli_frames));
    return 0;
  }
  std::printf("latent fault (%s) escaped the schedule — it was likely outside the\n"
              "dictionary's detectable set; extend the dictionary with more stimuli.\n",
              latent.to_string().c_str());
  return 2;
}

/// Everything after flag parsing; runs inside main's try so that flag
/// validation errors from the numeric getters (e.g. --checks=abc) exit
/// cleanly instead of aborting with an uncaught exception.
int run(const util::CliParser& cli) {
  auto bundle = zoo::load_or_train(zoo::parse_benchmark(cli.get("benchmark")));
  auto& net = bundle.network;

  if (!cli.get("dict").empty()) return run_schedule_mode(cli, net);

  // --- legacy mode: one stored stimulus applied periodically ---
  core::TestStimulus stored;
  const std::string path = cli.get("stimulus");
  if (!path.empty() && std::filesystem::exists(path)) {
    stored = core::TestStimulus::load(path);
    std::printf("loaded stimulus from %s\n", path.c_str());
  } else {
    std::printf("no stored stimulus; generating one (this is the one-time factory step)\n");
    core::TestGenConfig cfg;
    cfg.steps_stage1 = 200;
    cfg.t_limit_seconds = 120.0;
    core::TestGenerator generator(net, cfg);
    stored = generator.generate().stimulus;
  }
  const auto test_input = stored.assemble();
  std::printf("stimulus: %zu chunks, %zu steps (%.2f sample-equivalents), density %s\n\n",
              stored.num_chunks(), stored.total_steps(),
              stored.duration_in_samples(bundle.steps_per_sample),
              util::fmt_pct(stored.spike_density()).c_str());

  // --- t0: record the golden signature on the known-good device ---
  const auto golden_signature = net.forward(test_input).output();

  // --- device lifetime: periodic checks; a fault appears mid-life ---
  const int checks = static_cast<int>(cli.get_size("checks"));
  const int fault_onset = checks / 2;
  fault::FaultInjector injector(net);
  const auto latent = latent_fault(cli);

  util::TextTable table({"check", "signature L1 diff", "verdict"});
  int detected_at = -1;
  for (int k = 0; k < checks; ++k) {
    if (k == fault_onset) injector.inject(latent);
    const auto response = net.forward(test_input).output();
    const double diff = snn::output_distance(golden_signature, response);
    const bool flagged = diff > 0.0;
    if (flagged && detected_at < 0) detected_at = k;
    table.add_row({std::to_string(k), util::fmt_double(diff, 0),
                   flagged ? "FAULTY — pull from service" : "healthy"});
  }
  std::printf("%s\n", table.render().c_str());
  if (detected_at == fault_onset) {
    std::printf("latent fault (%s) appeared at check %d and was caught immediately.\n",
                latent.to_string().c_str(), fault_onset);
  } else if (detected_at >= 0) {
    std::printf("fault appeared at check %d, first flagged at check %d.\n", fault_onset,
                detected_at);
  } else {
    std::printf("fault escaped the stored test — consider regenerating with more iterations.\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli({{"benchmark", "shd"},
                       {"stimulus", ""},
                       {"dict", ""},
                       {"json", ""},
                       {"checks", "10"},
                       {"fault-layer", "0"},
                       {"fault-neuron", "7"}},
                      "Periodic in-field self-test with an on-chip stored stimulus or a\n"
                      "minimized coverage schedule (--dict, from coverage_tool minimize).");
  try {
    if (!cli.parse(argc, argv)) return 0;
    return run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
