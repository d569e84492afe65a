#include "coverage/incremental.hpp"

#include <stdexcept>

#include "campaign/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace snntest::coverage {

uint64_t stimulus_fingerprint(const tensor::Tensor& stimulus) {
  return campaign::hash_stimulus(stimulus, util::kFnvOffsetBasis);
}

FaultDictionary make_dictionary(const snn::Network& net,
                                const std::vector<fault::FaultDescriptor>& faults,
                                double detection_threshold, bool detect_only) {
  FaultDictionary dict;
  dict.model_fingerprint = campaign::model_fingerprint(net);
  dict.universe_fingerprint = campaign::hash_fault_list(faults, util::kFnvOffsetBasis);
  dict.num_faults = faults.size();
  dict.detection_threshold = detection_threshold;
  dict.detect_only = detect_only;
  return dict;
}

bool dictionary_matches(const FaultDictionary& dict, const snn::Network& net,
                        const std::vector<fault::FaultDescriptor>& faults,
                        double detection_threshold, bool detect_only) {
  const FaultDictionary expected =
      make_dictionary(net, faults, detection_threshold, detect_only);
  return dict.compatible_with(expected);
}

IncrementalResult run_incremental_campaign(const snn::Network& net,
                                           const tensor::Tensor& stimulus,
                                           const std::vector<fault::FaultDescriptor>& faults,
                                           FaultDictionary& dict,
                                           const IncrementalConfig& config) {
  OBS_SPAN("coverage/incremental_campaign");
  IncrementalResult out;
  campaign::EngineConfig engine = config.engine;

  const std::vector<char>* drop = config.drop_faults;
  // Local record of which pairs were served as drop placeholders this run:
  // they carry no simulation outcome and must never enter the dictionary.
  std::vector<char> dropped(drop == nullptr ? 0 : faults.size(), 0);
  auto try_drop = [drop, &dropped](size_t fault_index, fault::DetectionResult& result) {
    if (drop == nullptr || fault_index >= drop->size() || !(*drop)[fault_index]) return false;
    dropped[fault_index] = 1;
    result = fault::DetectionResult{};
    return true;
  };
  auto count_dropped = [&dropped] {
    size_t n = 0;
    for (char d : dropped) n += d != 0;
    return n;
  };

  if (!dictionary_matches(dict, net, faults, engine.detection_threshold, engine.detect_only)) {
    SNNTEST_LOG_WARN(
        "run_incremental_campaign: dictionary does not match the campaign inputs "
        "(model retrained? different fault universe or detection settings?); running cold "
        "and leaving the dictionary untouched");
    out.coverage.dictionary_rejected = true;
    obs::Registry::instance().counter("coverage/dictionaries_rejected").add(1);
    if (drop != nullptr) engine.result_cache = try_drop;
    out.campaign = campaign::run_campaign(net, stimulus, faults, engine);
    out.coverage.pairs_reused = out.campaign.stats.pairs_reused;
    out.coverage.pairs_dropped = count_dropped();
    return out;
  }

  StimulusEntry entry;
  entry.fingerprint = stimulus_fingerprint(stimulus);
  entry.duration_frames = stimulus.shape().dim(0);
  const size_t s = [&] {
    if (auto existing = dict.find_stimulus(entry.fingerprint)) return *existing;
    entry.name = config.stimulus_name.empty()
                     ? "stimulus" + std::to_string(dict.num_stimuli())
                     : config.stimulus_name;
    if (config.store_stimulus_data) entry.data = stimulus;
    return dict.add_stimulus(std::move(entry));
  }();
  out.coverage.stimulus_index = s;

  engine.result_cache = [&dict, s, &try_drop](size_t fault_index,
                                              fault::DetectionResult& result) {
    // A stored result wins over dropping: real data beats a placeholder.
    const fault::DetectionResult* known = dict.lookup(s, fault_index);
    if (known != nullptr) {
      result = *known;
      return true;
    }
    return try_drop(fault_index, result);
  };

  // Record each pair as it finishes. Only simulated pairs reach the sink —
  // dictionary hits and drop placeholders never do, and neither do the
  // unfinished entries of a cancelled run — so everything recorded is real.
  // The engine serializes sink calls, and no lookup runs concurrently.
  if (config.record) {
    engine.result_sink = [&dict, s, &out, chained = config.engine.result_sink](
                             size_t fault_index, const fault::DetectionResult& result) {
      dict.record(s, fault_index, result);
      ++out.coverage.pairs_recorded;
      if (chained) chained(fault_index, result);
    };
  }

  out.campaign = campaign::run_campaign(net, stimulus, faults, engine);
  out.coverage.pairs_reused = out.campaign.stats.pairs_reused;
  out.coverage.pairs_dropped = count_dropped();

  obs::Registry& reg = obs::Registry::instance();
  reg.counter("coverage/pairs_reused").add(out.coverage.pairs_reused);
  reg.counter("coverage/pairs_recorded").add(out.coverage.pairs_recorded);
  reg.counter("coverage/pairs_dropped").add(out.coverage.pairs_dropped);
  return out;
}

ScheduleReplayResult replay_schedule(const snn::Network& net, const FaultDictionary& schedule,
                                     const std::vector<fault::FaultDescriptor>& faults,
                                     const ScheduleReplayConfig& config) {
  OBS_SPAN("coverage/replay_schedule");
  if (!dictionary_matches(schedule, net, faults, config.engine.detection_threshold,
                          config.engine.detect_only)) {
    throw std::invalid_argument(
        "replay_schedule: schedule dictionary does not match (network, faults, detection "
        "settings)");
  }
  ScheduleReplayResult out;
  out.detected.assign(faults.size(), 0);
  out.steps.reserve(schedule.num_stimuli());

  for (size_t s = 0; s < schedule.num_stimuli(); ++s) {
    const StimulusEntry& entry = schedule.stimulus(s);
    if (!entry.has_data()) {
      throw std::invalid_argument("replay_schedule: stimulus '" + entry.name +
                                  "' has no embedded spike train (rebuild the schedule with "
                                  "store_stimulus_data)");
    }
    // A fresh, matching dictionary per step: nothing to reuse, nothing
    // recorded — every result-cache hit is a drop_faults skip, so the
    // engine's pairs_reused is exactly the dropped-fault count.
    FaultDictionary scratch = make_dictionary(net, faults, config.engine.detection_threshold,
                                              config.engine.detect_only);
    IncrementalConfig ic;
    ic.engine = config.engine;
    ic.stimulus_name = entry.name;
    ic.store_stimulus_data = false;
    ic.record = false;
    ic.drop_faults = &out.detected;
    const IncrementalResult step_run =
        run_incremental_campaign(net, entry.data, faults, scratch, ic);

    ScheduleReplayStep step;
    step.stimulus = s;
    step.faults_dropped = step_run.coverage.pairs_dropped;
    step.faults_simulated = faults.size() - step.faults_dropped;
    step.frames = entry.duration_frames;
    for (size_t j = 0; j < faults.size(); ++j) {
      if (out.detected[j] || !step_run.campaign.results[j].detected) continue;
      out.detected[j] = 1;
      ++step.newly_detected;
      ++out.total_detected;
    }
    step.cumulative_detected = out.total_detected;
    out.total_frames += step.frames;
    step.cumulative_frames = out.total_frames;
    out.steps.push_back(step);
  }
  return out;
}

}  // namespace snntest::coverage
