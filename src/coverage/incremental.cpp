#include "coverage/incremental.hpp"

#include <cstring>
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
  FaultDictionary dict(faults);
  dict.model_fingerprint = campaign::model_fingerprint(net);
  dict.detection_threshold = detection_threshold;
  dict.detect_only = detect_only;
  return dict;
}

bool dictionary_matches(const FaultDictionary& dict, const snn::Network& net,
                        const std::vector<fault::FaultDescriptor>& faults,
                        double detection_threshold, bool detect_only) {
  uint64_t want = 0, have = 0;
  std::memcpy(&want, &detection_threshold, sizeof(want));
  std::memcpy(&have, &dict.detection_threshold, sizeof(have));
  return want == have && dict.detect_only == detect_only && dict.num_faults() == faults.size() &&
         dict.universe_fingerprint() ==
             campaign::hash_fault_list(faults, util::kFnvOffsetBasis) &&
         dict.model_fingerprint == campaign::model_fingerprint(net);
}

IncrementalResult run_incremental_campaign(const snn::Network& net,
                                           const tensor::Tensor& stimulus,
                                           const std::vector<fault::FaultDescriptor>& faults,
                                           FaultDictionary& dict,
                                           const IncrementalConfig& config) {
  OBS_SPAN("coverage/incremental_campaign");
  IncrementalResult out;
  campaign::EngineConfig engine = config.engine;

  if (!dictionary_matches(dict, net, faults, engine.detection_threshold, engine.detect_only)) {
    SNNTEST_LOG_WARN(
        "run_incremental_campaign: dictionary does not match the campaign inputs "
        "(model retrained? different fault universe or detection settings?); running cold "
        "and leaving the dictionary untouched");
    out.coverage.dictionary_rejected = true;
    obs::Registry::instance().counter("coverage/dictionaries_rejected").add(1);
    out.campaign = campaign::run_campaign(net, stimulus, faults, engine);
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
    entry.data = stimulus;
    return dict.add_stimulus(std::move(entry));
  }();
  out.coverage.stimulus_index = s;

  engine.result_cache = [&dict, s](size_t fault_index, fault::DetectionResult& result) {
    const fault::DetectionResult* known = dict.lookup(s, fault_index);
    if (known == nullptr) return false;
    result = *known;
    return true;
  };

  // Record each pair as it finishes. Only simulated pairs reach the sink —
  // dictionary hits never do, and neither do the unfinished entries of a
  // cancelled run — so everything recorded is real. The engine serializes
  // sink calls, and no lookup runs concurrently.
  engine.result_sink = [&dict, s, &out, chained = config.engine.result_sink](
                           size_t fault_index, const fault::DetectionResult& result) {
    dict.record(s, fault_index, result);
    ++out.coverage.pairs_recorded;
    if (chained) chained(fault_index, result);
  };

  out.campaign = campaign::run_campaign(net, stimulus, faults, engine);
  out.coverage.pairs_reused = out.campaign.stats.pairs_reused;

  obs::Registry& reg = obs::Registry::instance();
  reg.counter("coverage/pairs_reused").add(out.coverage.pairs_reused);
  reg.counter("coverage/pairs_recorded").add(out.coverage.pairs_recorded);
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

  // A fault an earlier step detected is served as a placeholder instead of
  // simulated, so the engine's pairs_reused is exactly the dropped count.
  campaign::EngineConfig engine = config.engine;
  engine.result_cache = [&out](size_t fault_index, fault::DetectionResult& result) {
    if (!out.detected[fault_index]) return false;
    result = fault::DetectionResult{};
    return true;
  };

  for (size_t s = 0; s < schedule.num_stimuli(); ++s) {
    const StimulusEntry& entry = schedule.stimulus(s);
    if (!entry.has_data()) {
      throw std::invalid_argument("replay_schedule: stimulus '" + entry.name +
                                  "' has no embedded spike train");
    }
    const campaign::CampaignResult run = campaign::run_campaign(net, entry.data, faults, engine);

    ScheduleReplayStep step;
    step.stimulus = s;
    step.faults_dropped = run.stats.pairs_reused;
    step.faults_simulated = faults.size() - step.faults_dropped;
    step.frames = entry.duration_frames;
    for (size_t j = 0; j < faults.size(); ++j) {
      if (out.detected[j] || !run.results[j].detected) continue;
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
