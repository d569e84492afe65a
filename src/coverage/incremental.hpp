// Incremental campaigns: the differential engine backed by a persistent
// fault dictionary.
//
// run_incremental_campaign wraps campaign::run_campaign with the coverage
// dictionary wired into EngineConfig::result_cache: every fault×stimulus
// pair the dictionary already holds is served as a lookup instead of a
// simulation (EngineStats::pairs_reused), and every pair simulated fresh is
// recorded back through EngineConfig::result_sink as soon as it finishes.
// A warm re-run of an identical campaign therefore performs zero fault
// simulations and reproduces each DetectionResult bit-identically — the
// dictionary stores the exact structs the engine emitted. A cancelled run
// keeps every pair it finished, so saving the dictionary (save, always
// atomic) and rerunning resumes it: this is the library's one resume path.
//
// Identity checks: the dictionary is keyed by model (topology + trained
// parameters), fault universe and detection settings. A mismatched
// dictionary — retrained model, different fault list, different threshold
// — is rejected softly: the campaign runs cold, nothing is recorded, and
// the rejection is surfaced in IncrementalStats::dictionary_rejected plus a
// warning, so a stale dictionary can never corrupt fresh results.
#pragma once

#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "coverage/fault_dictionary.hpp"

namespace snntest::coverage {

struct IncrementalConfig {
  /// Base engine configuration (threads, lane width, pruning, kernel mode,
  /// detection threshold, detect_only, ...). result_cache must be empty —
  /// the incremental wrapper owns that hook. A result_sink is chained: it
  /// still sees every freshly simulated pair, after the dictionary does.
  campaign::EngineConfig engine;
  /// Label for a newly registered stimulus (default "stimulus<N>"). The
  /// spike train itself is always embedded, so minimized schedules are
  /// replayable from the file alone.
  std::string stimulus_name;
};

struct IncrementalStats {
  /// The stimulus' index in the dictionary (existing or newly added);
  /// meaningless when dictionary_rejected.
  size_t stimulus_index = 0;
  size_t pairs_reused = 0;
  size_t pairs_recorded = 0;
  /// The dictionary did not match (model/universe/settings); the campaign
  /// ran cold and the dictionary was left untouched.
  bool dictionary_rejected = false;
};

struct IncrementalResult {
  campaign::CampaignResult campaign;
  IncrementalStats coverage;
};

/// The dictionary-identity fingerprint of one stimulus (hash_stimulus from
/// the canonical FNV offset basis).
uint64_t stimulus_fingerprint(const tensor::Tensor& stimulus);

/// An empty dictionary bound to (net, faults, detection settings); it
/// stores `faults` as its fault universe.
FaultDictionary make_dictionary(const snn::Network& net,
                                const std::vector<fault::FaultDescriptor>& faults,
                                double detection_threshold = 0.0, bool detect_only = false);

/// Does `dict` describe exactly this (model, fault list, settings)? Hashes
/// `faults` and the model; copies neither.
bool dictionary_matches(const FaultDictionary& dict, const snn::Network& net,
                        const std::vector<fault::FaultDescriptor>& faults,
                        double detection_threshold, bool detect_only);

/// Run the campaign, serving known pairs from `dict` and recording new ones
/// into it. Results are positionally parallel to `faults` and bit-identical
/// to a cold campaign::run_campaign with the same EngineConfig. Only
/// simulated pairs are recorded: a cancelled (partial) campaign records
/// every pair it finished and none of its default-constructed placeholders,
/// and dictionary hits are never simulated. Throws std::invalid_argument
/// when a new stimulus holds a value other than 0 or 1.
IncrementalResult run_incremental_campaign(const snn::Network& net,
                                           const tensor::Tensor& stimulus,
                                           const std::vector<fault::FaultDescriptor>& faults,
                                           FaultDictionary& dict,
                                           const IncrementalConfig& config = {});

// --- minimized-schedule replay ---------------------------------------------

struct ScheduleReplayConfig {
  /// Engine configuration for each step's campaign (threads, lane width,
  /// detection settings, ...). result_cache must be empty.
  campaign::EngineConfig engine;
};

/// One replayed stimulus of the schedule, in execution order.
struct ScheduleReplayStep {
  size_t stimulus = 0;  ///< index into the schedule dictionary's table
  /// Faults actually simulated vs. dropped because an earlier step already
  /// detected them (the minimum-time shortcut: a fault needs one detection,
  /// not one per stimulus).
  size_t faults_simulated = 0;
  size_t faults_dropped = 0;
  size_t newly_detected = 0;
  size_t cumulative_detected = 0;
  uint64_t frames = 0;
  uint64_t cumulative_frames = 0;
};

struct ScheduleReplayResult {
  std::vector<ScheduleReplayStep> steps;
  /// detected[f] != 0 iff some replayed stimulus detected fault f.
  std::vector<char> detected;
  size_t total_detected = 0;
  uint64_t total_frames = 0;
};

/// Execute a minimized schedule (schedule_as_dictionary output, or any
/// dictionary with embedded stimulus data) against a live network: replay
/// the stimuli in file order, and at each step skip — through the engine's
/// result_cache — every fault an earlier step already detected. This is the
/// in-field test-execution loop: total simulated work shrinks monotonically
/// as coverage accumulates. Throws
/// std::invalid_argument when `schedule` does not match (net, faults,
/// detection settings) or a scheduled stimulus has no embedded data.
ScheduleReplayResult replay_schedule(const snn::Network& net, const FaultDictionary& schedule,
                                     const std::vector<fault::FaultDescriptor>& faults,
                                     const ScheduleReplayConfig& config = {});

}  // namespace snntest::coverage
