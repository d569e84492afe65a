// Persistent fault dictionary: the detection matrix of a test campaign.
//
// A campaign answers "does stimulus s detect fault f?" one (s, f) pair at a
// time and historically threw the answers away. The dictionary keeps them:
// per fault × stimulus it stores detected/undetected, the first detection
// frame, the L1 divergence margin and the per-class count differences —
// exactly the DetectionResult the engine produced — keyed by fingerprints
// of the model (topology + parameters), the fault universe and each
// stimulus. That makes three things cheap that used to require
// re-simulation:
//
//  * incremental campaigns — re-running a campaign against a stimulus the
//    dictionary has seen becomes a lookup (coverage/incremental.hpp);
//  * cross-stimulus queries — which faults does stimulus s catch, which
//    stimuli catch fault f, which faults are detectable at all;
//  * minimum-time test-suite minimization — weighted set cover over the
//    matrix with per-stimulus frame costs (coverage/minimize.hpp), the
//    paper's minimum-time objective made executable.
//
// On-disk format (little-endian; DESIGN.md "On-disk formats" has the frame
// rule and §13 the byte layout), frames of the shared container
// (util/serialize.hpp):
//
//   magic 'SNFD' + format version
//   header block   = one frame (u64 byte length, blob, CRC-32 of the blob)
//   stimulus table = one frame
//   fault universe = one frame: the ordered fault list the records index
//   u64 record count, then per record one frame with a u32 length
//
// Storing the universe makes the file self-contained: a reader names and
// replays faults without redrawing them.
//
// Every record carries its own CRC so corruption is contained: a flipped
// byte invalidates one record (counted in LoadStats::records_skipped, the
// pair re-simulates), not the file. A truncated tail — the artifact of a
// kill mid-write — likewise drops only the unwritten records. A mangled
// header, stimulus table or fault universe makes the file unusable and
// load() returns nullopt; callers fall back to a cold campaign. Fingerprint mismatches
// (model retrained, fault universe changed) are detected by the consumers
// via the header fields (coverage/incremental.hpp).
//
// The dictionary is also the one resume format: an incremental campaign
// records each pair as it finishes, so a cancelled run saved with save()
// (always atomic) resumes from every pair it completed (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/detection_result.hpp"
#include "fault/fault.hpp"
#include "tensor/tensor.hpp"

namespace snntest::coverage {

inline constexpr uint32_t kDictionaryMagic = 0x44464E53;  // "SNFD"
// Version 2 added the fault-universe frame; version 1 files are refused.
inline constexpr uint32_t kDictionaryVersion = 2;

/// One test stimulus the dictionary has results for. The spike train itself
/// is embedded bit-packed (util::pack_bits, 8 timestep-channel cells per
/// byte) so a dictionary — and the minimized schedule derived from it — is
/// self-contained: an in-field tester can replay the scheduled stimuli
/// straight from the file.
struct StimulusEntry {
  std::string name;              ///< human label ("chunk3", "sample17", a path)
  uint64_t fingerprint = 0;      ///< campaign::hash_stimulus over shape + data
  uint64_t duration_frames = 0;  ///< test-time cost in timesteps
  tensor::Tensor data;           ///< [T, C] binary train; empty when not embedded
  bool has_data() const { return data.numel() > 0; }
};

class FaultDictionary {
 public:
  /// An empty dictionary over the fault universe `faults`, fixed for its
  /// lifetime: num_faults() and universe_fingerprint() derive from it.
  explicit FaultDictionary(std::vector<fault::FaultDescriptor> faults = {});

  // --- identity (the header fields; see campaign/fingerprint.hpp) ---------
  uint64_t model_fingerprint = 0;  ///< topology + trained parameters
  double detection_threshold = 0.0;
  bool detect_only = false;  ///< results carry lower-bound L1s (engine detect_only)
  /// Set by the minimizer's schedule export: stimuli are stored in
  /// minimized-schedule order and should be executed in file order.
  bool schedule_ordered = false;

  /// The fault universe, in record-index order.
  const std::vector<fault::FaultDescriptor>& faults() const { return faults_; }
  size_t num_faults() const { return faults_.size(); }
  uint64_t universe_fingerprint() const { return universe_fingerprint_; }

  /// Same model, universe, fault count and detection settings — results are
  /// interchangeable between the two dictionaries.
  bool compatible_with(const FaultDictionary& other) const;

  // --- stimuli -------------------------------------------------------------
  size_t num_stimuli() const { return stimuli_.size(); }
  const StimulusEntry& stimulus(size_t s) const { return stimuli_.at(s); }
  /// Register a stimulus (or return the existing index when one with the
  /// same fingerprint is already present — the entry's name/data win only
  /// on first insertion). Throws std::invalid_argument, leaving the table
  /// as it was, when a new entry's data holds a value other than 0 or 1.
  size_t add_stimulus(StimulusEntry entry);
  std::optional<size_t> find_stimulus(uint64_t fingerprint) const;

  // --- detection matrix ----------------------------------------------------
  bool has(size_t stim, size_t fault) const;
  /// The stored result, or nullptr when the pair was never simulated.
  const fault::DetectionResult* lookup(size_t stim, size_t fault) const;
  /// Insert or overwrite one pair. `stim` must be a valid stimulus index
  /// and `fault` < num_faults() (throws std::out_of_range otherwise). The
  /// in-memory-only class_first_spike is dropped, as save() would drop it.
  void record(size_t stim, size_t fault, fault::DetectionResult result);

  size_t num_records() const { return num_records_; }
  size_t records_for(size_t stim) const;
  /// Fault indices stimulus `stim` detects, ascending.
  std::vector<size_t> detected_faults(size_t stim) const;
  /// mask[f] != 0 iff any recorded stimulus detects fault f.
  std::vector<char> detectable_mask() const;
  size_t detectable_count() const;

  // --- persistence ---------------------------------------------------------
  struct LoadStats {
    size_t records_loaded = 0;
    /// Records dropped on load: CRC mismatch (corruption), unparsable or
    /// out-of-range payload, or a truncated tail. Visible, soft and
    /// re-simulable: those pairs simply run again.
    size_t records_skipped = 0;
  };

  /// Crash-safe save (util::atomic_write_file): serialize to a sibling temp
  /// file, then rename(2) over `path`. A reader (or a worker restarted
  /// after a kill) sees either the previous complete dictionary or the new
  /// one, never a torn write. This is the commit step of the shard worker
  /// protocol (DESIGN.md §15). Throws std::runtime_error when the file
  /// cannot be written.
  void save(const std::string& path) const;
  /// The exact bytes save() would write — lets callers byte-compare
  /// dictionaries (merge-identity tests) without touching the filesystem.
  std::string serialize() const;
  /// nullopt when the file is missing or its magic, header, stimulus table
  /// or fault universe is unusable — including a universe that does not
  /// hash to the header's fingerprint (the error cases that have no partial
  /// answer). Damaged records fail soft via `stats`.
  static std::optional<FaultDictionary> load(const std::string& path,
                                             LoadStats* stats = nullptr);

  struct MergeStats {
    size_t records_added = 0;
    /// Overlapping pairs whose stored results are identical (no-ops).
    size_t duplicates_agreeing = 0;
    /// Overlapping pairs whose results disagree: the existing record is
    /// kept and the incoming one is skipped — two honest dictionaries for
    /// the same fingerprints can only disagree through corruption, so the
    /// count is surfaced rather than silently picking a winner.
    size_t conflicts_skipped = 0;
    size_t stimuli_added = 0;
  };

  /// Fold `other`'s stimuli and records into this dictionary. Throws
  /// std::invalid_argument when the dictionaries are not compatible_with
  /// each other (results for different models/universes must never mix).
  MergeStats merge(const FaultDictionary& other);

 private:
  std::vector<fault::FaultDescriptor> faults_;
  uint64_t universe_fingerprint_ = 0;
  std::vector<StimulusEntry> stimuli_;
  /// Dense per-stimulus rows, sized num_faults() on first record.
  std::vector<std::vector<char>> have_;
  std::vector<std::vector<fault::DetectionResult>> results_;
  size_t num_records_ = 0;
};

/// Field-exact equality (detected, L1 bits, frame, class counts) — the
/// merge-conflict and warm-rerun-identity criterion. Ignores the in-memory
/// class_first_spike, which the dictionary does not store.
bool results_identical(const fault::DetectionResult& a, const fault::DetectionResult& b);

}  // namespace snntest::coverage
