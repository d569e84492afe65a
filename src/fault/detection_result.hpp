// The outcome of applying one test stimulus to one faulty network: the
// Eq. (3)/(4) experiment of the paper (L1 > threshold -> detected). The
// campaign engine (campaign/engine.hpp) emits one per (fault, stimulus)
// pair, and the coverage fault dictionary (coverage/fault_dictionary.hpp)
// persists it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace snntest::fault {

struct DetectionResult {
  bool detected = false;
  /// ||O^L - O^L(f)||_1 — output spike-train corruption magnitude (Fig. 9).
  double output_l1 = 0.0;
  /// First output timestep at which the cumulative L1 divergence exceeds the
  /// detection threshold — the frame an in-field output comparator would
  /// flag the device, and the per-pair detection latency the coverage
  /// dictionary persists (coverage/fault_dictionary.hpp). -1 when the fault
  /// is undetected. The cumulative L1 is nondecreasing over time, so
  /// first_detection_frame >= 0 exactly when detected.
  int64_t first_detection_frame = -1;
  /// Per-class |count - golden count| differences (signed: faulty - golden).
  std::vector<long> class_count_diff;
  /// Per-class first output-spike frame of the faulty run, T if the class
  /// never fires (ForwardResult::output_first_spike_times). Filled wherever
  /// class_count_diff is filled (left empty in detect-only mode); it is what
  /// time-to-first-spike fault labelling decodes (fault/classifier.hpp).
  /// In memory only: the SNFD dictionary does not store it, so a result
  /// read back from one (or recorded into a coverage::FaultDictionary) has
  /// it empty, and coverage::results_identical ignores it.
  std::vector<size_t> class_first_spike;
};

}  // namespace snntest::fault
