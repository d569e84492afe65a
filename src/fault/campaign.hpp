// Fault-simulation campaign: sequential single-fault injection + inference,
// parallelized across worker threads (each worker owns a network clone).
//
// Two campaign flavours mirror the paper:
//  * run_detection_campaign — the Eq. (3)/(4) experiment: apply one test
//    stimulus to the golden and each faulty network and compare output
//    spike trains (L1 > 0 -> detected). This is T_FS in Sec. IV-B.
//  * classify (see classifier.hpp) — the Table II experiment labelling
//    faults critical/benign over a dataset.
//
// run_detection_campaign is a thin compatibility wrapper over the
// differential engine in campaign/engine.hpp (golden-prefix reuse,
// convergence pruning, dynamic scheduling, checkpoint/resume); new code
// should call campaign::run_campaign directly.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/injector.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_pool.hpp"

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
  /// In memory only: neither the SNFD dictionary nor the JSONL checkpoint
  /// stores it, so a result read back from either (or recorded into a
  /// coverage::FaultDictionary) has it empty, and
  /// coverage::results_identical ignores it.
  std::vector<size_t> class_first_spike;
};

struct CampaignConfig {
  size_t num_threads = 0;  // 0 = hardware concurrency
  /// A fault counts as detected when output_l1 > detection_threshold. The
  /// default 0.0 keeps the paper's Eq. (3) criterion (any output spike
  /// difference); raise it to ignore sub-threshold corruption, e.g. to model
  /// a comparator with limited precision.
  double detection_threshold = 0.0;
  /// Progress callback (completed, total); called from worker threads.
  std::function<void(size_t, size_t)> progress;
};

struct CampaignOutcome {
  std::vector<DetectionResult> results;  // parallel to the fault list
  double elapsed_seconds = 0.0;
  size_t detected_count() const;
};

/// Simulate every fault in `faults` against `stimulus` and report detection
/// per Eq. (3). `net` must be fault-free; it is not modified (workers use
/// clones).
CampaignOutcome run_detection_campaign(const snn::Network& net, const tensor::Tensor& stimulus,
                                       const std::vector<FaultDescriptor>& faults,
                                       const CampaignConfig& config = {});

}  // namespace snntest::fault
