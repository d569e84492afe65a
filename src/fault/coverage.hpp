// Fault-coverage accounting (Eq. (4) and the Table III metric rows).
//
// Joins detection results (did the test stimulus expose the fault?) with
// criticality labels (does the fault matter for the application?) into the
// four coverage figures the paper reports: FC over critical/benign x
// neuron/synapse faults, plus the worst-case accuracy drop of undetected
// critical faults.
#pragma once

#include <string>
#include <vector>

#include "fault/detection_result.hpp"
#include "fault/classifier.hpp"

namespace snntest::fault {

struct CoverageCell {
  size_t detected = 0;
  size_t total = 0;
  double coverage() const {
    return total == 0 ? 1.0 : static_cast<double>(detected) / static_cast<double>(total);
  }
};

struct CoverageReport {
  CoverageCell critical_neuron;
  CoverageCell critical_synapse;
  CoverageCell benign_neuron;
  CoverageCell benign_synapse;
  /// Overall FC per Eq. (4), ignoring criticality.
  CoverageCell overall;
  /// Worst accuracy drop among *undetected critical* faults (test escapes),
  /// split neuron / synapse as in the last row of Table III.
  double max_escape_accuracy_drop_neuron = 0.0;
  double max_escape_accuracy_drop_synapse = 0.0;

  std::string to_string() const;
};

/// `faults`, `detections` and `labels` must be parallel arrays.
CoverageReport build_coverage_report(const std::vector<FaultDescriptor>& faults,
                                     const std::vector<DetectionResult>& detections,
                                     const std::vector<FaultClassification>& labels);

/// Coverage without criticality labels (plain Eq. (4)).
double fault_coverage(const std::vector<DetectionResult>& detections);

}  // namespace snntest::fault
