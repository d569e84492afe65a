// Critical/benign fault classification (paper Sec. III & Table II).
//
// "A fault is critical if it alters the top-1 prediction for at least one
// sample in the available dataset." Classification runs the full fault list
// against a set of dataset samples on the differential campaign engine
// (campaign/engine.hpp): one full-result campaign per sample over every
// fault, whose per-class count differences and first-spike frames decode
// each faulty top-1 without re-running the network (DESIGN.md §8). Per-fault
// we also record the accuracy drop, which feeds Table III's "maximum
// accuracy drop for undetected critical faults" row. The implementation
// lives in the campaign library (campaign/classifier.cpp).
#pragma once

#include <functional>
#include <vector>

#include "data/dataset.hpp"
#include "fault/injector.hpp"

namespace snntest::fault {

struct FaultClassification {
  bool critical = false;
  /// Number of evaluated samples whose top-1 changed under the fault.
  size_t prediction_changes = 0;
  /// (faulty mispredictions - golden mispredictions) / samples, clamped >= 0:
  /// the accuracy the device would lose if this fault escaped the test.
  double accuracy_drop = 0.0;
};

struct ClassifierConfig {
  /// Samples used for labelling (0 = whole dataset, and values above the
  /// dataset size are clamped to it). The paper uses the full dataset on an
  /// A100 over days; we default to a subset (DESIGN.md §2.4).
  size_t max_samples = 64;
  /// Engine worker threads (0 = hardware concurrency).
  size_t num_threads = 0;
  /// Output decoding used for the top-1 criterion (rate or TTFS —
  /// criticality depends on how the deployed model reads its outputs).
  snn::Decoding decoding = snn::Decoding::kRate;
  /// Progress callback (completed, total) over (fault, sample) pairs, with
  /// total = faults × evaluated samples. Calls are serialized, `completed`
  /// is strictly increasing, and the last call has completed == total. Not
  /// called when there is no pair to evaluate.
  std::function<void(size_t, size_t)> progress;
};

struct ClassificationOutcome {
  std::vector<FaultClassification> labels;  // parallel to the fault list
  double golden_accuracy = 0.0;
  double elapsed_seconds = 0.0;
  size_t critical_count() const;
};

ClassificationOutcome classify_faults(const snn::Network& net,
                                      const std::vector<FaultDescriptor>& faults,
                                      const data::Dataset& dataset,
                                      const ClassifierConfig& config = {});

}  // namespace snntest::fault
