// Test-support oracle for fault labelling (paper Sec. III, Table II).
//
// naive_classify is the classifier's original simulation loop: for every
// (fault, sample) pair it injects the fault into a network clone through
// ScopedFault and runs one full Network::forward with dense kernels — no
// golden prefix, no lanes, no convergence pruning, no threads. Its only
// code in common with the campaign engine is the fault table that
// ScopedFault injects through, pinned on its own by InjectorKindTest
// (tests/test_fault.cpp). So fault::classify_faults reproducing its labels
// and golden accuracy exactly is a meaningful identity check.
#pragma once

#include <algorithm>
#include <vector>

#include "data/dataset.hpp"
#include "fault/classifier.hpp"
#include "fault/injector.hpp"
#include "fault/registry.hpp"

namespace snntest::test_support {

/// Labels `faults` over the first config.max_samples samples of `dataset`
/// (0 = all, clamped to the dataset size) under config.decoding. The other
/// ClassifierConfig fields (threads, kernel mode, progress) are ignored.
inline fault::ClassificationOutcome naive_classify(const snn::Network& net,
                                                   const std::vector<fault::FaultDescriptor>& faults,
                                                   const data::Dataset& dataset,
                                                   const fault::ClassifierConfig& config) {
  fault::ClassificationOutcome outcome;
  outcome.labels.resize(faults.size());
  const size_t n_samples =
      config.max_samples == 0 ? dataset.size() : std::min(config.max_samples, dataset.size());
  std::vector<data::Sample> samples;
  for (size_t i = 0; i < n_samples; ++i) samples.push_back(dataset.get(i));

  snn::Network worker(net);
  worker.set_kernel_mode(snn::KernelMode::kDense);
  std::vector<size_t> golden_pred(n_samples);
  size_t golden_correct = 0;
  for (size_t i = 0; i < n_samples; ++i) {
    golden_pred[i] = worker.forward(samples[i].input).predicted_class(config.decoding);
    golden_correct += golden_pred[i] == samples[i].label;
  }
  outcome.golden_accuracy =
      n_samples ? static_cast<double>(golden_correct) / static_cast<double>(n_samples) : 0.0;

  fault::FaultInjector injector(worker, fault::compute_weight_stats(worker));
  for (size_t j = 0; j < faults.size(); ++j) {
    fault::ScopedFault scoped(injector, faults[j]);
    fault::FaultClassification& label = outcome.labels[j];
    size_t faulty_correct = 0;
    for (size_t i = 0; i < n_samples; ++i) {
      const size_t pred = worker.forward(samples[i].input).predicted_class(config.decoding);
      if (pred != golden_pred[i]) {
        label.critical = true;
        ++label.prediction_changes;
      }
      faulty_correct += pred == samples[i].label;
    }
    const double faulty_acc =
        n_samples ? static_cast<double>(faulty_correct) / static_cast<double>(n_samples) : 0.0;
    label.accuracy_drop = std::max(0.0, outcome.golden_accuracy - faulty_acc);
  }
  return outcome;
}

}  // namespace snntest::test_support
