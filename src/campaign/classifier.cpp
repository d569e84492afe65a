// fault::classify_faults (declared in fault/classifier.hpp) on the
// differential campaign engine. Each evaluation sample is one full-result
// campaign over the whole fault list, so every faulty inference shares the
// sample's golden prefix, lane batches and convergence pruning. A faulty
// top-1 is decoded from the engine's per-class outputs: rate counts are
// golden counts + class_count_diff, TTFS reads class_first_spike.
#include <algorithm>
#include <mutex>

#include "campaign/engine.hpp"
#include "fault/classifier.hpp"
#include "util/timer.hpp"

namespace snntest::fault {

size_t ClassificationOutcome::critical_count() const {
  size_t n = 0;
  for (const auto& l : labels) n += l.critical;
  return n;
}

ClassificationOutcome classify_faults(const snn::Network& net,
                                      const std::vector<FaultDescriptor>& faults,
                                      const data::Dataset& dataset,
                                      const ClassifierConfig& config) {
  util::Timer timer;
  ClassificationOutcome outcome;
  outcome.labels.resize(faults.size());

  const size_t n_samples =
      config.max_samples == 0 ? dataset.size() : std::min(config.max_samples, dataset.size());
  const size_t total_pairs = faults.size() * n_samples;

  campaign::EngineConfig engine;
  engine.num_threads = config.num_threads;
  // The engine reports (done, faults) per campaign from worker threads;
  // offset it by the samples already finished and forward only new maxima,
  // so the caller sees one serialized, strictly increasing pair count.
  std::mutex progress_mutex;
  size_t pairs_before = 0;
  size_t reported = 0;
  if (config.progress) {
    engine.progress = [&](size_t done, size_t) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      if (pairs_before + done <= reported) return;
      reported = pairs_before + done;
      config.progress(reported, total_pairs);
    };
  }

  snn::Network golden_net(net);
  golden_net.set_kernel_mode(snn::KernelMode::kAuto);
  std::vector<size_t> faulty_correct(faults.size(), 0);
  size_t golden_correct = 0;
  for (size_t i = 0; i < n_samples; ++i) {
    const data::Sample sample = dataset.get(i);
    const snn::ForwardResult golden = golden_net.forward(sample.input);
    const std::vector<size_t> golden_counts = golden.output_counts();
    std::vector<size_t> counts(golden_counts.size());
    const size_t golden_pred = golden.predicted_class(config.decoding);
    golden_correct += golden_pred == sample.label;

    // Fold this sample's results into the per-fault tallies right away, so
    // only one CampaignResult is alive at a time. No fault is dropped after
    // its first flip: prediction_changes and accuracy_drop need every pair.
    const auto run = campaign::run_campaign(net, sample.input, faults, engine);
    for (size_t j = 0; j < faults.size(); ++j) {
      const DetectionResult& r = run.results[j];
      for (size_t c = 0; c < counts.size(); ++c) {
        counts[c] = static_cast<size_t>(static_cast<long>(golden_counts[c]) +
                                        r.class_count_diff[c]);
      }
      const size_t pred = snn::decode_class(counts, r.class_first_spike, config.decoding);
      if (pred != golden_pred) {
        outcome.labels[j].critical = true;
        ++outcome.labels[j].prediction_changes;
      }
      faulty_correct[j] += pred == sample.label;
    }
    std::lock_guard<std::mutex> lock(progress_mutex);
    pairs_before += faults.size();
  }
  outcome.golden_accuracy =
      n_samples ? static_cast<double>(golden_correct) / static_cast<double>(n_samples) : 0.0;
  for (size_t j = 0; j < faults.size(); ++j) {
    const double faulty_acc = n_samples ? static_cast<double>(faulty_correct[j]) /
                                              static_cast<double>(n_samples)
                                        : 0.0;
    outcome.labels[j].accuracy_drop = std::max(0.0, outcome.golden_accuracy - faulty_acc);
  }

  outcome.elapsed_seconds = timer.seconds();
  return outcome;
}

}  // namespace snntest::fault
