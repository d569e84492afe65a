#include "campaign/shard_worker.hpp"

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <optional>
#include <thread>

#include "campaign/engine.hpp"
#include "campaign/fingerprint.hpp"
#include "campaign/shard.hpp"
#include "obs/trace.hpp"
#include "snn/serialization.hpp"
#include "util/logging.hpp"
#include "util/subprocess.hpp"
#include "util/timer.hpp"

namespace snntest::campaign {

int run_shard_worker(const ShardWorkerOptions& options) {
  OBS_SPAN("campaign/shard_worker");
  util::Timer timer;
  if (options.num_shards == 0 || options.shard_index >= options.num_shards) {
    std::fprintf(stderr, "shard worker: shard %zu out of range (num_shards %zu)\n",
                 options.shard_index, options.num_shards);
    return 2;
  }

  const JobPaths job_files = job_paths(options.work_dir);
  snn::Network net;
  try {
    net = snn::load_network(job_files.model);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shard worker: cannot load model: %s\n", e.what());
    return 3;
  }
  const std::optional<coverage::FaultDictionary> job =
      coverage::FaultDictionary::load(job_files.dictionary);
  if (!job || job->num_stimuli() != 1 || !job->stimulus(0).has_data() ||
      job->model_fingerprint != model_fingerprint(net)) {
    std::fprintf(stderr,
                 "shard worker: %s is not a job for %s (one embedded stimulus, same model)\n",
                 job_files.dictionary.c_str(), job_files.model.c_str());
    return 3;
  }

  const ShardPaths paths = shard_paths(options.work_dir, options.shard_index);
  const ShardRange range = plan_shards(job->num_faults(), options.num_shards)[options.shard_index];

  // The shard dictionary starts as the job: keyed by the FULL universe
  // (model, fault list, settings) with the job's stimulus at index 0, so
  // shard files merge with each other and with an unsharded run; only the
  // pairs in [range.begin, range.end) are ever recorded here.
  coverage::FaultDictionary dict = *job;
  const size_t stim = 0;
  coverage::FaultDictionary::LoadStats load_stats;
  if (auto partial = coverage::FaultDictionary::load(paths.partial, &load_stats)) {
    if (shard_matches_job(*partial, *job)) {
      dict = std::move(*partial);
      SNNTEST_LOG_INFO("shard %zu: resuming from partial snapshot (%zu records, %zu skipped)",
                       options.shard_index, dict.num_records(), load_stats.records_skipped);
    } else {
      SNNTEST_LOG_WARN("shard %zu: partial snapshot is for different campaign inputs; ignoring",
                       options.shard_index);
    }
  }

  const std::vector<fault::FaultDescriptor> shard_faults(job->faults().begin() + range.begin,
                                                         job->faults().begin() + range.end);
  EngineConfig engine;
  engine.num_threads = options.num_threads;
  engine.detection_threshold = job->detection_threshold;
  engine.detect_only = job->detect_only;
  engine.result_cache = [&dict, stim, &range](size_t local, fault::DetectionResult& out) {
    const fault::DetectionResult* known = dict.lookup(stim, range.begin + local);
    if (known == nullptr) return false;
    out = *known;
    return true;
  };
  size_t recorded = 0, pending = 0;

  engine.result_sink = [&](size_t local, const fault::DetectionResult& result) {
    dict.record(stim, range.begin + local, result);
    ++recorded;
    if (options.crash_after != 0 && recorded >= options.crash_after) {
      raise(SIGKILL);  // chaos hook: die exactly as an OOM-killed worker would
    }
    if (options.hang_after != 0 && recorded >= options.hang_after) {
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
    }
    if (++pending >= options.flush_every) {
      dict.save(paths.partial);
      pending = 0;
    }
  };

  const CampaignResult outcome =
      run_campaign(net, job->stimulus(stim).data, shard_faults, engine);
  if (!outcome.completed) {
    std::fprintf(stderr, "shard worker: campaign incomplete (shard %zu)\n", options.shard_index);
    return 4;
  }

  // Commit: final file appears atomically; the partial snapshot is now
  // redundant (best-effort removal — a leftover is ignored by both sides).
  dict.save(paths.final);
  std::remove(paths.partial.c_str());

  ShardWorkerStats stats;
  stats.shard_index = options.shard_index;
  stats.faults = range.size();
  stats.pairs_reused = outcome.stats.pairs_reused;
  stats.pairs_recorded = recorded;
  stats.elapsed_seconds = timer.seconds();
  util::atomic_write_file(paths.stats, serialize_worker_stats(stats));

  std::printf("shard %zu/%zu: %zu faults, %llu reused, %llu simulated in %.3fs\n",
              options.shard_index, options.num_shards, range.size(),
              static_cast<unsigned long long>(stats.pairs_reused),
              static_cast<unsigned long long>(stats.pairs_recorded), stats.elapsed_seconds);
  return 0;
}

}  // namespace snntest::campaign
