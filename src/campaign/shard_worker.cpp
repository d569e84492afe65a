#include "campaign/shard_worker.hpp"

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>

#include "campaign/shard.hpp"
#include "coverage/incremental.hpp"
#include "obs/trace.hpp"
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

  ShardJob job;
  try {
    job = load_job(options.job_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shard worker: cannot load job %s: %s\n", options.job_path.c_str(),
                 e.what());
    return 3;
  }

  const ShardPaths paths = shard_paths(options.work_dir, options.shard_index);
  const ShardRange range = plan_shards(job.faults.size(), options.num_shards)[options.shard_index];

  // The shard dictionary is keyed by the FULL universe (model, fault list,
  // settings) so shard files merge with each other and with an unsharded
  // run; only the pairs in [range.begin, range.end) are ever recorded here.
  coverage::FaultDictionary dict = coverage::make_dictionary(
      job.net, job.faults, job.engine.detection_threshold, job.engine.detect_only);
  coverage::FaultDictionary::LoadStats load_stats;
  if (auto partial = coverage::FaultDictionary::load(paths.partial, &load_stats)) {
    if (partial->compatible_with(dict)) {
      dict = std::move(*partial);
      SNNTEST_LOG_INFO("shard %zu: resuming from partial snapshot (%zu records, %zu skipped)",
                       options.shard_index, dict.num_records(), load_stats.records_skipped);
    } else {
      SNNTEST_LOG_WARN("shard %zu: partial snapshot is for different campaign inputs; ignoring",
                       options.shard_index);
    }
  }

  coverage::StimulusEntry entry;
  entry.fingerprint = coverage::stimulus_fingerprint(job.stimulus);
  entry.duration_frames = job.stimulus.shape().dim(0);
  const size_t stim = [&] {
    if (auto existing = dict.find_stimulus(entry.fingerprint)) return *existing;
    entry.name = job.stimulus_name;
    entry.data = job.stimulus;
    return dict.add_stimulus(std::move(entry));
  }();

  const std::vector<fault::FaultDescriptor> shard_faults(job.faults.begin() + range.begin,
                                                         job.faults.begin() + range.end);
  EngineConfig engine = job.engine;
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

  const CampaignResult outcome = run_campaign(job.net, job.stimulus, shard_faults, engine);
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
