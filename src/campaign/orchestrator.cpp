#include "campaign/orchestrator.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "campaign/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "snn/serialization.hpp"
#include "util/logging.hpp"
#include "util/subprocess.hpp"
#include "util/timer.hpp"

namespace snntest::campaign {
namespace {

using Clock = std::chrono::steady_clock;

// Supervision loop cadence, and the backoff before retry r (1-based):
// base x 2^(r-1), capped.
constexpr double kPollIntervalSeconds = 0.02;
constexpr double kRetryBackoffSeconds = 0.1;
constexpr double kRetryBackoffCapSeconds = 2.0;

/// Size of a worker's partial snapshot, 0 while absent. Records are only
/// ever added to it, so every flush changes the size — liveness is judged
/// on *changes*.
uint64_t file_size(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

/// A shard is committed iff its final file loads, matches the job and
/// holds every fault of `range`: a reused work dir may hold the files of
/// another stimulus or another shard count's ranges.
bool shard_committed(const ShardPaths& paths, const coverage::FaultDictionary& job,
                     const ShardRange& range) {
  const auto dict = coverage::FaultDictionary::load(paths.final);
  if (!dict || !shard_matches_job(*dict, job)) return false;
  for (size_t f = range.begin; f < range.end; ++f) {
    if (!dict->has(0, f)) return false;
  }
  return true;
}

/// Remove the shard_<i>.* files an earlier run with more shards left
/// behind, so status sees only the current plan.
void remove_stale_shards(const std::string& work_dir, size_t num_shards) {
  for (size_t i = num_shards;; ++i) {
    const ShardPaths paths = shard_paths(work_dir, i);
    bool removed = false;
    for (const std::string* file : {&paths.final, &paths.partial, &paths.stats, &paths.log}) {
      removed = std::remove(file->c_str()) == 0 || removed;
    }
    if (!removed) return;
  }
}

/// The job must be the inputs of one shardable campaign for `net`.
void check_job(const snn::Network& net, const coverage::FaultDictionary& job) {
  const auto require = [](bool ok, const char* problem) {
    if (!ok) throw std::invalid_argument(std::string("orchestrator: job ") + problem);
  };
  require(job.num_stimuli() == 1, "must hold exactly one stimulus");
  require(job.stimulus(0).has_data(), "stimulus has no spike data");
  require(job.num_records() == 0, "must hold no records");
  require(job.model_fingerprint == model_fingerprint(net), "is for another model");
}

struct ShardState {
  enum class Phase { kPending, kRunning, kBackoff, kDone, kAbandoned };
  Phase phase = Phase::kPending;
  pid_t pid = -1;
  size_t attempts = 0;  // launches so far
  Clock::time_point retry_at{};
  uint64_t last_partial_size = 0;
  Clock::time_point last_progress{};
  ShardOutcome outcome;
};

}  // namespace

size_t OrchestratorResult::total_attempts() const {
  size_t n = 0;
  for (const ShardOutcome& s : shards) n += s.attempts;
  return n;
}

std::vector<std::string> default_worker_command(const ShardLaunch& launch,
                                                const std::string& executable) {
  return {executable,
          "run-shard",
          "--work-dir",
          launch.work_dir,
          "--shard",
          std::to_string(launch.shard_index),
          "--num-shards",
          std::to_string(launch.num_shards),
          "--flush-every",
          std::to_string(launch.flush_every)};
}

OrchestratorResult run_sharded_campaign(const snn::Network& net,
                                        const coverage::FaultDictionary& job,
                                        const OrchestratorConfig& config) {
  OBS_SPAN("campaign/orchestrate");
  if (config.work_dir.empty()) {
    throw std::invalid_argument("orchestrator: work_dir is required");
  }
  if (!config.worker_command) {
    throw std::invalid_argument("orchestrator: worker_command is required");
  }
  check_job(net, job);
  // More shards than faults would only launch workers for empty ranges.
  const size_t num_shards =
      std::min(std::max<size_t>(config.num_shards, 1), std::max<size_t>(job.num_faults(), 1));
  const std::vector<ShardRange> plan = plan_shards(job.num_faults(), num_shards);

  util::Timer timer;
  std::filesystem::create_directories(config.work_dir);
  const JobPaths job_files = job_paths(config.work_dir);
  snn::save_network(net, job_files.model);
  job.save(job_files.dictionary);
  remove_stale_shards(config.work_dir, num_shards);

  obs::Registry& reg = obs::Registry::instance();
  std::vector<ShardState> shards(num_shards);
  size_t incomplete = 0;
  for (size_t i = 0; i < num_shards; ++i) {
    shards[i].outcome.shard_index = i;
    const ShardPaths paths = shard_paths(config.work_dir, i);
    // Shards committed by an earlier run of the same job are not rerun.
    if (shard_committed(paths, job, plan[i])) {
      shards[i].phase = ShardState::Phase::kDone;
      shards[i].outcome.completed = true;
      shards[i].outcome.reused_existing = true;
      load_worker_stats(paths.stats, &shards[i].outcome.stats);
      reg.counter("orchestrator/shards_reused").add();
      SNNTEST_LOG_INFO("orchestrator: shard %zu already committed, skipping", i);
    } else {
      ++incomplete;
    }
  }

  const auto backoff = [](size_t retry_number) {
    double s = kRetryBackoffSeconds;
    for (size_t i = 1; i < retry_number; ++i) s *= 2.0;
    if (s > kRetryBackoffCapSeconds) s = kRetryBackoffCapSeconds;
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };

  const auto launch = [&](size_t i) {
    ShardState& st = shards[i];
    ShardLaunch info;
    info.shard_index = i;
    info.num_shards = num_shards;
    info.attempt = st.attempts;
    info.work_dir = config.work_dir;
    info.flush_every = config.flush_every;
    const std::vector<std::string> argv = config.worker_command(info);
    util::SpawnOptions opts;
    opts.log_path = shard_paths(config.work_dir, i).log;
    st.pid = util::spawn_process(argv, opts);
    ++st.attempts;
    st.outcome.attempts = st.attempts;
    st.phase = ShardState::Phase::kRunning;
    st.last_partial_size = file_size(shard_paths(config.work_dir, i).partial);
    st.last_progress = Clock::now();
    reg.counter("orchestrator/worker_launches").add();
  };

  // One attempt ended (exit observed or watchdog kill): commit, retry, or
  // abandon. Returns false when the shard is out of retries.
  const auto attempt_ended = [&](size_t i, bool was_hung) -> bool {
    ShardState& st = shards[i];
    const ShardPaths paths = shard_paths(config.work_dir, i);
    if (!was_hung && shard_committed(paths, job, plan[i])) {
      st.phase = ShardState::Phase::kDone;
      st.outcome.completed = true;
      load_worker_stats(paths.stats, &st.outcome.stats);
      reg.counter("orchestrator/shards_completed").add();
      return true;
    }
    ++st.outcome.failed_attempts;
    if (was_hung) ++st.outcome.hung_kills;
    reg.counter(was_hung ? "orchestrator/workers_hung" : "orchestrator/workers_failed").add();
    if (st.attempts > config.max_retries) {
      st.phase = ShardState::Phase::kAbandoned;
      SNNTEST_LOG_WARN("orchestrator: shard %zu abandoned after %zu attempts", i, st.attempts);
      return false;
    }
    st.phase = ShardState::Phase::kBackoff;
    st.retry_at = Clock::now() + backoff(st.attempts);
    reg.counter("orchestrator/worker_retries").add();
    SNNTEST_LOG_INFO("orchestrator: shard %zu attempt %zu %s, retrying", i, st.attempts,
                     was_hung ? "hung (killed)" : "failed");
    return true;
  };

  const auto heartbeat_timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config.heartbeat_timeout_seconds));

  bool abandoned = false;
  while (incomplete > 0 && !abandoned) {
    for (size_t i = 0; i < num_shards && !abandoned; ++i) {
      ShardState& st = shards[i];
      switch (st.phase) {
        case ShardState::Phase::kPending:
          launch(i);
          break;
        case ShardState::Phase::kBackoff:
          if (Clock::now() >= st.retry_at) launch(i);
          break;
        case ShardState::Phase::kRunning: {
          const util::ProcessStatus ps = util::poll_process(st.pid);
          if (!ps.running) {
            st.pid = -1;
            abandoned = !attempt_ended(i, /*was_hung=*/false);
            if (st.phase == ShardState::Phase::kDone) --incomplete;
            break;
          }
          const uint64_t size = file_size(shard_paths(config.work_dir, i).partial);
          const auto now = Clock::now();
          if (size != st.last_partial_size) {
            st.last_partial_size = size;
            st.last_progress = now;
          } else if (now - st.last_progress > heartbeat_timeout) {
            util::kill_process(st.pid);
            util::wait_process(st.pid);  // reap; also bars a post-kill commit race
            st.pid = -1;
            abandoned = !attempt_ended(i, /*was_hung=*/true);
          }
          break;
        }
        case ShardState::Phase::kDone:
        case ShardState::Phase::kAbandoned:
          break;
      }
    }
    if (incomplete > 0 && !abandoned) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kPollIntervalSeconds));
    }
  }

  // Abandoning one shard abandons the campaign: kill whatever still runs.
  if (abandoned) {
    for (ShardState& st : shards) {
      if (st.phase == ShardState::Phase::kRunning && st.pid > 0) {
        util::kill_process(st.pid);
        util::wait_process(st.pid);
        st.pid = -1;
        ++st.outcome.failed_attempts;
      }
    }
  }

  OrchestratorResult result;
  result.shards.reserve(num_shards);
  for (ShardState& st : shards) result.shards.push_back(st.outcome);
  result.completed = !abandoned;

  if (result.completed) {
    OBS_SPAN("campaign/orchestrate_merge");
    result.merged = job;
    for (size_t i = 0; i < num_shards; ++i) {
      const auto dict = coverage::FaultDictionary::load(shard_paths(config.work_dir, i).final);
      if (!dict || !shard_matches_job(*dict, job)) {
        // Should be unreachable: kDone required a committed file moments ago.
        SNNTEST_LOG_WARN("orchestrator: shard %zu file vanished before merge", i);
        result.completed = false;
        break;
      }
      const coverage::FaultDictionary::MergeStats ms = result.merged.merge(*dict);
      result.merge_stats.records_added += ms.records_added;
      result.merge_stats.duplicates_agreeing += ms.duplicates_agreeing;
      result.merge_stats.conflicts_skipped += ms.conflicts_skipped;
      result.merge_stats.stimuli_added += ms.stimuli_added;
    }
  }

  result.elapsed_seconds = timer.seconds();

  obs::set_report_field("orchestrator.num_shards", static_cast<uint64_t>(num_shards));
  obs::set_report_field("orchestrator.total_attempts",
                        static_cast<uint64_t>(result.total_attempts()));
  obs::set_report_field("orchestrator.completed", result.completed);
  obs::set_report_field("orchestrator.elapsed_seconds", result.elapsed_seconds);
  return result;
}

std::vector<ShardProgress> read_shard_progress(const std::string& work_dir) {
  const std::string job_path = job_paths(work_dir).dictionary;
  const auto job = coverage::FaultDictionary::load(job_path);
  if (!job) throw std::runtime_error(job_path + ": cannot load the job dictionary");
  size_t num_shards = 0;
  while (::access(shard_paths(work_dir, num_shards).log.c_str(), F_OK) == 0) ++num_shards;
  std::vector<ShardProgress> out;
  if (num_shards == 0) return out;  // no worker launched yet
  for (const ShardRange& range : plan_shards(job->num_faults(), num_shards)) {
    const ShardPaths paths = shard_paths(work_dir, out.size());
    ShardProgress p;
    p.faults = range.size();
    if (shard_committed(paths, *job, range)) {
      p.state = ShardProgress::State::kCommitted;
      p.done = p.faults;
    } else if (const auto partial = coverage::FaultDictionary::load(paths.partial);
               partial && shard_matches_job(*partial, *job)) {
      p.state = ShardProgress::State::kPartial;
      p.done = partial->num_records();
    }
    out.push_back(p);
  }
  return out;
}

}  // namespace snntest::campaign
