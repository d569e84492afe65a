// Sharded multi-process campaign orchestration with crash recovery.
//
// run_sharded_campaign splits one fault universe into N deterministic
// contiguous shards (campaign/shard.hpp), launches one worker *process* per
// shard, supervises them with a liveness watchdog, retries killed/crashed/
// hung shards with bounded exponential backoff, and merges the committed
// shard dictionaries into one FaultDictionary that is bit-identical to what
// a single unsharded incremental run would have produced (DESIGN.md §15
// carries the full identity argument).
//
// Process isolation is the point: a worker taken out by SIGKILL, an OOM
// reaper, or a wedged thread loses at most the results since its last
// partial-snapshot flush — the retry resumes from that snapshot
// (pairs_reused > 0) instead of starting the shard over, and the other
// shards never notice.
//
// Supervision protocol per shard:
//  * launch  — worker_command builds the argv (typically the current
//    executable re-exec'd with a `run-shard` subcommand); stdout/stderr go
//    to shard_<i>.log.
//  * liveness — the worker only ever adds records to its partial snapshot
//    shard_<i>.partial.snfd, so every flush changes the file's size. The
//    orchestrator tracks the last size *change* against its own steady
//    clock, so clock skew or mtime games cannot fake progress. No change
//    for heartbeat_timeout_seconds while the process is alive = hung:
//    SIGKILL, then retry.
//  * exit — success requires exit code 0 AND a shard_<i>.snfd that matches
//    the job (shard_matches_job) and holds every fault of the shard's
//    range. Anything else is a failed attempt.
//  * retry — failed attempts relaunch after 0.1 s × 2^(attempt-1), capped
//    at 2 s; more than max_retries failures abandons the campaign
//    (remaining workers are killed, completed=false).
//  * resume — shards whose final file is already committed for this job
//    and range are not launched at all, so re-running an interrupted
//    campaign only runs the missing shards. Files of shards past the
//    current shard count are removed before any launch.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "campaign/shard.hpp"
#include "coverage/fault_dictionary.hpp"
#include "snn/network.hpp"

namespace snntest::campaign {

/// Everything worker_command needs to build one worker invocation.
struct ShardLaunch {
  size_t shard_index = 0;
  size_t num_shards = 1;
  size_t attempt = 0;  ///< 0 on the first launch, +1 per retry
  std::string work_dir;
  size_t flush_every = 16;
};

struct OrchestratorConfig {
  /// Directory for the job files (job_paths) and all shard_<i>.* files;
  /// created (with parents) if missing. Required.
  std::string work_dir;
  /// Clamped to the fault count, so no worker is launched for an empty
  /// range.
  size_t num_shards = 2;
  /// Relaunches allowed per shard beyond the first attempt.
  size_t max_retries = 2;
  /// No growth of the worker's partial snapshot for this long while the
  /// process is alive means the worker is hung and gets killed. A healthy
  /// worker must flush at least once per timeout: start-up plus
  /// flush_every × the slowest per-fault time has to fit.
  double heartbeat_timeout_seconds = 60.0;
  /// Worker partial-snapshot cadence (ShardWorkerOptions::flush_every).
  size_t flush_every = 16;
  /// Build the argv for one worker attempt. Required. The default CLI
  /// wiring re-execs the current binary (default_worker_command); tests
  /// inject chaos flags for attempt 0 here.
  std::function<std::vector<std::string>(const ShardLaunch&)> worker_command;
};

/// Per-shard supervision summary.
struct ShardOutcome {
  size_t shard_index = 0;
  size_t attempts = 0;        ///< processes actually launched
  size_t hung_kills = 0;      ///< attempts killed by the liveness watchdog
  size_t failed_attempts = 0; ///< attempts that died or exited nonzero
  bool completed = false;
  bool reused_existing = false;  ///< final file predated this run
  ShardWorkerStats stats;        ///< from the committing attempt (if any)
};

struct OrchestratorResult {
  bool completed = false;
  /// The merged dictionary; meaningful only when completed. Saving it
  /// produces bytes identical to the unsharded incremental run.
  coverage::FaultDictionary merged;
  coverage::FaultDictionary::MergeStats merge_stats;
  std::vector<ShardOutcome> shards;
  double elapsed_seconds = 0.0;

  size_t total_attempts() const;
};

/// The standard worker argv: `exe run-shard --work-dir <dir> --shard <i>
/// --num-shards <n> --flush-every <k>`. Tools whose `run-shard`
/// subcommand follows this contract (coverage_tool, the test binaries'
/// self-exec mode) can use it directly:
///   config.worker_command = [exe](const ShardLaunch& l) {
///     return default_worker_command(l, exe);
///   };
std::vector<std::string> default_worker_command(const ShardLaunch& launch,
                                                const std::string& executable);

/// Run `job` — a record-less dictionary for `net` holding exactly one
/// embedded stimulus — sharded across config.num_shards worker processes,
/// which read it from job_paths(work_dir). Throws std::invalid_argument,
/// naming the problem, on an unusable config (empty work_dir or missing
/// worker_command) or job (another stimulus count, no spike data, records,
/// another model), and std::runtime_error when the work directory cannot be
/// created or the job cannot be written; supervision failures (crashes,
/// hangs, retry exhaustion) are reported via OrchestratorResult instead.
OrchestratorResult run_sharded_campaign(const snn::Network& net,
                                        const coverage::FaultDictionary& job,
                                        const OrchestratorConfig& config);

/// One shard of a campaign as its work directory shows it.
struct ShardProgress {
  enum class State { kNotStarted, kPartial, kCommitted };
  State state = State::kNotStarted;
  size_t faults = 0;  ///< size of the shard's plan_shards range
  /// kCommitted: faults; kPartial: records in the partial snapshot (a
  /// running or an interrupted worker); kNotStarted: 0.
  size_t done = 0;
};

/// Read a campaign's progress from disk alone, live or finished. The shard
/// count is the number of consecutive shard_<i>.log files (each launched
/// worker has one); ranges come from plan_shards over job.snfd's fault
/// count, and shard files count by the supervisor's rule for that job.
/// Throws std::runtime_error when job.snfd cannot be loaded.
std::vector<ShardProgress> read_shard_progress(const std::string& work_dir);

}  // namespace snntest::campaign
