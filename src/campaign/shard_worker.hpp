// Shard worker: one process, one slice of the fault universe.
//
// run_shard_worker is the entry point behind `coverage_tool run-shard` (and
// the test binaries' self-exec worker mode). It loads the shared job from
// its work directory (model.snnt and job.snfd, campaign/shard.hpp), derives
// its fault range from (shard_index, num_shards) via plan_shards, and runs
// the differential engine over that slice, with the detection settings the
// job dictionary carries, with two hooks wired:
//
//  * result_cache <- the partial shard snapshot from a previous (killed)
//    attempt, when it holds exactly the job's stimulus, so every pair that
//    attempt committed is served as a lookup (EngineStats::pairs_reused)
//    instead of re-simulated;
//  * result_sink  -> records each freshly simulated pair into the shard
//    dictionary and, every `flush_every` results, commits a snapshot to
//    shard_<i>.partial.snfd by atomic rename. Records are only ever added,
//    so each flush grows the file — the supervisor's liveness signal.
//
// On completion the dictionary — keyed by the FULL universe fingerprint so
// shards merge — is committed to shard_<i>.snfd by atomic rename, the
// partial snapshot is removed, and worker stats are written. A SIGKILL at
// any point therefore loses at most the results since the last flush; the
// committed prefix survives in the partial file and the final file appears
// only complete, never torn.
//
// Exit codes: 0 success; 2 bad options; 3 job unreadable; 4 campaign
// incomplete (should not happen — the worker never cancels); uncaught
// exceptions print to stderr and return 1.
#pragma once

#include <cstddef>
#include <string>

namespace snntest::campaign {

struct ShardWorkerOptions {
  std::string work_dir;  ///< directory holding the job and the shard_<i>.* files
  size_t num_threads = 0;  ///< engine threads (0 = hardware concurrency)
  size_t shard_index = 0;
  size_t num_shards = 1;
  /// Freshly recorded results per partial-snapshot commit. Smaller = less
  /// work lost to a kill, more rename traffic. The supervisor counts a
  /// worker as hung when no flush lands within its heartbeat timeout.
  size_t flush_every = 16;

  // --- chaos hooks (integration tests / CI kill-and-recover drills) -------
  /// > 0: raise SIGKILL after this many freshly recorded results — an
  /// honest mid-campaign kill (no flush first).
  size_t crash_after = 0;
  /// > 0: stop making progress (sleep forever) after this many freshly
  /// recorded results, so the orchestrator's watchdog must kill this
  /// process.
  size_t hang_after = 0;
};

int run_shard_worker(const ShardWorkerOptions& options);

}  // namespace snntest::campaign
