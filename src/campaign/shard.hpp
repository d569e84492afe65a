// Shard planning and the shard-worker job protocol.
//
// A sharded campaign (campaign/orchestrator.hpp) partitions one fault
// universe across N independent worker *processes*. Everything both sides
// must agree on lives here so the orchestrator and the worker can never
// drift apart:
//
//  * plan_shards — the deterministic partitioning rule. Shard i of S over a
//    universe of F faults owns the contiguous index range
//    [i*⌈F/S⌉ … min(F, (i+1)*⌈F/S⌉)) computed greedily with the remainder
//    spread over the leading shards; every fault belongs to exactly one
//    shard and the plan depends only on (F, S).
//  * shard_paths — the file naming rule inside a campaign work directory:
//    shard_<i>.snfd (committed result, written only by atomic rename),
//    shard_<i>.partial.snfd (crash-recovery snapshot, also atomic; its
//    growth is the worker's liveness signal), shard_<i>.stats (worker
//    stats) and shard_<i>.log (worker stdout/stderr).
//  * job_paths — the job the orchestrator writes once and every worker
//    attempt reads: model.snnt (the network, snn::save_network) and
//    job.snfd (a record-less fault dictionary holding the fault universe,
//    the detection settings and the one stimulus). Workers derive their own
//    shard range from (shard_index, num_shards) via plan_shards, so the job
//    is shared by all shards and retries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coverage/fault_dictionary.hpp"


namespace snntest::campaign {

struct ShardRange {
  size_t begin = 0;
  size_t end = 0;  // exclusive
  size_t size() const { return end - begin; }
};

/// Partition [0, num_faults) into `num_shards` contiguous ranges whose
/// sizes differ by at most one (leading shards take the remainder). Always
/// returns exactly num_shards ranges; trailing ranges are empty when
/// num_shards > num_faults. num_shards == 0 is treated as 1.
std::vector<ShardRange> plan_shards(size_t num_faults, size_t num_shards);

/// Canonical file layout of one shard inside a campaign work directory.
struct ShardPaths {
  std::string final;    ///< committed shard dictionary (atomic rename only)
  std::string partial;  ///< crash-recovery snapshot (atomic rename only)
  std::string stats;    ///< key-value worker stats (attempt that committed)
  std::string log;      ///< worker stdout+stderr
};

ShardPaths shard_paths(const std::string& work_dir, size_t shard_index);

/// The job files of a sharded campaign inside its work directory.
struct JobPaths {
  std::string model;       ///< model.snnt: the network
  std::string dictionary;  ///< job.snfd: universe, detection settings, stimulus
};

JobPaths job_paths(const std::string& work_dir);

/// Is `shard` (a shard's final or partial file) a result of `job`: the same
/// model, universe and detection settings, and exactly the job's one
/// stimulus? Files an earlier campaign left in a reused work dir are not.
bool shard_matches_job(const coverage::FaultDictionary& shard,
                       const coverage::FaultDictionary& job);

/// Worker stats committed next to the final shard file (plain "key value"
/// lines — see shard_worker.cpp). Unknown keys are ignored so the format
/// can grow.
struct ShardWorkerStats {
  uint64_t shard_index = 0;
  uint64_t faults = 0;          ///< shard range size
  uint64_t pairs_reused = 0;    ///< served from the partial snapshot on retry
  uint64_t pairs_recorded = 0;  ///< simulated fresh by the committing attempt
  double elapsed_seconds = 0.0;
};

std::string serialize_worker_stats(const ShardWorkerStats& stats);
/// False when the file is missing/unreadable (fields keep their defaults).
bool load_worker_stats(const std::string& path, ShardWorkerStats* stats);

}  // namespace snntest::campaign
