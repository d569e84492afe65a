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
//  * ShardJob — the campaign inputs serialized once by the orchestrator
//    (job.bin) and read by every worker attempt: network, stimulus, fault
//    universe, engine settings. Workers derive their own shard range from
//    (shard_index, num_shards) via plan_shards, so the job file is shared
//    by all shards and retries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "fault/fault.hpp"
#include "snn/network.hpp"
#include "tensor/tensor.hpp"

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

/// The shared inputs of a sharded campaign — everything a worker needs to
/// reproduce its slice of the unsharded run bit-exactly.
struct ShardJob {
  snn::Network net{"uninitialized"};
  tensor::Tensor stimulus;  // [T, C] binary spike train
  std::vector<fault::FaultDescriptor> faults;
  EngineConfig engine;  // function hooks are NOT serialized (threads, lanes,
                        // threshold, detect_only, kernel_mode, grain are)
  std::string stimulus_name;
  bool store_stimulus_data = true;
};

/// Serialize / load a job file. save_job commits via atomic rename so a
/// worker can never observe a half-written job. load_job throws
/// std::runtime_error on a missing or malformed file, including an
/// out-of-range fault kind or kernel mode (the message names the field).
void save_job(const ShardJob& job, const std::string& path);
ShardJob load_job(const std::string& path);

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
