#include "campaign/shard.hpp"

#include <sstream>

#include "util/serialize.hpp"

namespace snntest::campaign {

std::vector<ShardRange> plan_shards(size_t num_faults, size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  std::vector<ShardRange> plan(num_shards);
  const size_t base = num_faults / num_shards;
  const size_t extra = num_faults % num_shards;  // leading shards take one more
  size_t begin = 0;
  for (size_t i = 0; i < num_shards; ++i) {
    const size_t len = base + (i < extra ? 1 : 0);
    plan[i] = {begin, begin + len};
    begin += len;
  }
  return plan;
}

ShardPaths shard_paths(const std::string& work_dir, size_t shard_index) {
  const std::string stem = work_dir + "/shard_" + std::to_string(shard_index);
  ShardPaths p;
  p.final = stem + ".snfd";
  p.partial = stem + ".partial.snfd";
  p.stats = stem + ".stats";
  p.log = stem + ".log";
  return p;
}

JobPaths job_paths(const std::string& work_dir) {
  return {work_dir + "/model.snnt", work_dir + "/job.snfd"};
}

bool shard_matches_job(const coverage::FaultDictionary& shard,
                       const coverage::FaultDictionary& job) {
  return shard.compatible_with(job) && shard.num_stimuli() == 1 &&
         shard.stimulus(0).fingerprint == job.stimulus(0).fingerprint;
}

std::string serialize_worker_stats(const ShardWorkerStats& stats) {
  std::ostringstream os;
  os << "shard_index " << stats.shard_index << "\n"
     << "faults " << stats.faults << "\n"
     << "pairs_reused " << stats.pairs_reused << "\n"
     << "pairs_recorded " << stats.pairs_recorded << "\n"
     << "elapsed_seconds " << stats.elapsed_seconds << "\n";
  return os.str();
}

bool load_worker_stats(const std::string& path, ShardWorkerStats* stats) {
  std::istringstream in;
  try {
    in.str(util::read_file(path));
  } catch (const std::runtime_error&) {
    return false;
  }
  std::string key;
  while (in >> key) {
    if (key == "shard_index") {
      in >> stats->shard_index;
    } else if (key == "faults") {
      in >> stats->faults;
    } else if (key == "pairs_reused") {
      in >> stats->pairs_reused;
    } else if (key == "pairs_recorded") {
      in >> stats->pairs_recorded;
    } else if (key == "elapsed_seconds") {
      in >> stats->elapsed_seconds;
    } else {
      std::string ignored;
      std::getline(in, ignored);  // unknown key: skip the rest of the line
    }
    if (!in) break;
  }
  return true;
}

}  // namespace snntest::campaign
