#include "campaign/shard.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "snn/serialization.hpp"
#include "util/serialize.hpp"
#include "util/subprocess.hpp"

namespace snntest::campaign {
namespace {

constexpr uint32_t kJobMagic = 0x424A4E53;  // "SNJB"
// job.bin is rewritten by every run_sharded_campaign, so only the current
// version needs a reader. Version 5 dropped the grain and the two frontier
// tuning fields that version 4 carried.
constexpr uint32_t kJobVersion = 5;

/// Read a u32 enum field, rejecting values past `max` instead of letting a
/// static_cast wrap them into some other valid enumerator.
uint32_t read_enum(std::istream& is, uint32_t max, const char* field) {
  const uint32_t v = util::read_u32(is);
  if (v > max) {
    throw std::runtime_error(std::string("load_job: ") + field + " " + std::to_string(v) +
                             " out of range (max " + std::to_string(max) + ")");
  }
  return v;
}

void write_fault(std::ostream& os, const fault::FaultDescriptor& f) {
  util::write_u32(os, static_cast<uint32_t>(f.kind));
  util::write_u64(os, f.neuron.layer);
  util::write_u64(os, f.neuron.index);
  util::write_u64(os, f.weight.layer);
  util::write_u64(os, f.weight.param);
  util::write_u64(os, f.weight.index);
  util::write_u32(os, f.connection_granularity ? 1u : 0u);
  util::write_u64(os, f.connection.layer);
  util::write_u64(os, f.connection.out_index);
  util::write_u64(os, f.connection.in_index);
  util::write_f32(os, f.magnitude);
}

fault::FaultDescriptor read_fault(std::istream& is) {
  fault::FaultDescriptor f;
  f.kind = static_cast<fault::FaultKind>(
      read_enum(is, static_cast<uint32_t>(fault::FaultKind::kSynapseBitFlip), "fault kind"));
  f.neuron.layer = util::read_u64(is);
  f.neuron.index = util::read_u64(is);
  f.weight.layer = util::read_u64(is);
  f.weight.param = util::read_u64(is);
  f.weight.index = util::read_u64(is);
  f.connection_granularity = util::read_u32(is) != 0;
  f.connection.layer = util::read_u64(is);
  f.connection.out_index = util::read_u64(is);
  f.connection.in_index = util::read_u64(is);
  f.magnitude = util::read_f32(is);
  return f;
}

}  // namespace

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

void save_job(const ShardJob& job, const std::string& path) {
  std::ostringstream os;
  util::write_magic(os, kJobMagic, kJobVersion);
  snn::save_network(job.net, os);

  if (job.stimulus.shape().rank() != 2) {
    throw std::runtime_error("save_job: stimulus must be a [T, C] spike train");
  }
  util::write_u64(os, job.stimulus.shape().dim(0));
  util::write_u64(os, job.stimulus.shape().dim(1));
  std::vector<float> data(job.stimulus.data(), job.stimulus.data() + job.stimulus.numel());
  util::write_f32_vector(os, data);
  util::write_string(os, job.stimulus_name);
  util::write_u32(os, job.store_stimulus_data ? 1u : 0u);

  util::write_u64(os, job.faults.size());
  for (const auto& f : job.faults) write_fault(os, f);

  util::write_u64(os, job.engine.num_threads);
  util::write_u64(os, job.engine.lane_width);
  util::write_f64(os, job.engine.detection_threshold);
  util::write_u32(os, job.engine.prefix_reuse ? 1u : 0u);
  util::write_u32(os, job.engine.convergence_pruning ? 1u : 0u);
  util::write_u32(os, job.engine.detect_only ? 1u : 0u);
  util::write_u32(os, static_cast<uint32_t>(job.engine.kernel_mode));
  util::write_u32(os, job.engine.frontier ? 1u : 0u);
  util::write_u64(os, job.engine.golden_cache_budget_bytes);
  util::atomic_write_file(path, os.str());
}

ShardJob load_job(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_job: cannot open " + path);
  util::check_magic(is, kJobMagic, kJobVersion);

  ShardJob job;
  job.net = snn::load_network(is);

  const uint64_t T = util::read_u64(is);
  const uint64_t C = util::read_u64(is);
  const std::vector<float> data = util::read_f32_vector(is);
  if (data.size() != T * C) throw std::runtime_error("load_job: stimulus size mismatch");
  job.stimulus.resize_zero(tensor::Shape{static_cast<size_t>(T), static_cast<size_t>(C)});
  std::copy(data.begin(), data.end(), job.stimulus.data());
  job.stimulus_name = util::read_string(is);
  job.store_stimulus_data = util::read_u32(is) != 0;

  const uint64_t num_faults = util::read_u64(is);
  job.faults.reserve(num_faults);
  for (uint64_t i = 0; i < num_faults; ++i) job.faults.push_back(read_fault(is));

  job.engine.num_threads = util::read_u64(is);
  job.engine.lane_width = util::read_u64(is);
  job.engine.detection_threshold = util::read_f64(is);
  job.engine.prefix_reuse = util::read_u32(is) != 0;
  job.engine.convergence_pruning = util::read_u32(is) != 0;
  job.engine.detect_only = util::read_u32(is) != 0;
  job.engine.kernel_mode = static_cast<snn::KernelMode>(
      read_enum(is, static_cast<uint32_t>(snn::KernelMode::kAuto), "kernel mode"));
  job.engine.frontier = util::read_u32(is) != 0;
  job.engine.golden_cache_budget_bytes = util::read_u64(is);
  return job;
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
  std::ifstream in(path);
  if (!in) return false;
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
