#include "campaign/shard.hpp"

#include <sstream>
#include <stdexcept>

#include "snn/serialization.hpp"
#include "util/serialize.hpp"
#include "util/subprocess.hpp"

namespace snntest::campaign {
namespace {

constexpr uint32_t kJobMagic = 0x424A4E53;  // "SNJB"
// job.bin is rewritten by every run_sharded_campaign, so only the current
// version needs a reader. Version 6 moved the body into one CRC-guarded
// frame, bit-packs the stimulus and drops store_stimulus_data.
constexpr uint32_t kJobVersion = 6;

void write_fault(util::Writer& w, const fault::FaultDescriptor& f) {
  w.u32(static_cast<uint32_t>(f.kind));
  w.u64(f.neuron.layer);
  w.u64(f.neuron.index);
  w.u64(f.weight.layer);
  w.u64(f.weight.param);
  w.u64(f.weight.index);
  w.u32(f.connection_granularity ? 1u : 0u);
  w.u64(f.connection.layer);
  w.u64(f.connection.out_index);
  w.u64(f.connection.in_index);
  w.f32(f.magnitude);
}

fault::FaultDescriptor read_fault(util::Reader& r) {
  fault::FaultDescriptor f;
  f.kind = r.enumerator(fault::FaultKind::kSynapseBitFlip, "fault kind");
  f.neuron.layer = r.u64();
  f.neuron.index = r.u64();
  f.weight.layer = r.u64();
  f.weight.param = r.u64();
  f.weight.index = r.u64();
  f.connection_granularity = r.u32() != 0;
  f.connection.layer = r.u64();
  f.connection.out_index = r.u64();
  f.connection.in_index = r.u64();
  f.magnitude = r.f32();
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
  if (job.stimulus.shape().rank() != 2) {
    throw std::runtime_error("save_job: stimulus must be a [T, C] spike train");
  }
  util::Writer w;
  w.bytes(snn::serialize_network(job.net));
  w.u64(job.stimulus.shape().dim(0));
  w.u64(job.stimulus.shape().dim(1));
  w.bytes(util::pack_bits(job.stimulus.data(), job.stimulus.numel()));
  w.bytes(job.stimulus_name);

  w.u64(job.faults.size());
  for (const auto& f : job.faults) write_fault(w, f);

  w.u64(job.engine.num_threads);
  w.u64(job.engine.lane_width);
  w.f64(job.engine.detection_threshold);
  w.u32(job.engine.prefix_reuse ? 1u : 0u);
  w.u32(job.engine.convergence_pruning ? 1u : 0u);
  w.u32(job.engine.detect_only ? 1u : 0u);
  w.u32(static_cast<uint32_t>(job.engine.kernel_mode));
  w.u32(job.engine.frontier ? 1u : 0u);
  w.u64(job.engine.golden_cache_budget_bytes);
  util::atomic_write_file(path, util::frame_file(kJobMagic, kJobVersion, w.str()));
}

ShardJob load_job(const std::string& path) {
  const std::string file = util::read_file(path);
  util::Reader r = util::open_frame_file(file, kJobMagic, kJobVersion, path);

  ShardJob job;
  job.net = snn::deserialize_network(r.bytes(), path);

  const uint64_t T = r.u64();
  const uint64_t C = r.u64();
  const std::string_view packed = r.packed_bits(T, C);
  job.stimulus.resize_zero(tensor::Shape{T, C});
  util::unpack_bits(packed, job.stimulus.data(), job.stimulus.numel());
  job.stimulus_name = r.string();

  // No reserve: a count no file could hold fails at the first missing fault.
  const uint64_t num_faults = r.u64();
  for (uint64_t i = 0; i < num_faults; ++i) job.faults.push_back(read_fault(r));

  job.engine.num_threads = r.u64();
  job.engine.lane_width = r.u64();
  job.engine.detection_threshold = r.f64();
  job.engine.prefix_reuse = r.u32() != 0;
  job.engine.convergence_pruning = r.u32() != 0;
  job.engine.detect_only = r.u32() != 0;
  job.engine.kernel_mode = r.enumerator(snn::KernelMode::kAuto, "kernel mode");
  job.engine.frontier = r.u32() != 0;
  job.engine.golden_cache_budget_bytes = r.u64();
  r.expect_end();
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
