#include "core/test_stimulus.hpp"

#include <stdexcept>

#include "snn/spike_train.hpp"
#include "util/serialize.hpp"
#include "util/subprocess.hpp"

namespace snntest::core {
namespace {
constexpr uint32_t kMagic = 0x53544D53;  // "STMS"
// Version 2 moved the version-1 body into one CRC-guarded frame.
constexpr uint32_t kVersion = 2;
}  // namespace

void TestStimulus::add_chunk(Tensor chunk) {
  if (chunk.shape().rank() != 2) {
    throw std::invalid_argument("TestStimulus::add_chunk: chunk must be [T, N]");
  }
  if (num_channels_ == 0) num_channels_ = chunk.shape().dim(1);
  if (chunk.shape().dim(1) != num_channels_) {
    throw std::invalid_argument("TestStimulus::add_chunk: channel-count mismatch");
  }
  chunks_.push_back(std::move(chunk));
}

size_t TestStimulus::total_steps() const {
  // Eq. (8): every chunk except the last is followed by an equal-length
  // sleep separator.
  size_t steps = 0;
  for (size_t j = 0; j < chunks_.size(); ++j) {
    steps += chunks_[j].shape().dim(0);
    if (j + 1 < chunks_.size()) steps += chunks_[j].shape().dim(0);
  }
  return steps;
}

size_t TestStimulus::chunk_steps() const {
  size_t steps = 0;
  for (const auto& c : chunks_) steps += c.shape().dim(0);
  return steps;
}

Tensor TestStimulus::assemble() const {
  if (chunks_.empty()) throw std::logic_error("TestStimulus::assemble: no chunks");
  std::vector<Tensor> parts;
  parts.reserve(2 * chunks_.size() - 1);
  for (size_t j = 0; j < chunks_.size(); ++j) {
    parts.push_back(chunks_[j]);
    if (j + 1 < chunks_.size()) {
      parts.push_back(snn::zero_train(chunks_[j].shape().dim(0), num_channels_));
    }
  }
  return snn::concat_time(parts);
}

double TestStimulus::duration_in_samples(size_t steps_per_sample) const {
  if (steps_per_sample == 0) throw std::invalid_argument("duration_in_samples: zero divisor");
  return static_cast<double>(chunk_steps()) / static_cast<double>(steps_per_sample);
}

double TestStimulus::total_duration_in_samples(size_t steps_per_sample) const {
  if (steps_per_sample == 0) throw std::invalid_argument("duration_in_samples: zero divisor");
  return static_cast<double>(total_steps()) / static_cast<double>(steps_per_sample);
}

double TestStimulus::spike_density() const {
  size_t ones = 0;
  size_t cells = 0;
  for (const auto& c : chunks_) {
    ones += c.count_nonzero();
    cells += c.numel();
  }
  // separators are all zero but occupy time
  const size_t sep_cells = (total_steps() - chunk_steps()) * num_channels_;
  cells += sep_cells;
  return cells == 0 ? 0.0 : static_cast<double>(ones) / static_cast<double>(cells);
}

std::string TestStimulus::serialize() const {
  util::Writer w;
  w.u64(num_channels_);
  w.u32(static_cast<uint32_t>(chunks_.size()));
  for (const auto& c : chunks_) {
    w.u64(c.shape().dim(0));
    w.bytes(util::pack_bits(c.data(), c.numel()));
  }
  return util::frame_file(kMagic, kVersion, w.str());
}

void TestStimulus::save(const std::string& path) const {
  util::atomic_write_file(path, serialize());
}

TestStimulus TestStimulus::deserialize(std::string_view bytes, const std::string& source) {
  util::Reader r = util::open_frame_file(bytes, kMagic, kVersion, source);
  TestStimulus stimulus;
  stimulus.num_channels_ = r.u64();
  const uint32_t count = r.u32();
  for (uint32_t j = 0; j < count; ++j) {
    const uint64_t steps = r.u64();
    const std::string_view packed = r.packed_bits(steps, stimulus.num_channels_);
    Tensor chunk(Shape{steps, stimulus.num_channels_});
    util::unpack_bits(packed, chunk.data(), chunk.numel());
    stimulus.chunks_.push_back(std::move(chunk));
  }
  r.expect_end();
  return stimulus;
}

TestStimulus TestStimulus::load(const std::string& path) {
  return deserialize(util::read_file(path), path);
}

}  // namespace snntest::core
