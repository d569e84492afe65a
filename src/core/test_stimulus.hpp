// The generated test stimulus (Eqs. (7)-(8)).
//
// The final test is the concatenation of the optimized input chunks
// interleaved with equal-length zero ("sleep") inputs that let the membrane
// potentials decay between chunks:
//   I = { I^1, 0^1, I^2, 0^2, ..., 0^{d-1}, I^d }
//   T_test = sum_{j<d} 2*T^j + T^d.
// The stimulus is small enough to live in on-chip memory for in-field
// testing, so it serializes to a compact bit-packed binary format (STMS).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "tensor/tensor.hpp"

namespace snntest::core {

using tensor::Shape;
using tensor::Tensor;

class TestStimulus {
 public:
  TestStimulus() = default;
  explicit TestStimulus(size_t num_channels) : num_channels_(num_channels) {}

  size_t num_channels() const { return num_channels_; }
  size_t num_chunks() const { return chunks_.size(); }
  const Tensor& chunk(size_t j) const { return chunks_.at(j); }
  const std::vector<Tensor>& chunks() const { return chunks_; }

  /// Append an optimized input chunk [T_j, num_channels].
  void add_chunk(Tensor chunk);

  /// Total duration in timesteps per Eq. (8) (chunks + sleep separators).
  size_t total_steps() const;
  /// Duration of the chunks alone (without separators).
  size_t chunk_steps() const;

  /// Materialize the full test input per Eq. (7): [total_steps, channels].
  Tensor assemble() const;

  /// Duration expressed in dataset-sample equivalents (Table III row
  /// "Test duration (samples)"). Matches the paper's convention: the
  /// optimized chunks count, the zero separators do not (Table III's SHD
  /// row reads 7.82 samples yet 14.64 s at 1 s/sample — only consistent if
  /// "samples" excludes the sleeps while "time" includes them).
  double duration_in_samples(size_t steps_per_sample) const;

  /// Total applied duration (with separators) in sample units — the
  /// "Test duration (time)" row, up to the per-benchmark timestep.
  double total_duration_in_samples(size_t steps_per_sample) const;

  /// Fraction of ones in the assembled stimulus (storage density).
  double spike_density() const;

  // --- persistence (on-chip test storage / in-field reuse) ---
  /// The STMS image, chunks bit-packed (throws std::invalid_argument on a
  /// value other than 0 or 1); save writes it atomically.
  std::string serialize() const;
  void save(const std::string& path) const;
  /// Throws std::runtime_error naming `source` (or the path) and the cause.
  static TestStimulus deserialize(std::string_view bytes, const std::string& source = "STMS");
  static TestStimulus load(const std::string& path);

 private:
  size_t num_channels_ = 0;
  std::vector<Tensor> chunks_;
};

}  // namespace snntest::core
