// TestStimulus tests: Eq. (7) assembly, Eq. (8) duration accounting, the
// samples-vs-time duration conventions, density, and the bit-packed
// persistence format.
#include <gtest/gtest.h>


#include "core/test_stimulus.hpp"

namespace snntest::core {
namespace {

Tensor chunk_of(size_t T, size_t n, float value) { return Tensor(Shape{T, n}, value); }

TEST(TestStimulus, DurationFollowsEq8) {
  TestStimulus s(4);
  s.add_chunk(chunk_of(10, 4, 1.0f));
  s.add_chunk(chunk_of(6, 4, 1.0f));
  s.add_chunk(chunk_of(8, 4, 1.0f));
  // Eq. (8): 2*10 + 2*6 + 8 = 40
  EXPECT_EQ(s.total_steps(), 40u);
  EXPECT_EQ(s.chunk_steps(), 24u);
}

TEST(TestStimulus, SingleChunkHasNoSeparator) {
  TestStimulus s(2);
  s.add_chunk(chunk_of(5, 2, 1.0f));
  EXPECT_EQ(s.total_steps(), 5u);
}

TEST(TestStimulus, AssembleInterleavesSleeps) {
  TestStimulus s(2);
  s.add_chunk(chunk_of(2, 2, 1.0f));
  s.add_chunk(chunk_of(3, 2, 1.0f));
  const Tensor t = s.assemble();
  EXPECT_EQ(t.shape(), Shape({7, 2}));
  // chunk1 (t=0..1) ones, sleep (t=2..3) zeros, chunk2 (t=4..6) ones
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(2, 0), 0.0f);
  EXPECT_EQ(t.at(3, 1), 0.0f);
  EXPECT_EQ(t.at(4, 0), 1.0f);
  EXPECT_EQ(t.at(6, 1), 1.0f);
}

TEST(TestStimulus, AssembleEmptyThrows) {
  TestStimulus s(2);
  EXPECT_THROW(s.assemble(), std::logic_error);
}

TEST(TestStimulus, ChannelMismatchRejected) {
  TestStimulus s(4);
  s.add_chunk(chunk_of(2, 4, 1.0f));
  EXPECT_THROW(s.add_chunk(chunk_of(2, 5, 1.0f)), std::invalid_argument);
  EXPECT_THROW(s.add_chunk(Tensor(Shape{4})), std::invalid_argument);
}

TEST(TestStimulus, DurationConventions) {
  // 2 chunks x 10 steps, sample = 10 steps:
  //   samples metric counts chunks only -> 2.0
  //   time metric includes the separator -> 3.0
  TestStimulus s(4);
  s.add_chunk(chunk_of(10, 4, 1.0f));
  s.add_chunk(chunk_of(10, 4, 1.0f));
  EXPECT_DOUBLE_EQ(s.duration_in_samples(10), 2.0);
  EXPECT_DOUBLE_EQ(s.total_duration_in_samples(10), 3.0);
  EXPECT_THROW(s.duration_in_samples(0), std::invalid_argument);
}

TEST(TestStimulus, DensityIncludesSeparators) {
  TestStimulus s(2);
  s.add_chunk(chunk_of(2, 2, 1.0f));  // 4 ones
  s.add_chunk(chunk_of(2, 2, 0.0f));  // 0 ones
  // cells: chunks 8 + separator 4 = 12
  EXPECT_NEAR(s.spike_density(), 4.0 / 12.0, 1e-9);
}

TEST(TestStimulus, SaveLoadRoundTrip) {
  TestStimulus s(3);
  Tensor c1(Shape{4, 3});
  c1.at(0, 0) = 1.0f;
  c1.at(3, 2) = 1.0f;
  c1.at(1, 1) = 1.0f;
  s.add_chunk(c1);
  s.add_chunk(chunk_of(2, 3, 1.0f));

  const TestStimulus loaded = TestStimulus::deserialize(s.serialize());
  EXPECT_EQ(loaded.num_channels(), 3u);
  EXPECT_EQ(loaded.num_chunks(), 2u);
  EXPECT_EQ(loaded.total_steps(), s.total_steps());
  const Tensor a = s.assemble();
  const Tensor b = loaded.assemble();
  for (size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(TestStimulus, PackedFormatIsCompact) {
  // 64 steps x 64 channels of binary data = 4096 bits = 512 bytes payload.
  TestStimulus s(64);
  s.add_chunk(chunk_of(64, 64, 1.0f));
  EXPECT_LT(s.serialize().size(), 700u);  // packed + headers, far below 4096 floats
}

}  // namespace
}  // namespace snntest::core
