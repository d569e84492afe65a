// One corruption fuzz for the three on-disk formats (util/serialize.hpp,
// DESIGN.md "On-disk formats").
//
// SNNT models and STMS stimuli are `magic | version | frame(body)`: every
// short prefix, a flipped byte in each region (magic, version, frame
// length, body, CRC) and a length field no file could hold must throw
// std::runtime_error naming the file and the cause — never crash, allocate
// the impossible, or load as a different model or stimulus. SNFD
// dictionaries fail soft instead: damage to the magic, the header, the
// stimulus table or the fault universe returns nullopt, and a flipped
// record byte skips exactly that record.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "core/test_stimulus.hpp"
#include "coverage/fault_dictionary.hpp"
#include "snn/dense_layer.hpp"
#include "snn/serialization.hpp"
#include "snn/spike_train.hpp"
#include "support/synthetic_faults.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace snntest {
namespace {

/// 2^40 steps, bytes or records: a length no file here could hold, and an
/// allocation no test machine could make.
constexpr uint64_t kHuge = uint64_t{1} << 40;

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

snn::Network small_net() {
  util::Rng rng(11);
  snn::Network net("format-fuzz");
  auto l1 = std::make_unique<snn::DenseLayer>(8, 12, snn::LifParams{});
  l1->init_weights(rng, 1.3f);
  net.add_layer(std::move(l1));
  auto l2 = std::make_unique<snn::DenseLayer>(12, 4, snn::LifParams{});
  l2->init_weights(rng, 1.3f);
  net.add_layer(std::move(l2));
  return net;
}

tensor::Tensor spikes(size_t T, size_t C, uint64_t seed) {
  util::Rng rng(seed);
  return snn::random_spike_train(T, C, 0.4, rng);
}

/// Offset of the reader's position inside `bytes`.
size_t offset(const std::string_view bytes, const util::Reader& r) {
  return bytes.size() - r.remaining();
}

void put_u64(std::string& bytes, size_t at, uint64_t value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
}

/// A framed format: a valid image, a path loader, and the body offsets of
/// its u64 length / count fields.
struct FramedFormat {
  std::string name;
  std::string image;
  std::function<void(const std::string& path)> load;
  std::vector<size_t> length_fields;

  /// The body of `image` (magic | version | u64 length | body | u32 CRC).
  std::string body() const { return image.substr(16, image.size() - 20); }
  /// `image` with one body u64 replaced and a valid CRC: only the reader's
  /// bounds checks stand between the value and an allocation.
  std::string with_body_u64(size_t at, uint64_t value) const {
    uint32_t magic = 0, version = 0;
    std::memcpy(&magic, image.data(), sizeof(magic));
    std::memcpy(&version, image.data() + 4, sizeof(version));
    std::string b = body();
    put_u64(b, at, value);
    return util::frame_file(magic, version, b);
  }
};

void expect_named_failure(const FramedFormat& format, const std::string& bytes,
                          std::initializer_list<const char*> causes, const std::string& what) {
  const std::string path = temp_path(format.name + "_fuzz.bin");
  spit(path, bytes);
  try {
    format.load(path);
    ADD_FAILURE() << format.name << " " << what << " loaded";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_EQ(message.rfind(path, 0), 0u) << "error does not name the file: " << message;
    bool named = false;
    for (const char* cause : causes) named = named || message.find(cause) != std::string::npos;
    EXPECT_TRUE(named) << format.name << " " << what << ": " << message;
  }
}

void fuzz_framed(const FramedFormat& format) {
  const std::string& image = format.image;
  ASSERT_GT(image.size(), 64u);
  const std::string path = temp_path(format.name + "_pristine.bin");
  spit(path, image);
  ASSERT_NO_THROW(format.load(path));

  // Every short prefix, then a sample of longer ones.
  util::Rng rng(20261019);
  std::vector<size_t> lengths;
  for (size_t len = 0; len < 96; ++len) lengths.push_back(len);
  for (size_t k = 0; k < 100; ++k) lengths.push_back(rng.uniform_index(image.size()));
  for (const size_t len : lengths) {
    expect_named_failure(format, image.substr(0, len), {"truncated"},
                         "prefix " + std::to_string(len));
  }

  // One flipped byte in each region.
  const auto flipped = [&](size_t at) {
    std::string bytes = image;
    bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.uniform_index(255)));
    return bytes;
  };
  for (size_t at = 0; at < 4; ++at) {
    expect_named_failure(format, flipped(at), {"bad magic"}, "magic flip");
  }
  for (size_t at = 4; at < 8; ++at) {
    expect_named_failure(format, flipped(at), {"version mismatch"}, "version flip");
  }
  for (size_t at = 8; at < 16; ++at) {
    expect_named_failure(format, flipped(at), {"truncated", "CRC mismatch"}, "length flip");
  }
  for (size_t k = 0; k < 64; ++k) {
    const size_t at = 16 + rng.uniform_index(image.size() - 20);
    expect_named_failure(format, flipped(at), {"CRC mismatch"},
                         "body flip at " + std::to_string(at));
  }
  for (size_t at = image.size() - 4; at < image.size(); ++at) {
    expect_named_failure(format, flipped(at), {"CRC mismatch"}, "CRC flip");
  }

  // Lengths no file could hold: the frame's own, and each body length or
  // count field under a valid CRC.
  std::string huge_frame = image;
  put_u64(huge_frame, 8, kHuge);
  expect_named_failure(format, huge_frame, {"truncated"}, "2^40 frame length");
  for (const size_t at : format.length_fields) {
    expect_named_failure(format, format.with_body_u64(at, kHuge),
                         {"truncated", "size mismatch", "exceeds"},
                         "2^40 at body offset " + std::to_string(at));
  }

  // A missing file names the path too.
  const std::string missing = temp_path(format.name + "_missing.bin");
  std::remove(missing.c_str());
  try {
    format.load(missing);
    ADD_FAILURE() << format.name << " loaded a missing file";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(missing + ": cannot open", 0), 0u) << e.what();
  }
}

TEST(FormatFuzz, SnntCorruptionThrowsANamedCause) {
  FramedFormat format;
  format.name = "snnt";
  format.image = snn::serialize_network(small_net());
  format.load = [](const std::string& path) { snn::load_network(path); };
  const std::string body = format.body();
  util::Reader walk(body, "walk");
  walk.bytes();  // network name
  walk.u32();    // layer count
  walk.u32();    // layer 0 kind
  for (int i = 0; i < 4; ++i) walk.u32();  // LIF parameters
  walk.u32();  // surrogate kind
  walk.f32();  // surrogate alpha
  walk.u64();  // inputs
  walk.u64();  // neurons
  format.length_fields = {0, offset(body, walk)};  // name length, weight count
  fuzz_framed(format);
}

TEST(FormatFuzz, StmsCorruptionThrowsANamedCause) {
  core::TestStimulus stimulus(16);
  stimulus.add_chunk(spikes(12, 16, 1));
  stimulus.add_chunk(spikes(9, 16, 2));
  FramedFormat format;
  format.name = "stms";
  format.image = stimulus.serialize();
  format.load = [](const std::string& path) { core::TestStimulus::load(path); };
  // u64 channels, u32 chunk count, then chunk 0's u64 steps and the u64
  // length of its packed bits.
  format.length_fields = {12, 20};
  fuzz_framed(format);
}

/// A dictionary over `faults` with two stimuli (one embedded) and records
/// for both.
coverage::FaultDictionary small_dictionary(
    std::vector<fault::FaultDescriptor> faults = test_support::synthetic_faults(6)) {
  coverage::FaultDictionary dict(std::move(faults));
  dict.model_fingerprint = 0xABCD;
  for (size_t s = 0; s < 2; ++s) {
    coverage::StimulusEntry entry;
    entry.name = "stim" + std::to_string(s);
    entry.fingerprint = 100 + s;
    entry.duration_frames = 10;
    if (s == 0) entry.data = spikes(10, 5, 4);
    dict.add_stimulus(std::move(entry));
    for (size_t f = 0; f < dict.num_faults(); ++f) {
      fault::DetectionResult r;
      r.detected = (f + s) % 2 == 0;
      r.output_l1 = r.detected ? 1.5 + static_cast<double>(f) : 0.0;
      r.first_detection_frame = r.detected ? static_cast<int64_t>(f) : -1;
      r.class_count_diff = {static_cast<long>(f), -1};
      dict.record(s, f, r);
    }
  }
  return dict;
}

struct SnfdLoad {
  std::optional<coverage::FaultDictionary> dict;
  coverage::FaultDictionary::LoadStats stats;
};

SnfdLoad load_snfd(const std::string& bytes) {
  const std::string path = temp_path("snfd_fuzz.snfd");
  spit(path, bytes);
  SnfdLoad out;
  out.dict = coverage::FaultDictionary::load(path, &out.stats);
  return out;
}

TEST(FormatFuzz, SnfdDamageFailsSoft) {
  const coverage::FaultDictionary dict = small_dictionary();
  const std::string image = dict.serialize();
  const size_t written = dict.num_records();

  // Region boundaries: magic + version, header frame, stimulus table frame,
  // fault universe frame, u64 record count, then one u32-length frame per
  // record.
  util::Reader walk(image, "walk");
  walk.expect_header(coverage::kDictionaryMagic, coverage::kDictionaryVersion);
  walk.frame();
  const size_t table_at = offset(image, walk);
  const std::string table(walk.frame());
  const size_t table_end = offset(image, walk);
  const std::string universe(walk.frame());
  const size_t universe_end = offset(image, walk);
  ASSERT_EQ(universe.size(), 8 + 76 * dict.num_faults());  // u64 count, 76 B per fault
  walk.u64();
  struct Span { size_t begin, end; };
  std::vector<Span> records;
  while (walk.remaining() > 0) {
    const size_t begin = offset(image, walk);
    std::string_view payload;
    ASSERT_EQ(walk.try_frame(util::FrameLength::kU32, &payload), util::Reader::FrameStatus::kOk);
    records.push_back({begin, offset(image, walk)});
  }
  ASSERT_EQ(records.size(), written);

  const SnfdLoad pristine = load_snfd(image);
  ASSERT_TRUE(pristine.dict.has_value());
  EXPECT_EQ(pristine.stats.records_loaded, written);

  // Prefixes: cut inside the header, table or universe -> nullopt; cut
  // later -> the dictionary loads with every whole record, the rest counted
  // skipped.
  util::Rng rng(20261019);
  std::vector<size_t> lengths;
  for (size_t len = 0; len < 96; ++len) lengths.push_back(len);
  for (size_t k = 0; k < 100; ++k) lengths.push_back(rng.uniform_index(image.size()));
  for (const size_t len : lengths) {
    const SnfdLoad cut = load_snfd(image.substr(0, len));
    if (len < universe_end) {
      EXPECT_FALSE(cut.dict.has_value()) << "prefix " << len;
      continue;
    }
    ASSERT_TRUE(cut.dict.has_value()) << "prefix " << len;
    size_t whole = 0;
    for (const Span& r : records) whole += r.end <= len;
    EXPECT_EQ(cut.stats.records_loaded, whole) << "prefix " << len;
    if (len >= universe_end + 8) {
      EXPECT_EQ(cut.stats.records_loaded + cut.stats.records_skipped, written) << len;
    }
  }

  // A flipped byte anywhere in the magic, version, header, stimulus table
  // or fault universe refuses the file.
  const auto flipped = [&](std::string bytes, size_t at) {
    bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.uniform_index(255)));
    return bytes;
  };
  for (size_t at = 0; at < universe_end; ++at) {
    EXPECT_FALSE(load_snfd(flipped(image, at)).dict.has_value()) << "flip at " << at;
  }

  // A universe frame with a valid CRC is still refused when it does not
  // hash to the header's fingerprint (fault 2's magnitude changed) or its
  // count differs from the header's.
  const auto with_universe = [&](const std::string& body) {
    util::Writer reframed;
    reframed.frame(body);
    return image.substr(0, table_end) + reframed.str() + image.substr(universe_end);
  };
  std::string other_magnitude = universe;
  other_magnitude[8 + 76 * 2 + 72] ^= 0x01;
  EXPECT_FALSE(load_snfd(with_universe(other_magnitude)).dict.has_value());
  std::string other_count = universe;
  put_u64(other_count, 0, dict.num_faults() - 1);
  EXPECT_FALSE(load_snfd(with_universe(other_count)).dict.has_value());
  put_u64(other_count, 0, kHuge);
  EXPECT_FALSE(load_snfd(with_universe(other_count)).dict.has_value());
  // A fault kind past the enum is refused even when the header's
  // fingerprint is that of the stored list.
  std::vector<fault::FaultDescriptor> bad_kind = test_support::synthetic_faults(6);
  bad_kind[2].kind = static_cast<fault::FaultKind>(200);
  EXPECT_FALSE(load_snfd(small_dictionary(bad_kind).serialize()).dict.has_value());

  // A version 1 image (no universe frame) is refused by its version.
  std::string v1 = image.substr(0, table_end) + image.substr(universe_end);
  const uint32_t version1 = 1;
  std::memcpy(v1.data() + 4, &version1, sizeof(version1));
  EXPECT_FALSE(load_snfd(v1).dict.has_value());

  // A flipped payload or CRC byte of one record skips exactly that record.
  for (const Span& r : records) {
    const size_t payload_at = r.begin + 4 + rng.uniform_index(r.end - r.begin - 8);
    const size_t crc_at = r.end - 4 + rng.uniform_index(4);
    for (const size_t at : {payload_at, crc_at}) {
      const SnfdLoad hit = load_snfd(flipped(image, at));
      ASSERT_TRUE(hit.dict.has_value()) << "flip at " << at;
      EXPECT_EQ(hit.stats.records_skipped, 1u) << "flip at " << at;
      EXPECT_EQ(hit.stats.records_loaded, written - 1) << "flip at " << at;
    }
  }

  // Lengths no file could hold. The header frame's length:
  std::string huge_header = image;
  put_u64(huge_header, 8, kHuge);
  EXPECT_FALSE(load_snfd(huge_header).dict.has_value());
  // Stimulus 0's steps under a valid table CRC:
  util::Reader table_walk(table, "walk");
  table_walk.u64();    // stimulus count
  table_walk.bytes();  // name
  table_walk.u64();    // fingerprint
  table_walk.u64();    // duration
  std::string huge_table = table;
  put_u64(huge_table, offset(table, table_walk), kHuge);
  util::Writer reframed;
  reframed.frame(huge_table);
  EXPECT_FALSE(load_snfd(image.substr(0, table_at) + reframed.str() + image.substr(table_end))
                   .dict.has_value());
  // The record count: every real record loads, the rest are counted lost.
  std::string huge_count = image;
  put_u64(huge_count, universe_end, kHuge);
  const SnfdLoad counted = load_snfd(huge_count);
  ASSERT_TRUE(counted.dict.has_value());
  EXPECT_EQ(counted.stats.records_loaded, written);
  EXPECT_EQ(counted.stats.records_skipped, kHuge - written);
  // A record length past the end of the file loses the framing from there.
  std::string huge_record = image;
  const uint32_t max_len = 0xFFFFFFFFu;
  std::memcpy(huge_record.data() + records[2].begin, &max_len, sizeof(max_len));
  const SnfdLoad lost = load_snfd(huge_record);
  ASSERT_TRUE(lost.dict.has_value());
  EXPECT_EQ(lost.stats.records_loaded, 2u);
  EXPECT_EQ(lost.stats.records_skipped, written - 2);
}

}  // namespace
}  // namespace snntest
