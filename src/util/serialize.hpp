// The one framed container behind every on-disk format (DESIGN.md
// "On-disk formats"): SNNT models, STMS stimuli and SNFD fault
// dictionaries (which also carry a sharded campaign's job) are all built
// from the pieces here.
//
//  * Writer / Reader — little-endian fields in one byte buffer. The Reader
//    checks every read, and every length or count field, against the bytes
//    left before anything is allocated; its errors name the source (a
//    path) and the problem.
//  * One frame: `u64 len | bytes | u32 crc32(bytes)` (SNFD records use a
//    u32 length). SNNT and STMS files are `magic | version | frame`.
//  * One bit-pack pair for spike trains (LSB-first, 8 cells per byte).
//  * One path reader, read_file; the path writer is util::atomic_write_file.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace snntest::util {

/// Width of a frame's length field: u64 everywhere except SNFD records.
enum class FrameLength { kU64, kU32 };

class Writer {
 public:
  void u32(uint32_t v);
  void u64(uint64_t v);
  void f32(float v);
  void f64(double v);
  /// u64 length, then the bytes (strings, packed spike trains).
  void bytes(std::string_view b);
  /// u64 count, then the raw floats.
  void f32_array(const float* data, size_t n);
  /// Magic tag and format version.
  void header(uint32_t magic, uint32_t version);
  /// One frame around `body`: length, body, CRC-32 of the body.
  void frame(std::string_view body, FrameLength length = FrameLength::kU64);

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class Reader {
 public:
  /// `source` names the bytes in every error (a path, or a format name).
  Reader(std::string_view data, std::string source);

  uint32_t u32();
  uint64_t u64();
  float f32();
  double f64();
  /// A u64-length byte run (Writer::bytes), as a view into the buffer.
  std::string_view bytes();
  std::string string() { return std::string(bytes()); }
  /// A u64-count float array (Writer::f32_array) as raw little-endian
  /// bytes; the count must equal the product of `dims`.
  std::string_view f32_array(std::initializer_list<uint64_t> dims, const char* field);
  /// A packed [rows, cols] spike train (Writer::bytes of pack_bits); its
  /// length must be exactly what rows x cols cells pack to.
  std::string_view packed_bits(uint64_t rows, uint64_t cols);
  /// A u32 enum field; values past `max` fail naming `field`.
  template <typename E>
  E enumerator(E max, const char* field) {
    const uint32_t v = u32();
    if (v > static_cast<uint32_t>(max)) {
      fail(std::string(field) + " " + std::to_string(v) + " out of range (max " +
           std::to_string(static_cast<uint32_t>(max)) + ")");
    }
    return static_cast<E>(v);
  }

  /// Check the magic tag and format version (naming both versions).
  void expect_header(uint32_t magic, uint32_t version);
  /// One u64-length frame's body; fails on truncation or a CRC mismatch.
  std::string_view frame();

  enum class FrameStatus { kOk, kTruncated, kBadCrc };
  /// Fail-soft frame read for SNFD records: kTruncated leaves the position
  /// unspecified (nothing after it is framed), kBadCrc skips the frame.
  FrameStatus try_frame(FrameLength length, std::string_view* body);

  size_t remaining() const { return data_.size() - pos_; }
  /// Fails when bytes are left over.
  void expect_end();
  [[noreturn]] void fail(const std::string& problem) const;

 private:
  std::string_view take(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  std::string source_;
};

/// `magic | version | frame(body)`: the SNNT and STMS file image.
std::string frame_file(uint32_t magic, uint32_t version, std::string_view body);
/// A Reader over the body of a frame_file image, after checking its magic,
/// version, frame length and CRC, and that nothing follows the frame.
/// Throws std::runtime_error naming `source` and the cause.
Reader open_frame_file(std::string_view file, uint32_t magic, uint32_t version,
                       std::string source);

/// The whole file. Throws std::runtime_error naming the path when it
/// cannot be opened or read.
std::string read_file(const std::string& path);

/// Bit-pack `n` spike cells (LSB-first, 8 per byte). Throws
/// std::invalid_argument naming the index of any value other than 0 or 1.
std::string pack_bits(const float* data, size_t n);
/// Unpack `n` cells from (n + 7) / 8 bytes (Reader::packed_bits checks).
void unpack_bits(std::string_view packed, float* out, size_t n);

}  // namespace snntest::util
