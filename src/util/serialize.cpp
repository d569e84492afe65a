#include "util/serialize.hpp"

#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/hash.hpp"

namespace snntest::util {
namespace {

// Fields are copied in host byte order; the project targets x86-64/aarch64.
static_assert(std::endian::native == std::endian::little,
              "serialization format assumes a little-endian host");

template <typename T>
void append(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T load(std::string_view bytes) {
  T v{};
  std::memcpy(&v, bytes.data(), sizeof(T));
  return v;
}

}  // namespace

void Writer::u32(uint32_t v) { append(out_, v); }
void Writer::u64(uint64_t v) { append(out_, v); }
void Writer::f32(float v) { append(out_, v); }
void Writer::f64(double v) { append(out_, v); }

void Writer::bytes(std::string_view b) {
  u64(b.size());
  out_.append(b);
}

void Writer::f32_array(const float* data, size_t n) {
  u64(n);
  out_.append(reinterpret_cast<const char*>(data), n * sizeof(float));
}

void Writer::header(uint32_t magic, uint32_t version) {
  u32(magic);
  u32(version);
}

void Writer::frame(std::string_view body, FrameLength length) {
  length == FrameLength::kU64 ? u64(body.size()) : u32(static_cast<uint32_t>(body.size()));
  out_.append(body);
  u32(crc32(body.data(), body.size()));
}

Reader::Reader(std::string_view data, std::string source)
    : data_(data), source_(std::move(source)) {}

void Reader::fail(const std::string& problem) const {
  throw std::runtime_error(source_ + ": " + problem);
}

std::string_view Reader::take(size_t n) {
  if (n > remaining()) {
    fail("truncated (needs " + std::to_string(n) + " bytes at offset " + std::to_string(pos_) +
         ", " + std::to_string(remaining()) + " left)");
  }
  const std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

uint32_t Reader::u32() { return load<uint32_t>(take(sizeof(uint32_t))); }
uint64_t Reader::u64() { return load<uint64_t>(take(sizeof(uint64_t))); }
float Reader::f32() { return load<float>(take(sizeof(float))); }
double Reader::f64() { return load<double>(take(sizeof(double))); }

std::string_view Reader::bytes() { return take(u64()); }

std::string_view Reader::f32_array(std::initializer_list<uint64_t> dims, const char* field) {
  uint64_t expected = 1;
  for (const uint64_t d : dims) {
    if (d != 0 && expected > UINT64_MAX / d) fail(std::string(field) + " size overflows");
    expected *= d;
  }
  const uint64_t n = u64();
  if (n != expected) {
    fail(std::string(field) + " size mismatch (" + std::to_string(n) + " values, expected " +
         std::to_string(expected) + ")");
  }
  if (n > remaining() / sizeof(float)) fail(std::string(field) + " truncated");
  return take(n * sizeof(float));
}

std::string_view Reader::packed_bits(uint64_t rows, uint64_t cols) {
  const std::string_view packed = bytes();
  // rows x cols may overflow; compare through a division instead.
  const uint64_t max_cells = packed.size() * 8;
  const bool fits = cols == 0 || rows <= max_cells / cols;
  if (!fits || (rows * cols + 7) / 8 != packed.size()) {
    fail("packed spike train size mismatch (" + std::to_string(rows) + " x " +
         std::to_string(cols) + " cells, " + std::to_string(packed.size()) + " bytes)");
  }
  return packed;
}

void Reader::expect_header(uint32_t magic, uint32_t version) {
  const uint32_t m = u32();
  const uint32_t v = u32();
  if (m != magic) {
    fail("bad magic " + std::to_string(m) + " (expected " + std::to_string(magic) + ")");
  }
  if (v != version) {
    fail("version mismatch (file has version " + std::to_string(v) + ", reader expects " +
         std::to_string(version) + ")");
  }
}

std::string_view Reader::frame() {
  std::string_view body;
  const FrameStatus status = try_frame(FrameLength::kU64, &body);
  if (status == FrameStatus::kTruncated) fail("truncated frame");
  if (status == FrameStatus::kBadCrc) fail("CRC mismatch in a frame");
  return body;
}

Reader::FrameStatus Reader::try_frame(FrameLength length, std::string_view* body) {
  const size_t field = length == FrameLength::kU64 ? sizeof(uint64_t) : sizeof(uint32_t);
  if (remaining() < field) return FrameStatus::kTruncated;
  const uint64_t n = length == FrameLength::kU64 ? u64() : u32();
  if (remaining() < sizeof(uint32_t) || n > remaining() - sizeof(uint32_t)) {
    return FrameStatus::kTruncated;
  }
  *body = take(n);
  const uint32_t stored = u32();
  return stored == crc32(body->data(), body->size()) ? FrameStatus::kOk : FrameStatus::kBadCrc;
}

void Reader::expect_end() {
  if (remaining() != 0) fail(std::to_string(remaining()) + " trailing bytes");
}

std::string frame_file(uint32_t magic, uint32_t version, std::string_view body) {
  Writer w;
  w.header(magic, version);
  w.frame(body);
  return w.take();
}

Reader open_frame_file(std::string_view file, uint32_t magic, uint32_t version,
                       std::string source) {
  Reader outer(file, source);
  outer.expect_header(magic, version);
  const std::string_view body = outer.frame();
  outer.expect_end();
  return Reader(body, std::move(source));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error(path + ": cannot open (" + std::strerror(errno) + ")");
  const std::streamoff size = in.tellg();
  if (size < 0) throw std::runtime_error(path + ": cannot read (not a regular file?)");
  std::string bytes(static_cast<size_t>(size), '\0');
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!in) throw std::runtime_error(path + ": read failed");
  return bytes;
}

std::string pack_bits(const float* data, size_t n) {
  // Check, then pack a whole byte per step. Both loops are branch-free, so
  // they vectorize; a bool accumulator or a per-cell read-modify-write of
  // the packed byte ran ~4x slower.
  unsigned spikes_only = 1;
  for (size_t i = 0; i < n; ++i) {
    spikes_only &= static_cast<unsigned>(data[i] == 0.0f) | static_cast<unsigned>(data[i] == 1.0f);
  }
  for (size_t i = 0; !spikes_only && i < n; ++i) {
    if (data[i] != 0.0f && data[i] != 1.0f) {
      throw std::invalid_argument("pack_bits: value " + std::to_string(data[i]) +
                                  " at index " + std::to_string(i) +
                                  " is not a spike (0 or 1)");
    }
  }
  std::string packed((n + 7) / 8, '\0');
  char* out = packed.data();
  const size_t whole = n / 8;
  for (size_t b = 0; b < whole; ++b) {
    const float* x = data + 8 * b;
    unsigned byte = 0;
    for (unsigned j = 0; j < 8; ++j) byte |= static_cast<unsigned>(x[j] == 1.0f) << j;
    out[b] = static_cast<char>(byte);
  }
  for (size_t i = 8 * whole; i < n; ++i) {
    out[whole] = static_cast<char>(out[whole] | (data[i] == 1.0f) << (i - 8 * whole));
  }
  return packed;
}

void unpack_bits(std::string_view packed, float* out, size_t n) {
  const size_t whole = n / 8;
  for (size_t b = 0; b < whole; ++b) {
    const unsigned byte = static_cast<uint8_t>(packed[b]);
    for (unsigned j = 0; j < 8; ++j) out[8 * b + j] = static_cast<float>((byte >> j) & 1u);
  }
  for (size_t i = 8 * whole; i < n; ++i) {
    out[i] = static_cast<float>((static_cast<uint8_t>(packed[whole]) >> (i - 8 * whole)) & 1u);
  }
}

}  // namespace snntest::util
