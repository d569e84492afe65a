#include "util/serialize.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace snntest::util {
namespace {

template <typename T>
void write_raw(std::ostream& os, T v) {
  // The project targets little-endian hosts only (x86-64/aarch64); a
  // static_assert in check_magic guards the assumption at the format level.
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_raw(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("serialize: truncated stream");
  return v;
}

}  // namespace

void write_u32(std::ostream& os, uint32_t v) { write_raw(os, v); }
void write_u64(std::ostream& os, uint64_t v) { write_raw(os, v); }
void write_f32(std::ostream& os, float v) { write_raw(os, v); }
void write_f64(std::ostream& os, double v) { write_raw(os, v); }

void write_string(std::ostream& os, const std::string& s) {
  write_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void write_f32_vector(std::ostream& os, const std::vector<float>& v) {
  write_u64(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(float)));
}

void write_u8_vector(std::ostream& os, const std::vector<uint8_t>& v) {
  write_u64(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()), static_cast<std::streamsize>(v.size()));
}

uint32_t read_u32(std::istream& is) { return read_raw<uint32_t>(is); }
uint64_t read_u64(std::istream& is) { return read_raw<uint64_t>(is); }
float read_f32(std::istream& is) { return read_raw<float>(is); }
double read_f64(std::istream& is) { return read_raw<double>(is); }

std::string read_string(std::istream& is) {
  const uint64_t n = read_u64(is);
  if (n > (1ull << 32)) throw std::runtime_error("serialize: implausible string size");
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  if (!is) throw std::runtime_error("serialize: truncated stream");
  return s;
}

std::vector<float> read_f32_vector(std::istream& is) {
  const uint64_t n = read_u64(is);
  if (n > (1ull << 32)) throw std::runtime_error("serialize: implausible vector size");
  std::vector<float> v(n);
  is.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n * sizeof(float)));
  if (!is) throw std::runtime_error("serialize: truncated stream");
  return v;
}

std::vector<uint8_t> read_u8_vector(std::istream& is) {
  const uint64_t n = read_u64(is);
  if (n > (1ull << 33)) throw std::runtime_error("serialize: implausible vector size");
  std::vector<uint8_t> v(n);
  is.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n));
  if (!is) throw std::runtime_error("serialize: truncated stream");
  return v;
}

void write_magic(std::ostream& os, uint32_t magic, uint32_t version) {
  static_assert(std::endian::native == std::endian::little,
                "serialization format assumes a little-endian host");
  write_u32(os, magic);
  write_u32(os, version);
}

void check_magic(std::istream& is, uint32_t magic, uint32_t version) {
  const uint32_t m = read_u32(is);
  const uint32_t v = read_u32(is);
  if (m != magic) throw std::runtime_error("serialize: bad magic");
  if (v != version) {
    throw std::runtime_error("serialize: version mismatch (file has version " +
                             std::to_string(v) + ", reader expects " +
                             std::to_string(version) + ")");
  }
}

}  // namespace snntest::util
