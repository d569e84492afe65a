// Shared non-cryptographic hashing primitives.
//
// One home for the two digests every serializer in the tree uses, so the
// campaign fingerprints, the coverage fault dictionary, and any future
// binary format agree on the exact functions instead of growing per-file
// copies:
//
//  * fnv1a  — 64-bit FNV-1a, the fingerprint hash (campaign and
//    coverage-dictionary identity). Chainable: pass the previous digest as
//    `seed` to extend it over multiple fields.
//  * crc32  — CRC-32/ISO-HDLC (poly 0xEDB88320, the zlib/PNG CRC),
//    table-based. Guards individual records of binary formats against
//    corruption; `crc32_update` streams over multiple buffers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace snntest::util {

inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;

/// 64-bit FNV-1a over `bytes` bytes, chained from `seed`.
uint64_t fnv1a(const void* data, size_t bytes, uint64_t seed = kFnvOffsetBasis);

/// CRC-32/ISO-HDLC of one buffer (matches zlib's crc32(0, data, len)).
uint32_t crc32(const void* data, size_t bytes);

/// Streaming form: feed the previous return value back as `crc` to extend
/// the digest over multiple buffers. Start from crc32_init().
inline constexpr uint32_t crc32_init() { return 0; }
uint32_t crc32_update(uint32_t crc, const void* data, size_t bytes);

}  // namespace snntest::util
