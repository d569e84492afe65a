// Internal: per-backend kernel tables linked into the dispatcher, and the
// geometry helpers their kernels share. The AVX2 table exists only when
// CMake sets SNNTEST_SIMD_AVX2 (which also isolates the ISA flag to that
// translation unit).
#pragma once

#include <cstddef>
#include <numbers>

#include "tensor/simd.hpp"

namespace snntest::tensor::simd {

extern const LaneKernels kScalarLaneKernels;
#if defined(SNNTEST_SIMD_AVX2)
extern const LaneKernels kAvx2LaneKernels;
#endif

/// 0.5f * pi as snn::surrogate_derivative's atan kind writes it (the float
/// product is exact), shared so both backends derive the same slope.
inline constexpr float kHalfPi = 0.5f * std::numbers::pi_v<float>;

// Internal linkage and no standard-library templates: each backend TU
// compiles its own copy with its own ISA flags, so no AVX2-built definition
// can be linked into baseline-ISA code.
namespace {

/// Live kernel-tap range [lo, hi) of one output row (or column) whose first
/// tap lands on input coordinate `origin` (may be negative: padding).
struct TapRange {
  size_t lo;
  size_t hi;
};

inline TapRange live_taps(long origin, size_t kernel, size_t extent) {
  const long lo = origin < 0 ? -origin : 0;
  const long end = static_cast<long>(extent) - origin;
  const long hi = end < static_cast<long>(kernel) ? end : static_cast<long>(kernel);
  return {static_cast<size_t>(lo), static_cast<size_t>(hi > lo ? hi : lo)};
}

/// The live kernel taps of input pixel (iy, ix) in a scatter conv, walked
/// as `for (ky = ky0, oy = oy0; ky <= ky_end; ky += stride, --oy)` (and
/// likewise kx/ox): tap ky reaches output row oy = (iy + padding - ky) /
/// stride exactly when that division is exact and ky <= iy + padding, so
/// the live ky step by the stride from (iy + padding) % stride, and oy
/// falls by one per step. Callers still skip oy >= out_height. Ascending
/// ky and kx, as the per-tap test visits them, with two divisions per
/// pixel instead of two per tap.
struct ScatterTaps {
  size_t ky0, oy0, ky_end;
  size_t kx0, ox0, kx_end;

  ScatterTaps(const ConvLaneGeom& g, size_t iy, size_t ix) {
    const size_t py = iy + g.padding;
    const size_t px = ix + g.padding;
    ky0 = py % g.stride;
    oy0 = py / g.stride;
    ky_end = py < g.kernel - 1 ? py : g.kernel - 1;
    kx0 = px % g.stride;
    ox0 = px / g.stride;
    kx_end = px < g.kernel - 1 ? px : g.kernel - 1;
  }
};

}  // namespace

}  // namespace snntest::tensor::simd
