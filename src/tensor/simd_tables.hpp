// Internal: per-backend kernel tables linked into the dispatcher. The AVX2
// table exists only when CMake sets SNNTEST_SIMD_AVX2 (which also isolates
// the ISA flag to that translation unit).
#pragma once

#include "tensor/simd.hpp"

namespace snntest::tensor::simd {

extern const LaneKernels kScalarLaneKernels;
#if defined(SNNTEST_SIMD_AVX2)
extern const LaneKernels kAvx2LaneKernels;
#endif

}  // namespace snntest::tensor::simd
