// AVX2 kernels: 4-wide double accumulation and 8-wide float state update
// ACROSS lanes, or across the independent outputs of one frame for the
// single-sample kernels (LIF neurons, column-add rows, conv output channels
// and kernel-row runs, transpose-matvec columns). Compiled with
// -mavx2 (no -mfma) isolated to this translation unit plus
// -ffp-contract=off, so every vector op below is the exact IEEE operation
// the scalar kernel performs:
//
//  * _mm256_cvtps_pd        == static_cast<double>(float)   (exact)
//  * _mm256_mul_pd / add_pd == the unfused double mul / add  (same rounding)
//  * _mm256_mul_ps / add_ps == the unfused float mul / add   (same rounding)
//  * _mm256_cvtpd_ps        == static_cast<float>(double)   (nearest-even)
//  * _CMP_GE_OQ             == scalar `>=` (quiet, NaN -> false)
//
// The file instantiates no standard-library templates: their out-of-line
// copies are weak symbols, and the linker could hand an AVX2-built one to a
// baseline-ISA caller.
//
// Vector width divides the lane (or output) dimension only — each lane's
// accumulation order is untouched — so results are bit-identical to simd_scalar.cpp for
// every lane count, including the tail when lanes % 4 (or % 8 for the float
// kernels) is nonzero. The matvecs additionally sweep each column once for
// a block of rows; every (row, lane) accumulator still sums its columns in
// ascending order, so the blocking changes no term order.
#if !defined(__AVX2__)
#error "simd_avx2.cpp must be compiled with -mavx2"
#endif

#include <immintrin.h>

#include "tensor/simd_tables.hpp"

namespace snntest::tensor::simd {
namespace {

template <size_t LANES>
struct LaneBlocks {
  static constexpr size_t kVec = LANES / 4;   // 4-wide double blocks
  static constexpr size_t kTail = LANES % 4;  // scalar double tail
};

/// Mask selecting the first `n` (1..3) of a 4-wide block's lanes, for the
/// masked load/store of a lane count's last partial block.
inline __m128i tail_mask(size_t n) {
  return _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(n)), _mm_setr_epi32(0, 1, 2, 3));
}

/// RB rows x LANES lanes of a lane-strided matvec, one column sweep: each
/// visited column's lane values are widened to double once and feed the RB
/// rows' independent accumulators. A partial last block of lanes is loaded
/// masked (absent lanes read as 0.0f and are never stored), so every
/// accumulator element is one lane of one row, summed in the order `cols`
/// yields the columns (ascending) — bit-identical to the one-row scalar
/// kernel. `col_at(i)` maps the i-th of `count` visited columns to its index.
template <size_t LANES, size_t RB, typename ColAt>
inline void matvec_row_block(const float* a, size_t cols, ColAt col_at, size_t count,
                             const float* x_lanes, float* y_lanes) {
  constexpr size_t NV = (LANES + 3) / 4;  // 4-wide double blocks, last maybe partial
  constexpr size_t TAIL = LANES % 4;      // valid lanes of a partial last block
  const __m128i mask = tail_mask(TAIL == 0 ? 4 : TAIL);
  __m256d acc[RB][NV];
  for (size_t j = 0; j < RB; ++j) {
    for (size_t b = 0; b < NV; ++b) acc[j][b] = _mm256_setzero_pd();
  }
  for (size_t i = 0; i < count; ++i) {
    const size_t c = col_at(i);
    const float* xv = x_lanes + c * LANES;
    __m256d xd[NV];
    for (size_t b = 0; b < NV; ++b) {
      const __m128 xf = (TAIL != 0 && b + 1 == NV) ? _mm_maskload_ps(xv + 4 * b, mask)
                                                   : _mm_loadu_ps(xv + 4 * b);
      xd[b] = _mm256_cvtps_pd(xf);
    }
    for (size_t j = 0; j < RB; ++j) {
      const __m256d wv = _mm256_set1_pd(static_cast<double>(a[j * cols + c]));
      for (size_t b = 0; b < NV; ++b) {
        acc[j][b] = _mm256_add_pd(acc[j][b], _mm256_mul_pd(wv, xd[b]));
      }
    }
  }
  for (size_t j = 0; j < RB; ++j) {
    float* yr = y_lanes + j * LANES;
    for (size_t b = 0; b < NV; ++b) {
      const __m128 sum = _mm256_cvtpd_ps(acc[j][b]);
      if (TAIL != 0 && b + 1 == NV) {
        _mm_maskstore_ps(yr + 4 * b, mask, _mm_add_ps(_mm_maskload_ps(yr + 4 * b, mask), sum));
      } else {
        _mm_storeu_ps(yr + 4 * b, _mm_add_ps(_mm_loadu_ps(yr + 4 * b), sum));
      }
    }
  }
}

/// Rows per column sweep: four while their accumulators fit the sixteen
/// ymm registers beside the widened column (up to 8 lanes), else two.
template <size_t LANES>
inline constexpr size_t kRowBlock = LANES <= 8 ? 4 : 2;

template <size_t LANES, typename ColAt>
void matvec_rows(const float* a, size_t rows, size_t cols, ColAt col_at, size_t count,
                 const float* x_lanes, float* y_lanes) {
  constexpr size_t RB = kRowBlock<LANES>;
  size_t r = 0;
  for (; r + RB <= rows; r += RB) {
    matvec_row_block<LANES, RB>(a + r * cols, cols, col_at, count, x_lanes,
                                y_lanes + r * LANES);
  }
  for (; r < rows; ++r) {
    matvec_row_block<LANES, 1>(a + r * cols, cols, col_at, count, x_lanes, y_lanes + r * LANES);
  }
}

template <size_t LANES>
void matvec_lanes_fixed(const float* a, size_t rows, size_t cols, const float* x_lanes,
                        float* y_lanes) {
  matvec_rows<LANES>(a, rows, cols, [](size_t i) { return i; }, cols, x_lanes, y_lanes);
}

template <size_t LANES>
void matvec_gather_lanes_fixed(const float* a, size_t rows, size_t cols, const float* x_lanes,
                               const uint32_t* active, size_t num_active, float* y_lanes) {
  matvec_rows<LANES>(
      a, rows, cols, [active](size_t i) { return static_cast<size_t>(active[i]); }, num_active,
      x_lanes, y_lanes);
}

template <size_t LANES>
void conv_lanes_dense_fixed(const ConvLaneGeom& g, const float* weights, const float* in_lanes,
                            float* syn_lanes) {
  constexpr size_t NB = LaneBlocks<LANES>::kVec;
  constexpr size_t TAIL = LaneBlocks<LANES>::kTail;
  const size_t oh = g.out_height;
  const size_t ow = g.out_width;
  const size_t k = g.kernel;
  const size_t plane = g.in_height * g.in_width;
  for (size_t oc = 0; oc < g.out_channels; ++oc) {
    for (size_t oy = 0; oy < oh; ++oy) {
      for (size_t ox = 0; ox < ow; ++ox) {
        __m256d acc[NB > 0 ? NB : 1];
        for (size_t b = 0; b < NB; ++b) acc[b] = _mm256_setzero_pd();
        double acc_tail[TAIL > 0 ? TAIL : 1] = {};
        for (size_t ic = 0; ic < g.in_channels; ++ic) {
          const float* w_base = weights + ((oc * g.in_channels + ic) * k) * k;
          const float* in_base = in_lanes + ic * plane * LANES;
          for (size_t ky = 0; ky < k; ++ky) {
            const long iy = static_cast<long>(oy * g.stride + ky) - static_cast<long>(g.padding);
            if (iy < 0 || iy >= static_cast<long>(g.in_height)) continue;
            for (size_t kx = 0; kx < k; ++kx) {
              const long ix = static_cast<long>(ox * g.stride + kx) - static_cast<long>(g.padding);
              if (ix < 0 || ix >= static_cast<long>(g.in_width)) continue;
              const double w = w_base[ky * k + kx];
              const float* xv = in_base + (iy * static_cast<long>(g.in_width) + ix) *
                                              static_cast<long>(LANES);
              if constexpr (NB > 0) {
                const __m256d wv = _mm256_set1_pd(w);
                for (size_t b = 0; b < NB; ++b) {
                  const __m256d xd = _mm256_cvtps_pd(_mm_loadu_ps(xv + 4 * b));
                  acc[b] = _mm256_add_pd(acc[b], _mm256_mul_pd(wv, xd));
                }
              }
              for (size_t t = 0; t < TAIL; ++t) acc_tail[t] += w * xv[4 * NB + t];
            }
          }
        }
        float* out = syn_lanes + ((oc * oh + oy) * ow + ox) * LANES;
        for (size_t b = 0; b < NB; ++b) {
          _mm_storeu_ps(out + 4 * b, _mm256_cvtpd_ps(acc[b]));
        }
        for (size_t t = 0; t < TAIL; ++t) {
          out[4 * NB + t] = static_cast<float>(acc_tail[t]);
        }
      }
    }
  }
}

template <size_t LANES>
void conv_lanes_scatter_fixed(const ConvLaneGeom& g, const float* weights, const float* in_lanes,
                              const uint32_t* active, size_t num_active, double* acc,
                              float* syn_lanes) {
  constexpr size_t NB = LaneBlocks<LANES>::kVec;
  constexpr size_t TAIL = LaneBlocks<LANES>::kTail;
  const size_t oh = g.out_height;
  const size_t ow = g.out_width;
  const size_t k = g.kernel;
  const size_t out_size = g.output_size();
  const size_t plane = g.in_height * g.in_width;
  const long stride = static_cast<long>(g.stride);
  for (size_t i = 0; i < num_active; ++i) {
    const size_t flat = active[i];
    const size_t ic = flat / plane;
    const size_t rem = flat % plane;
    const size_t iy = rem / g.in_width;
    const size_t ix = rem % g.in_width;
    const float* vals = in_lanes + flat * LANES;
    // The pixel's lane values are reused for every (oc, ky, kx) tap: widen
    // them to double once (exact conversion, so numerically invisible).
    __m256d vals_pd[NB > 0 ? NB : 1];
    for (size_t b = 0; b < NB; ++b) vals_pd[b] = _mm256_cvtps_pd(_mm_loadu_ps(vals + 4 * b));
    for (size_t oc = 0; oc < g.out_channels; ++oc) {
      const float* w_base = weights + ((oc * g.in_channels + ic) * k) * k;
      double* acc_base = acc + oc * oh * ow * LANES;
      for (size_t ky = 0; ky < k; ++ky) {
        const long num_y = static_cast<long>(iy + g.padding) - static_cast<long>(ky);
        if (num_y < 0 || num_y % stride != 0) continue;
        const long oy = num_y / stride;
        if (oy >= static_cast<long>(oh)) continue;
        for (size_t kx = 0; kx < k; ++kx) {
          const long num_x = static_cast<long>(ix + g.padding) - static_cast<long>(kx);
          if (num_x < 0 || num_x % stride != 0) continue;
          const long ox = num_x / stride;
          if (ox >= static_cast<long>(ow)) continue;
          const double w = w_base[ky * k + kx];
          double* a = acc_base + (oy * static_cast<long>(ow) + ox) * static_cast<long>(LANES);
          if constexpr (NB > 0) {
            const __m256d wv = _mm256_set1_pd(w);
            for (size_t b = 0; b < NB; ++b) {
              const __m256d cur = _mm256_loadu_pd(a + 4 * b);
              _mm256_storeu_pd(a + 4 * b, _mm256_add_pd(cur, _mm256_mul_pd(wv, vals_pd[b])));
            }
          }
          for (size_t t = 0; t < TAIL; ++t) a[4 * NB + t] += w * vals[4 * NB + t];
        }
      }
    }
  }
  // Flat narrow of the double accumulators (length out_size * LANES, so the
  // 4-wide blocks need no per-pixel tail handling).
  const size_t total = out_size * LANES;
  size_t f = 0;
  for (; f + 4 <= total; f += 4) {
    _mm_storeu_ps(syn_lanes + f, _mm256_cvtpd_ps(_mm256_loadu_pd(acc + f)));
  }
  for (; f < total; ++f) syn_lanes[f] = static_cast<float>(acc[f]);
}

template <size_t LANES>
void pool_lanes_fixed(size_t channels, size_t in_height, size_t in_width, size_t window,
                      const float* in_lanes, float* syn_lanes) {
  constexpr size_t NB8 = LANES / 8;   // 8-wide float blocks
  constexpr size_t TAIL8 = LANES % 8;
  const size_t oh = in_height / window;
  const size_t ow = in_width / window;
  for (size_t c = 0; c < channels; ++c) {
    const float* in_base = in_lanes + c * in_height * in_width * LANES;
    for (size_t oy = 0; oy < oh; ++oy) {
      for (size_t ox = 0; ox < ow; ++ox) {
        __m256 acc[NB8 > 0 ? NB8 : 1];
        for (size_t b = 0; b < NB8; ++b) acc[b] = _mm256_setzero_ps();
        float acc_tail[TAIL8 > 0 ? TAIL8 : 1] = {};
        for (size_t wy = 0; wy < window; ++wy) {
          const size_t iy = oy * window + wy;
          for (size_t wx = 0; wx < window; ++wx) {
            const float* p = in_base + (iy * in_width + ox * window + wx) * LANES;
            for (size_t b = 0; b < NB8; ++b) {
              acc[b] = _mm256_add_ps(acc[b], _mm256_loadu_ps(p + 8 * b));
            }
            for (size_t t = 0; t < TAIL8; ++t) acc_tail[t] += p[8 * NB8 + t];
          }
        }
        float* out = syn_lanes + ((c * oh + oy) * ow + ox) * LANES;
        for (size_t b = 0; b < NB8; ++b) _mm256_storeu_ps(out + 8 * b, acc[b]);
        for (size_t t = 0; t < TAIL8; ++t) out[8 * NB8 + t] = acc_tail[t];
      }
    }
  }
}

void matvec_lanes(const float* a, size_t rows, size_t cols, const float* x_lanes, size_t lanes,
                  float* y_lanes) {
  switch (lanes) {
#define SNNTEST_CASE(n) \
  case n: return matvec_lanes_fixed<n>(a, rows, cols, x_lanes, y_lanes);
    SNNTEST_CASE(1) SNNTEST_CASE(2) SNNTEST_CASE(3) SNNTEST_CASE(4)
    SNNTEST_CASE(5) SNNTEST_CASE(6) SNNTEST_CASE(7) SNNTEST_CASE(8)
    SNNTEST_CASE(9) SNNTEST_CASE(10) SNNTEST_CASE(11) SNNTEST_CASE(12)
    SNNTEST_CASE(13) SNNTEST_CASE(14) SNNTEST_CASE(15) SNNTEST_CASE(16)
#undef SNNTEST_CASE
    default: return;  // callers validate lanes in [1, kMaxLanes]
  }
}

void matvec_gather_lanes(const float* a, size_t rows, size_t cols, const float* x_lanes,
                         size_t lanes, const uint32_t* active, size_t num_active,
                         float* y_lanes) {
  switch (lanes) {
#define SNNTEST_CASE(n) \
  case n: return matvec_gather_lanes_fixed<n>(a, rows, cols, x_lanes, active, num_active, y_lanes);
    SNNTEST_CASE(1) SNNTEST_CASE(2) SNNTEST_CASE(3) SNNTEST_CASE(4)
    SNNTEST_CASE(5) SNNTEST_CASE(6) SNNTEST_CASE(7) SNNTEST_CASE(8)
    SNNTEST_CASE(9) SNNTEST_CASE(10) SNNTEST_CASE(11) SNNTEST_CASE(12)
    SNNTEST_CASE(13) SNNTEST_CASE(14) SNNTEST_CASE(15) SNNTEST_CASE(16)
#undef SNNTEST_CASE
    default: return;
  }
}

void conv_lanes_dense(const ConvLaneGeom& g, const float* weights, const float* in_lanes,
                      size_t lanes, float* syn_lanes) {
  switch (lanes) {
#define SNNTEST_CASE(n) \
  case n: return conv_lanes_dense_fixed<n>(g, weights, in_lanes, syn_lanes);
    SNNTEST_CASE(1) SNNTEST_CASE(2) SNNTEST_CASE(3) SNNTEST_CASE(4)
    SNNTEST_CASE(5) SNNTEST_CASE(6) SNNTEST_CASE(7) SNNTEST_CASE(8)
    SNNTEST_CASE(9) SNNTEST_CASE(10) SNNTEST_CASE(11) SNNTEST_CASE(12)
    SNNTEST_CASE(13) SNNTEST_CASE(14) SNNTEST_CASE(15) SNNTEST_CASE(16)
#undef SNNTEST_CASE
    default: return;
  }
}

void conv_lanes_scatter(const ConvLaneGeom& g, const float* weights, const float* in_lanes,
                        size_t lanes, const uint32_t* active, size_t num_active, double* acc,
                        float* syn_lanes) {
  switch (lanes) {
#define SNNTEST_CASE(n) \
  case n: return conv_lanes_scatter_fixed<n>(g, weights, in_lanes, active, num_active, acc, \
                                             syn_lanes);
    SNNTEST_CASE(1) SNNTEST_CASE(2) SNNTEST_CASE(3) SNNTEST_CASE(4)
    SNNTEST_CASE(5) SNNTEST_CASE(6) SNNTEST_CASE(7) SNNTEST_CASE(8)
    SNNTEST_CASE(9) SNNTEST_CASE(10) SNNTEST_CASE(11) SNNTEST_CASE(12)
    SNNTEST_CASE(13) SNNTEST_CASE(14) SNNTEST_CASE(15) SNNTEST_CASE(16)
#undef SNNTEST_CASE
    default: return;
  }
}

void pool_lanes(size_t channels, size_t in_height, size_t in_width, size_t window,
                const float* in_lanes, size_t lanes, float* syn_lanes) {
  switch (lanes) {
#define SNNTEST_CASE(n) \
  case n: return pool_lanes_fixed<n>(channels, in_height, in_width, window, in_lanes, syn_lanes);
    SNNTEST_CASE(1) SNNTEST_CASE(2) SNNTEST_CASE(3) SNNTEST_CASE(4)
    SNNTEST_CASE(5) SNNTEST_CASE(6) SNNTEST_CASE(7) SNNTEST_CASE(8)
    SNNTEST_CASE(9) SNNTEST_CASE(10) SNNTEST_CASE(11) SNNTEST_CASE(12)
    SNNTEST_CASE(13) SNNTEST_CASE(14) SNNTEST_CASE(15) SNNTEST_CASE(16)
#undef SNNTEST_CASE
    default: return;
  }
}

/// RB 4-row blocks of column adds: the block's accumulators stay in
/// registers while the plus and then the minus columns stream past, so each
/// row takes its terms in the scalar kernel's order.
template <size_t RB>
inline void column_add_block(const float* wt, size_t rows, const uint32_t* plus, size_t num_plus,
                             const uint32_t* minus, size_t num_minus, double* acc) {
  __m256d a[RB];
  for (size_t j = 0; j < RB; ++j) a[j] = _mm256_loadu_pd(acc + 4 * j);
  for (size_t i = 0; i < num_plus; ++i) {
    const float* col = wt + static_cast<size_t>(plus[i]) * rows;
    for (size_t j = 0; j < RB; ++j) {
      a[j] = _mm256_add_pd(a[j], _mm256_cvtps_pd(_mm_loadu_ps(col + 4 * j)));
    }
  }
  for (size_t i = 0; i < num_minus; ++i) {
    const float* col = wt + static_cast<size_t>(minus[i]) * rows;
    for (size_t j = 0; j < RB; ++j) {
      a[j] = _mm256_sub_pd(a[j], _mm256_cvtps_pd(_mm_loadu_ps(col + 4 * j)));
    }
  }
  for (size_t j = 0; j < RB; ++j) _mm256_storeu_pd(acc + 4 * j, a[j]);
}

void column_adds(const float* wt, size_t rows, const uint32_t* plus, size_t num_plus,
                 const uint32_t* minus, size_t num_minus, double* acc) {
  size_t r = 0;
  for (; r + 16 <= rows; r += 16) {
    column_add_block<4>(wt + r, rows, plus, num_plus, minus, num_minus, acc + r);
  }
  for (; r + 4 <= rows; r += 4) {
    column_add_block<1>(wt + r, rows, plus, num_plus, minus, num_minus, acc + r);
  }
  for (; r < rows; ++r) {
    double v = acc[r];
    for (size_t i = 0; i < num_plus; ++i) v += static_cast<double>(wt[plus[i] * rows + r]);
    for (size_t i = 0; i < num_minus; ++i) v -= static_cast<double>(wt[minus[i] * rows + r]);
    acc[r] = v;
  }
}

/// 0/1 bytes of an 8-wide compare mask into dst[0..8).
inline void store_mask_bytes(uint8_t* dst, __m256 mask) {
  const __m256i bits = _mm256_srli_epi32(_mm256_castps_si256(mask), 31);
  const __m128i words =
      _mm_packs_epi32(_mm256_castsi256_si128(bits), _mm256_extracti128_si256(bits, 1));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(dst), _mm_packus_epi16(words, words));
}

/// Eight LIF elements starting at element i (see the scalar lif_frame_impl).
template <bool kTraced>
inline void lif_block(const LifFrameParams& p, size_t i, const float* syn, float* u, int* refrac,
                      float* out, const LifFrameTrace& trace) {
  const __m256i zero_i = _mm256_setzero_si256();
  const __m256i md =
      _mm256_cvtepu8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p.mode + i)));
  const __m256i normal_i = _mm256_cmpeq_epi32(md, zero_i);
  const __m256 saturated = _mm256_castsi256_ps(_mm256_cmpeq_epi32(md, _mm256_set1_epi32(2)));
  const __m256 u_v = _mm256_loadu_ps(u + i);
  const __m256i rf_v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(refrac + i));
  // Refractory normal elements: spike 0, u = reset, refrac decremented.
  // The compare mask is all-ones (== -1) per true element, so adding it
  // decrements.
  const __m256i in_refrac_i = _mm256_and_si256(_mm256_cmpgt_epi32(rf_v, zero_i), normal_i);
  const __m256 in_refrac = _mm256_castsi256_ps(in_refrac_i);
  const __m256 integrating = _mm256_andnot_ps(in_refrac, _mm256_castsi256_ps(normal_i));
  // Integration (computed for every element; the others discard it):
  // unfused mul + add, exactly the scalar `leak * u + syn`.
  const __m256 u_pre =
      _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(p.leak + i), u_v), _mm256_loadu_ps(syn + i));
  // Quiet ordered >= : NaN u_pre compares false, like the scalar branch.
  const __m256 ge = _mm256_cmp_ps(u_pre, _mm256_loadu_ps(p.threshold + i), _CMP_GE_OQ);
  const __m256 spike = _mm256_and_ps(ge, integrating);
  // Dead and saturated elements keep u and refrac as they are; u_int is
  // also the trace's u_pre (the entering u where nothing was integrated).
  const __m256 u_int = _mm256_blendv_ps(u_v, u_pre, integrating);
  const __m256 u_new =
      _mm256_blendv_ps(u_int, _mm256_set1_ps(p.reset_v), _mm256_or_ps(in_refrac, spike));
  const __m256i rf_dec = _mm256_add_epi32(rf_v, in_refrac_i);
  const __m256i rf_new =
      _mm256_blendv_epi8(rf_dec,
                         _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p.refractory + i)),
                         _mm256_castps_si256(spike));
  const __m256 fired = _mm256_or_ps(spike, saturated);
  _mm256_storeu_ps(u + i, u_new);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(refrac + i), rf_new);
  _mm256_storeu_ps(out + i, _mm256_and_ps(fired, _mm256_set1_ps(1.0f)));
  if constexpr (kTraced) {
    _mm256_storeu_ps(trace.u_pre + i, u_int);
    store_mask_bytes(trace.spiked + i, fired);
    store_mask_bytes(trace.integrated + i, integrating);
  }
}

/// Whole blocks of eight, then the count % 8 tail through the same block
/// body on a padded copy whose padding elements are dead (no state, no
/// spike), so no element takes a different code path than in a full block.
template <bool kTraced>
void lif_frame_impl(const LifFrameParams& p, size_t count, const float* syn, float* u,
                    int* refrac, float* out, const LifFrameTrace& trace) {
  size_t i = 0;
  for (; i + 8 <= count; i += 8) lif_block<kTraced>(p, i, syn, u, refrac, out, trace);
  const size_t n = count - i;
  if (n == 0) return;
  float leak[8] = {}, thr[8] = {}, s[8] = {}, uu[8] = {}, o[8], up[8];
  int refractory[8] = {}, rf[8] = {};
  uint8_t mode[8] = {1, 1, 1, 1, 1, 1, 1, 1}, spiked[8], integrated[8];
  for (size_t j = 0; j < n; ++j) {
    leak[j] = p.leak[i + j];
    thr[j] = p.threshold[i + j];
    refractory[j] = p.refractory[i + j];
    mode[j] = p.mode[i + j];
    s[j] = syn[i + j];
    uu[j] = u[i + j];
    rf[j] = refrac[i + j];
  }
  const LifFrameParams tail{leak, thr, refractory, mode, p.reset_v};
  lif_block<kTraced>(tail, 0, s, uu, rf, o, LifFrameTrace{up, spiked, integrated});
  for (size_t j = 0; j < n; ++j) {
    u[i + j] = uu[j];
    refrac[i + j] = rf[j];
    out[i + j] = o[j];
    if constexpr (kTraced) {
      trace.u_pre[i + j] = up[j];
      trace.spiked[i + j] = spiked[j];
      trace.integrated[i + j] = integrated[j];
    }
  }
}

void lif_frame(const LifFrameParams& p, size_t count, const float* syn, float* u, int* refrac,
               float* out) {
  lif_frame_impl<false>(p, count, syn, u, refrac, out, LifFrameTrace{});
}

void lif_frame_traced(const LifFrameParams& p, size_t count, const float* syn, float* u,
                      int* refrac, float* out, const LifFrameTrace& trace) {
  lif_frame_impl<true>(p, count, syn, u, refrac, out, trace);
}

/// Masks selecting the first `n` doubles (n in 1..4) or floats (n in 0..8)
/// of a vector, for the masked load/store of a partial last block.
inline __m256i mask_pd(size_t n) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}
inline __m256i mask_ps(size_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Output channels [oc0, oc0 + count) of one output pixel, count in
/// (4*(NB-1), 4*NB]: their accumulators stay in NB registers while the
/// live taps stream past in (ic, ky, kx) order. The last block loads its
/// weights masked; its absent channels are never stored.
template <size_t NB>
inline void conv_pixel_block(const ConvLaneGeom& g, const double* packed, const float* in,
                             long y0, TapRange ys, long x0, TapRange xs, size_t oc0,
                             size_t count, double* out) {
  const size_t k = g.kernel;
  const size_t noc = g.out_channels;
  const size_t plane = g.in_height * g.in_width;
  const long width = static_cast<long>(g.in_width);
  const __m256i last = mask_pd(count - 4 * (NB - 1));
  __m256d acc[NB];
  for (size_t b = 0; b < NB; ++b) acc[b] = _mm256_setzero_pd();
  for (size_t ic = 0; ic < g.in_channels; ++ic) {
    const float* in_base = in + ic * plane;
    for (size_t ky = ys.lo; ky < ys.hi; ++ky) {
      const long row = (y0 + static_cast<long>(ky)) * width + x0;
      const double* w_row = packed + ((ic * k + ky) * k) * noc + oc0;
      for (size_t kx = xs.lo; kx < xs.hi; ++kx) {
        const __m256d v = _mm256_set1_pd(static_cast<double>(in_base[row + static_cast<long>(kx)]));
        const double* w = w_row + kx * noc;
        for (size_t b = 0; b + 1 < NB; ++b) {
          acc[b] = _mm256_add_pd(acc[b], _mm256_mul_pd(_mm256_loadu_pd(w + 4 * b), v));
        }
        const __m256d wl = _mm256_maskload_pd(w + 4 * (NB - 1), last);
        acc[NB - 1] = _mm256_add_pd(acc[NB - 1], _mm256_mul_pd(wl, v));
      }
    }
  }
  for (size_t b = 0; b + 1 < NB; ++b) _mm256_storeu_pd(out + 4 * b, acc[b]);
  _mm256_maskstore_pd(out + 4 * (NB - 1), last, acc[NB - 1]);
}

void conv_frame_dense(const ConvLaneGeom& g, const double* packed, const float* in, double* acc,
                      float* syn) {
  const size_t oh = g.out_height;
  const size_t ow = g.out_width;
  const size_t noc = g.out_channels;
  for (size_t oy = 0; oy < oh; ++oy) {
    const long y0 = static_cast<long>(oy * g.stride) - static_cast<long>(g.padding);
    const TapRange ys = live_taps(y0, g.kernel, g.in_height);
    for (size_t ox = 0; ox < ow; ++ox) {
      const long x0 = static_cast<long>(ox * g.stride) - static_cast<long>(g.padding);
      const TapRange xs = live_taps(x0, g.kernel, g.in_width);
      for (size_t oc0 = 0; oc0 < noc; oc0 += 16) {
        const size_t count = noc - oc0 < 16 ? noc - oc0 : 16;
        switch ((count + 3) / 4) {
          case 4: conv_pixel_block<4>(g, packed, in, y0, ys, x0, xs, oc0, count, acc + oc0); break;
          case 3: conv_pixel_block<3>(g, packed, in, y0, ys, x0, xs, oc0, count, acc + oc0); break;
          case 2: conv_pixel_block<2>(g, packed, in, y0, ys, x0, xs, oc0, count, acc + oc0); break;
          default: conv_pixel_block<1>(g, packed, in, y0, ys, x0, xs, oc0, count, acc + oc0); break;
        }
      }
      for (size_t oc = 0; oc < noc; ++oc) {
        syn[(oc * oh + oy) * ow + ox] = static_cast<float>(acc[oc]);
      }
    }
  }
}

void conv_frame_scatter(const ConvLaneGeom& g, const double* packed, const float* in,
                        const uint32_t* active, size_t num_active, double* acc, float* syn) {
  const size_t oh = g.out_height;
  const size_t ow = g.out_width;
  const size_t k = g.kernel;
  const size_t noc = g.out_channels;
  const size_t positions = oh * ow;
  const size_t plane = g.in_height * g.in_width;
  const size_t full = noc & ~size_t{3};
  const __m256i tail = mask_pd(noc - full);
  for (size_t f = 0; f < positions * noc; ++f) acc[f] = 0.0;
  for (size_t i = 0; i < num_active; ++i) {
    const size_t flat = active[i];
    const size_t ic = flat / plane;
    const size_t rem = flat % plane;
    const __m256d val = _mm256_set1_pd(static_cast<double>(in[flat]));
    const ScatterTaps taps(g, rem / g.in_width, rem % g.in_width);
    for (size_t ky = taps.ky0, oy = taps.oy0; ky <= taps.ky_end; ky += g.stride, --oy) {
      if (oy >= oh) continue;
      for (size_t kx = taps.kx0, ox = taps.ox0; kx <= taps.kx_end; kx += g.stride, --ox) {
        if (ox >= ow) continue;
        double* a = acc + (oy * ow + ox) * noc;
        const double* w = packed + ((ic * k + ky) * k + kx) * noc;
        for (size_t oc = 0; oc < full; oc += 4) {
          _mm256_storeu_pd(a + oc, _mm256_add_pd(_mm256_loadu_pd(a + oc),
                                                 _mm256_mul_pd(_mm256_loadu_pd(w + oc), val)));
        }
        if (full < noc) {
          const __m256d sum = _mm256_add_pd(_mm256_maskload_pd(a + full, tail),
                                            _mm256_mul_pd(_mm256_maskload_pd(w + full, tail), val));
          _mm256_maskstore_pd(a + full, tail, sum);
        }
      }
    }
  }
  for (size_t p = 0; p < positions; ++p) {
    for (size_t oc = 0; oc < noc; ++oc) {
      syn[oc * positions + p] = static_cast<float>(acc[p * noc + oc]);
    }
  }
}

/// conv_frame_scatter's tap walk with pixel value 1.0: the packed weights
/// added (or, for kSub, subtracted) four channels at a time, the last
/// channels masked.
template <bool kSub>
void tap_walk(const ConvLaneGeom& g, const double* packed, const uint32_t* pixels, size_t count,
              double* acc) {
  const size_t oh = g.out_height;
  const size_t ow = g.out_width;
  const size_t k = g.kernel;
  const size_t noc = g.out_channels;
  const size_t plane = g.in_height * g.in_width;
  const size_t full = noc & ~size_t{3};
  const __m256i tail = mask_pd(noc - full);
  auto op = [](__m256d a, __m256d w) {
    if constexpr (kSub) {
      return _mm256_sub_pd(a, w);
    } else {
      return _mm256_add_pd(a, w);
    }
  };
  for (size_t i = 0; i < count; ++i) {
    const size_t flat = pixels[i];
    const size_t ic = flat / plane;
    const size_t rem = flat % plane;
    const ScatterTaps taps(g, rem / g.in_width, rem % g.in_width);
    for (size_t ky = taps.ky0, oy = taps.oy0; ky <= taps.ky_end; ky += g.stride, --oy) {
      if (oy >= oh) continue;
      for (size_t kx = taps.kx0, ox = taps.ox0; kx <= taps.kx_end; kx += g.stride, --ox) {
        if (ox >= ow) continue;
        double* a = acc + (oy * ow + ox) * noc;
        const double* w = packed + ((ic * k + ky) * k + kx) * noc;
        for (size_t oc = 0; oc < full; oc += 4) {
          _mm256_storeu_pd(a + oc, op(_mm256_loadu_pd(a + oc), _mm256_loadu_pd(w + oc)));
        }
        if (full < noc) {
          _mm256_maskstore_pd(a + full, tail,
                              op(_mm256_maskload_pd(a + full, tail),
                                 _mm256_maskload_pd(w + full, tail)));
        }
      }
    }
  }
}

void conv_tap_adds(const ConvLaneGeom& g, const double* packed, const uint32_t* plus,
                   size_t num_plus, const uint32_t* minus, size_t num_minus, double* acc) {
  tap_walk<false>(g, packed, plus, num_plus, acc);
  tap_walk<true>(g, packed, minus, num_minus, acc);
}

void conv_backward_input(const ConvLaneGeom& g, const float* packed_backward,
                         const float* grad_syn, float* gin) {
  const size_t oh = g.out_height;
  const size_t ow = g.out_width;
  const size_t k = g.kernel;
  const size_t nic = g.in_channels;
  const long width = static_cast<long>(g.in_width);
  for (size_t oc = 0; oc < g.out_channels; ++oc) {
    for (size_t oy = 0; oy < oh; ++oy) {
      const long y0 = static_cast<long>(oy * g.stride) - static_cast<long>(g.padding);
      const TapRange ys = live_taps(y0, k, g.in_height);
      for (size_t ox = 0; ox < ow; ++ox) {
        const float gv = grad_syn[(oc * oh + oy) * ow + ox];
        if (gv == 0.0f) continue;
        const long x0 = static_cast<long>(ox * g.stride) - static_cast<long>(g.padding);
        const TapRange xs = live_taps(x0, k, g.in_width);
        const size_t run = (xs.hi - xs.lo) * nic;
        const size_t full = run & ~size_t{7};
        const __m256i tail = mask_ps(run - full);
        const __m256 gvv = _mm256_set1_ps(gv);
        for (size_t ky = ys.lo; ky < ys.hi; ++ky) {
          const long first = (y0 + static_cast<long>(ky)) * width + x0 + static_cast<long>(xs.lo);
          float* dst = gin + static_cast<size_t>(first) * nic;
          const float* w = packed_backward + ((oc * k + ky) * k + xs.lo) * nic;
          for (size_t j = 0; j < full; j += 8) {
            _mm256_storeu_ps(dst + j, _mm256_add_ps(_mm256_loadu_ps(dst + j),
                                                    _mm256_mul_ps(gvv, _mm256_loadu_ps(w + j))));
          }
          if (full < run) {
            const __m256 sum = _mm256_add_ps(_mm256_maskload_ps(dst + full, tail),
                                             _mm256_mul_ps(gvv, _mm256_maskload_ps(w + full, tail)));
            _mm256_maskstore_ps(dst + full, tail, sum);
          }
        }
      }
    }
  }
}

/// RB live rows (x[r] != 0, ascending) of a transpose matvec in one column
/// sweep: each 8-column block of y is loaded once and takes the rows'
/// products in row order, so every y[c] sees the scalar kernel's term
/// sequence.
template <size_t RB>
inline void transpose_rows(const float* a, size_t cols, const size_t* live, const float* x,
                           float* y) {
  const float* row[RB];
  __m256 xv[RB];
  for (size_t j = 0; j < RB; ++j) {
    row[j] = a + live[j] * cols;
    xv[j] = _mm256_set1_ps(x[live[j]]);
  }
  size_t c = 0;
  for (; c + 8 <= cols; c += 8) {
    __m256 acc = _mm256_loadu_ps(y + c);
    for (size_t j = 0; j < RB; ++j) {
      acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(row[j] + c), xv[j]));
    }
    _mm256_storeu_ps(y + c, acc);
  }
  for (; c < cols; ++c) {
    float v = y[c];
    for (size_t j = 0; j < RB; ++j) v += row[j][c] * x[live[j]];
    y[c] = v;
  }
}

void matvec_transpose(const float* a, size_t rows, size_t cols, const float* x, float* y) {
  size_t live[4];
  size_t num_live = 0;
  for (size_t r = 0; r < rows; ++r) {
    if (x[r] == 0.0f) continue;  // the scalar kernel's silent-row skip
    live[num_live++] = r;
    if (num_live == 4) {
      transpose_rows<4>(a, cols, live, x, y);
      num_live = 0;
    }
  }
  switch (num_live) {
    case 3: return transpose_rows<3>(a, cols, live, x, y);
    case 2: return transpose_rows<2>(a, cols, live, x, y);
    case 1: return transpose_rows<1>(a, cols, live, x, y);
    default: return;
  }
}

// ---- the optimizer step of test generation ----

void gumbel_logits(const float* real, const double* g1, const double* g2, size_t count,
                   double tau, double* x) {
  const __m256d tau_v = _mm256_set1_pd(tau);
  const __m256d sign = _mm256_set1_pd(-0.0);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256d logit = _mm256_cvtps_pd(_mm_loadu_ps(real + i));
    if (g1 != nullptr) {
      logit = _mm256_add_pd(logit,
                            _mm256_sub_pd(_mm256_loadu_pd(g1 + i), _mm256_loadu_pd(g2 + i)));
    }
    // -logit flips the sign bit, exactly as the scalar negation does.
    _mm256_storeu_pd(x + i, _mm256_div_pd(_mm256_xor_pd(logit, sign), tau_v));
  }
  for (; i < count; ++i) {
    double logit = real[i];
    if (g1 != nullptr) logit += g1[i] - g2[i];
    x[i] = -logit / tau;
  }
}

void gumbel_binarize(const double* e, size_t count, float* soft, float* binary) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d s = _mm256_div_pd(one, _mm256_add_pd(one, _mm256_loadu_pd(e + i)));
    _mm_storeu_ps(soft + i, _mm256_cvtpd_ps(s));
    // Ordered quiet >: a NaN s binarizes to 0, like the scalar compare.
    const __m256d on = _mm256_and_pd(_mm256_cmp_pd(s, half, _CMP_GT_OQ), one);
    _mm_storeu_ps(binary + i, _mm256_cvtpd_ps(on));
  }
  for (; i < count; ++i) {
    const double s = 1.0 / (1.0 + e[i]);
    soft[i] = static_cast<float>(s);
    binary[i] = s > 0.5 ? 1.0f : 0.0f;
  }
}

/// Eight 0/1 (or any nonzero) bytes as an all-ones/all-zeros float mask.
inline __m256 load_mask_bytes(const uint8_t* src) {
  const __m256i b =
      _mm256_cvtepu8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(src)));
  return _mm256_castsi256_ps(_mm256_cmpgt_epi32(b, _mm256_setzero_si256()));
}

inline __m256 abs_ps(__m256 x) { return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), x); }

/// The three surrogate pseudo-derivatives, 8-wide: the float expressions of
/// the scalar table's functors, op for op.
struct FastSigmoid {
  __m256 alpha;
  __m256 operator()(__m256 x) const {
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 d = _mm256_add_ps(_mm256_mul_ps(alpha, abs_ps(x)), one);
    return _mm256_div_ps(one, _mm256_mul_ps(d, d));
  }
};
struct Atan {
  __m256 slope;
  __m256 scale;
  __m256 operator()(__m256 x) const {
    const __m256 z = _mm256_mul_ps(slope, x);
    return _mm256_div_ps(scale, _mm256_add_ps(_mm256_set1_ps(1.0f), _mm256_mul_ps(z, z)));
  }
};
struct Rectangular {
  __m256 half_width;
  __m256 height;
  __m256 operator()(__m256 x) const {
    return _mm256_and_ps(_mm256_cmp_ps(abs_ps(x), half_width, _CMP_LT_OQ), height);
  }
};

/// Eight neurons of one BPTT frame. A non-integrated neuron's grad_syn and
/// carry are masked to +0.0f, the scalar branch's stores.
template <typename Surrogate>
inline void lif_backward_block(const float* thr, const float* leak, const float* u_pre,
                               const uint8_t* spiked, const uint8_t* integrated,
                               const Surrogate& surrogate, const float* grad_spike,
                               float* carry, float* grad_syn) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 integ = load_mask_bytes(integrated);
  const __m256 s = _mm256_and_ps(load_mask_bytes(spiked), one);
  const __m256 surr = surrogate(_mm256_sub_ps(_mm256_loadu_ps(u_pre), _mm256_loadu_ps(thr)));
  const __m256 g = _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(grad_spike), surr),
                                 _mm256_mul_ps(_mm256_loadu_ps(carry), _mm256_sub_ps(one, s)));
  _mm256_storeu_ps(grad_syn, _mm256_and_ps(g, integ));
  _mm256_storeu_ps(carry, _mm256_and_ps(_mm256_mul_ps(_mm256_loadu_ps(leak), g), integ));
}

/// Whole blocks of eight, then the count % 8 tail through the same block
/// on a padded copy whose padding neurons are not integrated.
template <typename Surrogate>
void lif_backward_impl(const LifBackwardParams& p, const Surrogate& surrogate, size_t count,
                       const float* grad_spike, float* carry, float* grad_syn) {
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    lif_backward_block(p.threshold + i, p.leak + i, p.u_pre + i, p.spiked + i,
                       p.integrated + i, surrogate, grad_spike + i, carry + i, grad_syn + i);
  }
  const size_t n = count - i;
  if (n == 0) return;
  float thr[8] = {}, leak[8] = {}, up[8] = {}, gs[8] = {}, cr[8] = {}, out[8];
  uint8_t sp[8] = {}, in[8] = {};
  for (size_t j = 0; j < n; ++j) {
    thr[j] = p.threshold[i + j];
    leak[j] = p.leak[i + j];
    up[j] = p.u_pre[i + j];
    sp[j] = p.spiked[i + j];
    in[j] = p.integrated[i + j];
    gs[j] = grad_spike[i + j];
    cr[j] = carry[i + j];
  }
  lif_backward_block(thr, leak, up, sp, in, surrogate, gs, cr, out);
  for (size_t j = 0; j < n; ++j) {
    carry[i + j] = cr[j];
    grad_syn[i + j] = out[j];
  }
}

void lif_backward_frame(const LifBackwardParams& p, size_t count, const float* grad_spike,
                        float* carry, float* grad_syn) {
  switch (p.surrogate) {
    case 1:
      return lif_backward_impl(
          p, Atan{_mm256_set1_ps(kHalfPi * p.alpha), _mm256_set1_ps(0.5f * p.alpha)}, count,
          grad_spike, carry, grad_syn);
    case 2:
      return lif_backward_impl(
          p, Rectangular{_mm256_set1_ps(1.0f / p.alpha), _mm256_set1_ps(0.5f * p.alpha)},
          count, grad_spike, carry, grad_syn);
    default:
      return lif_backward_impl(p, FastSigmoid{_mm256_set1_ps(p.alpha)}, count, grad_spike,
                               carry, grad_syn);
  }
}

/// One L4 term for four rows at one column: the rows' weights `wf` (one
/// lane per row) against that column's count. A zero weight leaves its
/// row's sums untouched (blend), the scalar `continue`.
struct RowStats4 {
  __m256d sum = _mm256_setzero_pd();
  __m256d sum_sq = _mm256_setzero_pd();
  __m256d taps = _mm256_setzero_pd();

  void add(__m128 wf, double count) {
    const __m256d w = _mm256_cvtps_pd(wf);
    // NaN weights are kept, like the scalar `w == 0.0f` skip test.
    const __m256d live = _mm256_cmp_pd(w, _mm256_setzero_pd(), _CMP_NEQ_UQ);
    const __m256d c = _mm256_mul_pd(w, _mm256_set1_pd(count));
    sum = _mm256_blendv_pd(sum, _mm256_add_pd(sum, c), live);
    sum_sq = _mm256_blendv_pd(sum_sq, _mm256_add_pd(sum_sq, _mm256_mul_pd(c, c)), live);
    taps = _mm256_blendv_pd(taps, _mm256_add_pd(taps, _mm256_set1_pd(1.0)), live);
  }

  void store(double* mean, double* var, double* k) const {
    const __m256d m = _mm256_div_pd(sum, taps);
    _mm256_storeu_pd(mean, m);
    _mm256_storeu_pd(var, _mm256_sub_pd(_mm256_div_pd(sum_sq, taps), _mm256_mul_pd(m, m)));
    _mm256_storeu_pd(k, taps);
  }
};

/// Rows [r, r + 4 * G) in one column sweep: G groups of four rows, each
/// group's four rows one lane apiece. Four columns at a time are loaded
/// row-contiguous and transposed in registers, so every lane still takes
/// its row's columns in ascending order.
template <size_t G>
inline void l4_stats_rows(const float* w, size_t r, size_t cols, const double* counts,
                          double* mean, double* var, double* taps) {
  RowStats4 acc[G];
  const float* row[4 * G];
  for (size_t j = 0; j < 4 * G; ++j) row[j] = w + (r + j) * cols;
  size_t c = 0;
  for (; c + 4 <= cols; c += 4) {
    for (size_t g = 0; g < G; ++g) {
      __m128 a = _mm_loadu_ps(row[4 * g] + c);
      __m128 b = _mm_loadu_ps(row[4 * g + 1] + c);
      __m128 d = _mm_loadu_ps(row[4 * g + 2] + c);
      __m128 e = _mm_loadu_ps(row[4 * g + 3] + c);
      _MM_TRANSPOSE4_PS(a, b, d, e);
      acc[g].add(a, counts[c]);
      acc[g].add(b, counts[c + 1]);
      acc[g].add(d, counts[c + 2]);
      acc[g].add(e, counts[c + 3]);
    }
  }
  for (; c < cols; ++c) {
    for (size_t g = 0; g < G; ++g) {
      const float* const* q = row + 4 * g;
      acc[g].add(_mm_setr_ps(q[0][c], q[1][c], q[2][c], q[3][c]), counts[c]);
    }
  }
  for (size_t g = 0; g < G; ++g) {
    const size_t at = r + 4 * g;
    acc[g].store(mean + at, var + at, taps + at);
  }
}

void l4_row_stats(const float* w, size_t rows, size_t cols, const double* counts, double* mean,
                  double* var, double* taps) {
  size_t r = 0;
  for (; r + 8 <= rows; r += 8) l4_stats_rows<2>(w, r, cols, counts, mean, var, taps);
  for (; r + 4 <= rows; r += 4) l4_stats_rows<1>(w, r, cols, counts, mean, var, taps);
  for (; r < rows; ++r) {
    const float* row = w + r * cols;
    double sum = 0.0, sum_sq = 0.0, k = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      if (row[j] == 0.0f) continue;
      const double c = static_cast<double>(row[j]) * counts[j];
      sum += c;
      sum_sq += c * c;
      k += 1.0;
    }
    mean[r] = sum / k;
    var[r] = sum_sq / k - mean[r] * mean[r];
    taps[r] = k;
  }
}

/// RB live rows (taps >= 2, ascending) of the L4 gradient in one column
/// sweep: each 4-column block of grad is loaded once and takes the rows'
/// terms in row order, so every grad[col] sees the scalar term sequence.
template <size_t RB>
inline void l4_grad_rows(const float* w, size_t cols, const size_t* live, const double* counts,
                         const double* mean, const double* taps, double* grad) {
  const float* row[RB];
  __m256d mean_v[RB];
  __m256d inv_k[RB];
  double inv_k_s[RB];
  for (size_t j = 0; j < RB; ++j) {
    row[j] = w + live[j] * cols;
    mean_v[j] = _mm256_set1_pd(mean[live[j]]);
    inv_k_s[j] = 1.0 / taps[live[j]];
    inv_k[j] = _mm256_set1_pd(inv_k_s[j]);
  }
  const __m256d two = _mm256_set1_pd(2.0);
  size_t c = 0;
  for (; c + 4 <= cols; c += 4) {
    const __m256d cnt = _mm256_loadu_pd(counts + c);
    __m256d acc = _mm256_loadu_pd(grad + c);
    for (size_t j = 0; j < RB; ++j) {
      const __m256d wv = _mm256_cvtps_pd(_mm_loadu_ps(row[j] + c));
      const __m256d live_w = _mm256_cmp_pd(wv, _mm256_setzero_pd(), _CMP_NEQ_UQ);
      const __m256d cv = _mm256_mul_pd(wv, cnt);
      const __m256d term = _mm256_mul_pd(
          _mm256_mul_pd(_mm256_mul_pd(two, _mm256_sub_pd(cv, mean_v[j])), inv_k[j]), wv);
      acc = _mm256_blendv_pd(acc, _mm256_add_pd(acc, term), live_w);
    }
    _mm256_storeu_pd(grad + c, acc);
  }
  for (; c < cols; ++c) {
    for (size_t j = 0; j < RB; ++j) {
      if (row[j][c] == 0.0f) continue;
      const double cv = static_cast<double>(row[j][c]) * counts[c];
      grad[c] += 2.0 * (cv - mean[live[j]]) * inv_k_s[j] * static_cast<double>(row[j][c]);
    }
  }
}

void l4_row_grad(const float* w, size_t rows, size_t cols, const double* counts,
                 const double* mean, const double* taps, double* grad) {
  size_t live[4];
  size_t num_live = 0;
  for (size_t r = 0; r < rows; ++r) {
    if (taps[r] < 2.0) continue;  // the scalar kernel's short-row skip
    live[num_live++] = r;
    if (num_live == 4) {
      l4_grad_rows<4>(w, cols, live, counts, mean, taps, grad);
      num_live = 0;
    }
  }
  switch (num_live) {
    case 3: return l4_grad_rows<3>(w, cols, live, counts, mean, taps, grad);
    case 2: return l4_grad_rows<2>(w, cols, live, counts, mean, taps, grad);
    case 1: return l4_grad_rows<1>(w, cols, live, counts, mean, taps, grad);
    default: return;
  }
}

void adam_step(const AdamStepParams& p, size_t count, const float* grad, float* m, float* v,
               float* value) {
  const __m256d clip = _mm256_set1_pd(p.clip_scale);
  const __m256d b1 = _mm256_set1_pd(p.beta1);
  const __m256d b2 = _mm256_set1_pd(p.beta2);
  const __m256d one_b1 = _mm256_set1_pd(1.0 - p.beta1);
  const __m256d one_b2 = _mm256_set1_pd(1.0 - p.beta2);
  const __m256d bc1 = _mm256_set1_pd(p.bc1);
  const __m256d bc2 = _mm256_set1_pd(p.bc2);
  const __m256d lr = _mm256_set1_pd(p.lr);
  const __m256d eps = _mm256_set1_pd(p.eps);
  const __m256d lr_wd = _mm256_set1_pd(p.lr * p.weight_decay);
  const bool decay = p.weight_decay > 0.0;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d g = _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(grad + i)), clip);
    const __m128 m_new = _mm256_cvtpd_ps(_mm256_add_pd(
        _mm256_mul_pd(b1, _mm256_cvtps_pd(_mm_loadu_ps(m + i))), _mm256_mul_pd(one_b1, g)));
    const __m128 v_new = _mm256_cvtpd_ps(
        _mm256_add_pd(_mm256_mul_pd(b2, _mm256_cvtps_pd(_mm_loadu_ps(v + i))),
                      _mm256_mul_pd(_mm256_mul_pd(one_b2, g), g)));
    _mm_storeu_ps(m + i, m_new);
    _mm_storeu_ps(v + i, v_new);
    const __m256d m_hat = _mm256_div_pd(_mm256_cvtps_pd(m_new), bc1);
    const __m256d v_hat = _mm256_div_pd(_mm256_cvtps_pd(v_new), bc2);
    __m256d update =
        _mm256_div_pd(_mm256_mul_pd(lr, m_hat), _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps));
    const __m256d val = _mm256_cvtps_pd(_mm_loadu_ps(value + i));
    if (decay) update = _mm256_add_pd(update, _mm256_mul_pd(lr_wd, val));
    _mm_storeu_ps(value + i, _mm256_cvtpd_ps(_mm256_sub_pd(val, update)));
  }
  for (; i < count; ++i) {
    const double g = grad[i] * p.clip_scale;
    m[i] = static_cast<float>(p.beta1 * m[i] + (1.0 - p.beta1) * g);
    v[i] = static_cast<float>(p.beta2 * v[i] + (1.0 - p.beta2) * g * g);
    const double m_hat = m[i] / p.bc1;
    const double v_hat = v[i] / p.bc2;
    double update = p.lr * m_hat / (__builtin_sqrt(v_hat) + p.eps);
    if (decay) update += p.lr * p.weight_decay * value[i];
    value[i] = static_cast<float>(value[i] - update);
  }
}

}  // namespace

const LaneKernels kAvx2LaneKernels = {
    matvec_lanes, matvec_gather_lanes, conv_lanes_dense, conv_lanes_scatter,
    pool_lanes,   column_adds,        conv_tap_adds,       lif_frame,
    lif_frame_traced,
    conv_frame_dense, conv_frame_scatter, conv_backward_input, matvec_transpose,
    gumbel_logits, gumbel_binarize, lif_backward_frame, l4_row_stats,
    l4_row_grad,   adam_step,
};

}  // namespace snntest::tensor::simd
