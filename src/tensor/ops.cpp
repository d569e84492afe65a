#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/simd.hpp"

namespace snntest::tensor {

namespace {

// Every matvec kernel sweeps its columns once per block of 4 rows: the
// block's accumulators are independent, so the adds of one column overlap
// instead of waiting on a single add-latency chain, while every row still
// sums its terms in the order `col_at` yields them (ascending) into its own
// double (DESIGN.md §9). The rows % 4 tail runs one row at a time.
// `store(r, acc)` hands row r's finished double sum to the caller's cast.
template <typename ColAt, typename Store>
inline void matvec_rows(const float* a, size_t rows, size_t cols, ColAt col_at, size_t count,
                        const float* x, Store store) {
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const float* r0 = a + r * cols;
    const float* r1 = r0 + cols;
    const float* r2 = r1 + cols;
    const float* r3 = r2 + cols;
    double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
    for (size_t i = 0; i < count; ++i) {
      const size_t c = col_at(i);
      const double xc = x[c];
      acc0 += static_cast<double>(r0[c]) * xc;
      acc1 += static_cast<double>(r1[c]) * xc;
      acc2 += static_cast<double>(r2[c]) * xc;
      acc3 += static_cast<double>(r3[c]) * xc;
    }
    store(r, acc0);
    store(r + 1, acc1);
    store(r + 2, acc2);
    store(r + 3, acc3);
  }
  for (; r < rows; ++r) {
    const float* row = a + r * cols;
    double acc = 0.0;
    for (size_t i = 0; i < count; ++i) {
      const size_t c = col_at(i);
      acc += static_cast<double>(row[c]) * x[c];
    }
    store(r, acc);
  }
}

/// The nonzero test of the active-set scans without a per-column branch:
/// OR the lanes' bit patterns, drop the sign bit (so -0.0f counts as zero,
/// exactly like `!= 0.0f`; NaN stays active), and write the index
/// unconditionally, advancing the count only for an active column.
template <size_t LANES>
size_t extract_union_fixed(const float* x_lanes, size_t n, size_t lanes, uint32_t* out) {
  const size_t width = LANES == 0 ? lanes : LANES;  // 0: run-time lane count
  size_t count = 0;
  for (size_t c = 0; c < n; ++c) {
    const float* p = x_lanes + c * width;
    uint32_t bits = 0;
    for (size_t l = 0; l < width; ++l) {
      uint32_t b;
      std::memcpy(&b, p + l, sizeof(b));
      bits |= b;
    }
    out[count] = static_cast<uint32_t>(c);
    count += (bits & 0x7fffffffu) != 0 ? 1 : 0;
  }
  return count;
}

}  // namespace

void matvec_accumulate(const float* a, size_t rows, size_t cols, const float* x, float* y) {
  matvec_rows(a, rows, cols, [](size_t i) { return i; }, cols, x,
              [y](size_t r, double acc) { y[r] += static_cast<float>(acc); });
}

void matvec_sums(const float* a, size_t rows, size_t cols, const float* x, double* sums) {
  matvec_rows(a, rows, cols, [](size_t i) { return i; }, cols, x,
              [sums](size_t r, double acc) { sums[r] = acc; });
}

size_t extract_active(const float* frame, size_t n, std::vector<uint32_t>& scratch) {
  scratch.resize(n);
  const size_t count = extract_union_fixed<1>(frame, n, 1, scratch.data());
  scratch.resize(count);
  return count;
}

SpikeFrameView make_frame_view(const float* frame, size_t n, std::vector<uint32_t>& scratch) {
  SpikeFrameView view;
  view.frame = frame;
  view.size = n;
  view.num_active = extract_active(frame, n, scratch);
  view.active = scratch.data();
  return view;
}

bool is_binary_frame(const SpikeFrameView& view) {
  for (size_t i = 0; i < view.num_active; ++i) {
    if (view.frame[view.active[i]] != 1.0f) return false;
  }
  return true;
}

void matvec_binary_accumulate(const float* a_t, size_t rows, const SpikeFrameView& view,
                              double* acc, float* y) {
  std::fill(acc, acc + rows, 0.0);
  simd::lane_ops().column_adds(a_t, rows, view.active, view.num_active, nullptr, 0, acc);
  for (size_t r = 0; r < rows; ++r) y[r] += static_cast<float>(acc[r]);
}

void transpose(const float* a, size_t rows, size_t cols, std::vector<float>& a_t) {
  a_t.resize(rows * cols);
  float* out = a_t.data();
  // Blocks of 8 rows: the block's source rows stream sequentially and each
  // column's 8 entries land as one contiguous run, instead of one strided
  // store per element.
  constexpr size_t kBlock = 8;
  size_t r = 0;
  for (; r + kBlock <= rows; r += kBlock) {
    const float* src = a + r * cols;
    for (size_t c = 0; c < cols; ++c) {
      float* dst = out + c * rows + r;
      for (size_t j = 0; j < kBlock; ++j) dst[j] = src[j * cols + c];
    }
  }
  for (; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) out[c * rows + r] = a[r * cols + c];
  }
}

void matvec_accumulate_gather(const float* a, size_t rows, size_t cols, const float* x,
                              const uint32_t* active, size_t num_active, float* y) {
  matvec_rows(a, rows, cols, [active](size_t i) { return static_cast<size_t>(active[i]); },
              num_active, x, [y](size_t r, double acc) { y[r] += static_cast<float>(acc); });
}

void matvec_gather_sums(const float* a, size_t rows, size_t cols, const float* x,
                        const uint32_t* active, size_t num_active, double* sums) {
  matvec_rows(a, rows, cols, [active](size_t i) { return static_cast<size_t>(active[i]); },
              num_active, x, [sums](size_t r, double acc) { sums[r] = acc; });
}

// The lane-strided kernel bodies live behind the SIMD dispatch layer
// (simd_scalar.cpp / simd_avx2.cpp); the public entry points here keep the
// argument validation and then jump through the active backend's table.
void matvec_accumulate_lanes(const float* a, size_t rows, size_t cols, const float* x_lanes,
                             size_t lanes, float* y_lanes) {
  if (lanes == 0 || lanes > kMaxLanes) {
    throw std::invalid_argument("matvec_accumulate_lanes: bad lane count");
  }
  simd::lane_ops().matvec_lanes(a, rows, cols, x_lanes, lanes, y_lanes);
}

void matvec_accumulate_gather_lanes(const float* a, size_t rows, size_t cols,
                                    const float* x_lanes, size_t lanes, const uint32_t* active,
                                    size_t num_active, float* y_lanes) {
  if (lanes == 0 || lanes > kMaxLanes) {
    throw std::invalid_argument("matvec_accumulate_gather_lanes: bad lane count");
  }
  simd::lane_ops().matvec_gather_lanes(a, rows, cols, x_lanes, lanes, active, num_active,
                                       y_lanes);
}


size_t extract_active_union(const float* x_lanes, size_t n, size_t lanes,
                            std::vector<uint32_t>& scratch) {
  scratch.resize(n);
  uint32_t* out = scratch.data();
  size_t count = 0;
  switch (lanes) {
    case 1: count = extract_union_fixed<1>(x_lanes, n, lanes, out); break;
    case 2: count = extract_union_fixed<2>(x_lanes, n, lanes, out); break;
    case 3: count = extract_union_fixed<3>(x_lanes, n, lanes, out); break;
    case 4: count = extract_union_fixed<4>(x_lanes, n, lanes, out); break;
    case 5: count = extract_union_fixed<5>(x_lanes, n, lanes, out); break;
    case 6: count = extract_union_fixed<6>(x_lanes, n, lanes, out); break;
    case 7: count = extract_union_fixed<7>(x_lanes, n, lanes, out); break;
    case 8: count = extract_union_fixed<8>(x_lanes, n, lanes, out); break;
    default: count = extract_union_fixed<0>(x_lanes, n, lanes, out); break;
  }
  scratch.resize(count);
  return count;
}

void matvec_transpose_accumulate(const float* a, size_t rows, size_t cols, const float* x,
                                 float* y) {
  simd::lane_ops().matvec_transpose(a, rows, cols, x, y);
}

void outer_accumulate(float* a, size_t rows, size_t cols, const float* u, const float* v,
                      float alpha) {
  for (size_t r = 0; r < rows; ++r) {
    const float ur = alpha * u[r];
    if (ur == 0.0f) continue;
    float* row = a + r * cols;
    for (size_t c = 0; c < cols; ++c) row[c] += ur * v[c];
  }
}

void outer_accumulate_gather(float* a, size_t rows, size_t cols, const float* u, const float* v,
                             const uint32_t* active, size_t num_active, float alpha) {
  for (size_t r = 0; r < rows; ++r) {
    const float ur = alpha * u[r];
    if (ur == 0.0f) continue;  // matches the dense kernel's silent-row skip
    float* row = a + r * cols;
    for (size_t i = 0; i < num_active; ++i) {
      const uint32_t c = active[i];
      row[c] += ur * v[c];
    }
  }
}

void add(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void axpy(float* a, const float* b, float s, size_t n) {
  for (size_t i = 0; i < n; ++i) a[i] += s * b[i];
}

void scale(float* a, float s, size_t n) {
  for (size_t i = 0; i < n; ++i) a[i] *= s;
}

double dot(const float* a, const float* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += static_cast<double>(a[i]) * b[i];
  return acc;
}

void clamp(float* a, size_t n, float lo, float hi) {
  for (size_t i = 0; i < n; ++i) a[i] = std::min(hi, std::max(lo, a[i]));
}

double l1_distance(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument("l1_distance: shape mismatch " + a.shape().to_string() + " vs " +
                                b.shape().to_string());
  }
  double acc = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (size_t i = 0; i < a.numel(); ++i) acc += std::fabs(static_cast<double>(pa[i]) - pb[i]);
  return acc;
}

size_t argmax(const float* a, size_t n) {
  if (n == 0) throw std::logic_error("argmax on empty range");
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (a[i] > a[best]) best = i;
  }
  return best;
}

}  // namespace snntest::tensor
