// Free-function numeric kernels on raw float spans.
//
// The hot loops of the SNN engine (synaptic integration, BPTT accumulation)
// operate on per-timestep frames; these helpers keep those loops in one
// audited place. All functions are bounds-unchecked in release builds —
// callers pass sizes that come from validated Shape objects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace snntest::tensor {

/// y += A x, with A stored row-major [rows, cols]: y[r] += sum_c A[r,c]*x[c].
void matvec_accumulate(const float* a, size_t rows, size_t cols, const float* x, float* y);

/// sums[r] = the double sum matvec_accumulate rounds to float for row r:
/// sum_c A[r,c]*x[c], accumulated in ascending column order from +0.0.
/// The golden cache keeps these sums so the lane route can add a lane's
/// spike differences to them (DESIGN.md §12).
void matvec_sums(const float* a, size_t rows, size_t cols, const float* x, double* sums);

/// One spike frame plus the ascending indices of its nonzero entries.
/// Spike frames are binary almost everywhere in this codebase, so a frame at
/// low activity is described completely by a short index list; the sparse
/// kernels below consume exactly this view.
struct SpikeFrameView {
  const float* frame = nullptr;
  size_t size = 0;
  const uint32_t* active = nullptr;  // ascending indices of nonzero entries
  size_t num_active = 0;

  double density() const {
    return size == 0 ? 0.0 : static_cast<double>(num_active) / static_cast<double>(size);
  }
};

/// Collect the ascending indices of nonzero entries of `frame` into
/// `scratch` (overwritten) and return the count. Exact zeros (either sign)
/// are inactive; any other value (NaN included) is active, so the
/// extraction is valid for relaxed (non-binary) frames too. Runs without a
/// per-element branch (the bit-pattern test of extract_active_union).
size_t extract_active(const float* frame, size_t n, std::vector<uint32_t>& scratch);

/// extract_active + view assembly in one call; `scratch` owns the indices.
SpikeFrameView make_frame_view(const float* frame, size_t n, std::vector<uint32_t>& scratch);

/// True when every active entry of the view is exactly 1.0f: a binary
/// spike frame, whose products w * x are exactly double(w).
bool is_binary_frame(const SpikeFrameView& view);

/// y += A x for a binary frame x, from the column-major copy `a_t`
/// [cols, rows] of A (see transpose): per row the double sum of the active
/// columns' weights in ascending column order from +0.0, cast to float
/// once and added to y[r]. `acc` is [rows] scratch. Runs the SIMD table's
/// column_adds across rows. Bit-identical to matvec_accumulate_gather on
/// the same frame (hence to matvec_accumulate): double(w) * 1.0 ==
/// double(w), and each row takes the same terms in the same order.
void matvec_binary_accumulate(const float* a_t, size_t rows, const SpikeFrameView& view,
                              double* acc, float* y);

/// Column-major copy a_t [cols, rows] of the row-major [rows, cols] A.
void transpose(const float* a, size_t rows, size_t cols, std::vector<float>& a_t);

/// Sparse y += A x over the active entries of x only:
/// y[r] += sum_{c in active} A[r,c]*x[c].
///
/// Bit-identical to matvec_accumulate when `active` lists exactly the
/// nonzero entries of x in ascending order: both kernels accumulate the
/// same ordered sequence of double products per row, and the terms the
/// sparse kernel skips are exact +/-0.0 contributions, which never change a
/// double accumulator that starts at +0.0.
void matvec_accumulate_gather(const float* a, size_t rows, size_t cols, const float* x,
                              const uint32_t* active, size_t num_active, float* y);

/// matvec_sums over the active entries of x only (the double sums
/// matvec_accumulate_gather rounds); equal to matvec_sums under the same
/// condition as the float kernels.
void matvec_gather_sums(const float* a, size_t rows, size_t cols, const float* x,
                        const uint32_t* active, size_t num_active, double* sums);

/// Sparse rank-1 update over the active entries of v only:
/// A[r,c] += alpha * u[r] * v[c] for c in active.
///
/// Bit-identical to outer_accumulate when `active` lists exactly the
/// nonzero entries of v in ascending order: each accumulator A[r,c]
/// receives the identical float term (or none), and the skipped terms are
/// exact +/-0.0 additions. A +/-0.0 add can only change an accumulator
/// that currently holds -0.0, and a gradient accumulator zeroed to +0.0
/// can never reach -0.0 through float additions (x + y == -0.0 requires
/// x == y == -0.0), so skipping is exact. Used by the sparse backward
/// paths for dL/dW += grad_syn (x) saved_input.
void outer_accumulate_gather(float* a, size_t rows, size_t cols, const float* u, const float* v,
                             const uint32_t* active, size_t num_active, float alpha);

// --- lane-strided kernels (parallel fault simulation, DESIGN.md §12) ----
//
// A lane frame packs W independent simulations of the same layer into one
// buffer, strided lane-minor: element (c, lane) lives at x[c*lanes + lane].
// One traversal of the weight matrix then feeds W accumulator columns, so
// the weights are streamed from memory once per frame instead of once per
// fault, and the per-lane double accumulators break the serial dependency
// chain of the scalar kernel (W independent chains per row).

/// Hard upper bound on the lane count of the lane kernels (fixed-size
/// accumulator arrays; EngineConfig::lane_width is clamped to this).
inline constexpr size_t kMaxLanes = 16;

/// Lane-strided y += A x: y[r*lanes+l] += sum_c A[r,c] * x[c*lanes+l].
/// Each lane accumulates the identical ordered double sum the scalar
/// matvec_accumulate computes, so every lane is bit-identical to a scalar
/// run on that lane's frame. `lanes` must be in [1, kMaxLanes].
void matvec_accumulate_lanes(const float* a, size_t rows, size_t cols, const float* x_lanes,
                             size_t lanes, float* y_lanes);

/// Lane-strided sparse matvec over `active` columns (ascending). Bit-
/// identical to matvec_accumulate_lanes when `active` covers every column
/// that is nonzero in at least one lane: a skipped column is zero in every
/// lane, so the skipped terms are exact +/-0.0 contributions per lane (the
/// same argument as matvec_accumulate_gather).
void matvec_accumulate_gather_lanes(const float* a, size_t rows, size_t cols,
                                    const float* x_lanes, size_t lanes, const uint32_t* active,
                                    size_t num_active, float* y_lanes);

/// Ascending indices c where lane frame `x_lanes` is nonzero in ANY lane —
/// the union active set driving the lane gather kernel above. Same zero
/// test as extract_active (either sign of zero is inactive, NaN is active),
/// run without a per-column branch.
size_t extract_active_union(const float* x_lanes, size_t n, size_t lanes,
                            std::vector<uint32_t>& scratch);

/// y += A^T x: y[c] += A[r,c]*x[r] for r ascending, each term a float
/// product added in float; rows with x[r] == 0 are skipped. Runs the SIMD
/// table's matvec_transpose (vectorized across columns, so no y[c] sees
/// its terms in another order).
void matvec_transpose_accumulate(const float* a, size_t rows, size_t cols, const float* x,
                                 float* y);

/// Rank-1 update: A[r,c] += alpha * u[r] * v[c].
void outer_accumulate(float* a, size_t rows, size_t cols, const float* u, const float* v,
                      float alpha);

/// out[i] = a[i] + b[i].
void add(const float* a, const float* b, float* out, size_t n);
/// a[i] += s * b[i].
void axpy(float* a, const float* b, float s, size_t n);
/// a[i] *= s.
void scale(float* a, float s, size_t n);
/// dot product with double accumulation.
double dot(const float* a, const float* b, size_t n);

/// Elementwise clamp into [lo, hi].
void clamp(float* a, size_t n, float lo, float hi);

/// L1 distance between two equal-shape tensors: sum |a - b|.
double l1_distance(const Tensor& a, const Tensor& b);

/// Index of maximum element (first on ties).
size_t argmax(const float* a, size_t n);

}  // namespace snntest::tensor
