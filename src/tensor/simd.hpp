// Runtime-dispatched SIMD backends for the lane-strided kernels and the
// single-sample kernels of test generation.
//
// The lane layout (DESIGN.md §12) is lane-minor — element (c, lane) of a
// lane frame lives at x[c*lanes + lane] — so the W independent per-lane
// accumulators of one row/pixel sit contiguously in memory. Vectorizing
// ACROSS lanes therefore never reorders any lane's own accumulation: a
// 4-wide AVX2 double add performs four independent lane updates in one
// instruction, each lane still seeing exactly the ordered scalar sum the
// portable kernel computes. That is why every backend below is bit-identical
// to the scalar reference kernels (enforced by tests/test_simd.cpp and the
// backend-forced campaign fuzz in tests/test_campaign.cpp):
//
//  * identical per-lane term order — vector width divides across lanes,
//    never across the reduction dimension;
//  * identical roundings — explicit mul-then-add intrinsics (no FMA; the
//    SIMD translation units also compile with -ffp-contract=off, and the
//    scalar reference kernels pin the same flag so no host contracts one
//    side and not the other);
//  * identical branch semantics — the LIF update uses ordered-quiet
//    compares and blends that replicate the scalar if/else per lane.
//
// The same table serves single-sample kernels (one network, no lanes:
// snn::LifBank::step, the dense/recurrent forward on binary frames, the
// conv frames and conv input gradient, the BPTT transpose matvec). They
// vectorize across the independent outputs of one frame (neurons, rows,
// output channels, gradient elements) instead of across lanes, which is
// the same argument: every output's own sequence of operations is
// untouched (DESIGN.md §14).
//
// A backend may also block the work differently — the AVX2 matvecs sweep
// the columns once per block of rows and widen each input column to double
// once for the whole block — as long as every (row, lane) accumulator still
// receives its terms in ascending column order; the blocking only changes
// which independent accumulators share a column sweep.
//
// Backend selection happens once, on first use: AVX2 via cpuid
// (__builtin_cpu_supports) on x86-64, the portable scalar code everywhere
// else. `SNNTEST_SIMD=scalar|avx2|auto` overrides the choice (unavailable or
// unknown values warn once and fall back to the best available backend).
// Tests and benches can also switch programmatically with force_backend().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace snntest::tensor::simd {

enum class Backend : uint8_t {
  kScalar = 0,  // portable reference kernels (always available)
  kAvx2 = 1,    // x86-64 AVX2: 4-wide f64 / 8-wide f32 across lanes
};

/// Stable lower-case name ("scalar", "avx2") for logs and reports.
const char* backend_name(Backend backend);

/// Parse a backend name (as accepted by SNNTEST_SIMD, case-sensitive).
/// Returns false for unknown names; "auto" is NOT a backend (callers map it
/// to best_available_backend()).
bool parse_backend(const std::string& name, Backend& out);

/// Compiled in AND usable on this host (cpuid / baseline-ISA check).
bool backend_available(Backend backend);

/// Backends usable on this host, scalar first.
std::vector<Backend> available_backends();

/// Best usable backend on this host (the startup default when SNNTEST_SIMD
/// is unset or "auto").
Backend best_available_backend();

/// The backend the lane kernels currently dispatch to.
Backend active_backend();

/// Force a specific backend (tests/benches). Returns false — leaving the
/// active backend unchanged — when `backend` is unavailable on this host.
/// Not thread-safe against in-flight kernels; switch between runs only.
bool force_backend(Backend backend);

/// Conv geometry for the conv kernels (lane and single-sample), mirrored
/// from snn::Conv2dSpec as a plain tensor-level POD (the dispatch layer
/// cannot depend on snn).
struct ConvLaneGeom {
  size_t in_channels = 0;
  size_t in_height = 0;
  size_t in_width = 0;
  size_t out_channels = 0;
  size_t out_height = 0;
  size_t out_width = 0;
  size_t kernel = 0;
  size_t stride = 1;
  size_t padding = 0;

  size_t input_size() const { return in_channels * in_height * in_width; }
  size_t output_size() const { return out_channels * out_height * out_width; }
};

/// Per-element LIF parameters of one lane-strided layer frame: element
/// (neuron i, lane l) lives at [i*lanes + l], so a lane's neuron-fault
/// override is just a different value in its own slot. `mode` holds
/// snn::NeuronMode values (0 normal, 1 dead, 2 saturated).
struct LifFrameParams {
  const float* leak = nullptr;
  const float* threshold = nullptr;
  const int* refractory = nullptr;
  const uint8_t* mode = nullptr;
  float reset_v = 0.0f;
};

/// Per-element trace outputs of lif_frame_traced, the BPTT record of
/// snn::LifBank: `u_pre` as snn::LifStepResult::u_pre (the post-integration
/// membrane, or the entering one when nothing was integrated), `spiked` and
/// `integrated` as 0/1 bytes.
struct LifFrameTrace {
  float* u_pre = nullptr;
  uint8_t* spiked = nullptr;
  uint8_t* integrated = nullptr;
};

/// One frame of a LIF bank's BPTT (snn::LifBank::Backward::step): the
/// per-neuron parameters, the frame's forward trace (LifFrameTrace), and the
/// surrogate as snn::SurrogateConfig holds it (`surrogate` is the
/// snn::SurrogateKind value: 0 fast sigmoid, 1 atan, 2 rectangular).
struct LifBackwardParams {
  const float* threshold = nullptr;
  const float* leak = nullptr;
  const float* u_pre = nullptr;
  const uint8_t* spiked = nullptr;
  const uint8_t* integrated = nullptr;
  uint8_t surrogate = 0;
  float alpha = 0.0f;
};

/// The hyper-parameters of one train::AdamOptimizer step over one slot:
/// `bc1`/`bc2` are the bias corrections 1 - beta^t, `clip_scale` the slot's
/// gradient clip factor (1.0 when unclipped).
struct AdamStepParams {
  double lr = 0.0;
  double beta1 = 0.0;
  double beta2 = 0.0;
  double eps = 0.0;
  double weight_decay = 0.0;
  double bc1 = 1.0;
  double bc2 = 1.0;
  double clip_scale = 1.0;
};

/// One backend's kernel table. All pointers are non-null in every
/// registered table; `lanes` is always in [1, kMaxLanes] (callers validate).
struct LaneKernels {
  /// Lane-strided y += A x (see tensor::matvec_accumulate_lanes).
  void (*matvec_lanes)(const float* a, size_t rows, size_t cols, const float* x_lanes,
                       size_t lanes, float* y_lanes);
  /// Lane-strided sparse matvec over ascending `active` columns.
  void (*matvec_gather_lanes)(const float* a, size_t rows, size_t cols, const float* x_lanes,
                              size_t lanes, const uint32_t* active, size_t num_active,
                              float* y_lanes);
  /// Dense lane conv: syn[(pixel)*lanes + l] = ordered double sum per lane.
  void (*conv_lanes_dense)(const ConvLaneGeom& geom, const float* weights, const float* in_lanes,
                           size_t lanes, float* syn_lanes);
  /// Scatter lane conv over the union-active input pixels. `acc` is a
  /// caller-zeroed [output_size * lanes] double buffer; the kernel scatters
  /// into it and then narrows into syn_lanes.
  void (*conv_lanes_scatter)(const ConvLaneGeom& geom, const float* weights,
                             const float* in_lanes, size_t lanes, const uint32_t* active,
                             size_t num_active, double* acc, float* syn_lanes);
  /// Lane sum pool: float window sums in the scalar (wy, wx) order.
  void (*pool_lanes)(size_t channels, size_t in_height, size_t in_width, size_t window,
                     const float* in_lanes, size_t lanes, float* syn_lanes);
  /// Golden-plus-delta column adds (DESIGN.md §12): for every row r <
  /// rows, acc[r] += wt[c*rows + r] for each c in `plus`, in list order,
  /// then acc[r] -= wt[c*rows + r] for each c in `minus`. `wt` is a weight
  /// matrix stored column-major [cols, rows]. Vectorized across rows, so
  /// each row sees the identical term order on every backend; callers only
  /// rely on rows whose sums are certified exact in any order.
  void (*column_adds)(const float* wt, size_t rows, const uint32_t* plus, size_t num_plus,
                      const uint32_t* minus, size_t num_minus, double* acc);
  /// Golden-plus-delta conv taps (DESIGN.md §12): conv_frame_scatter's
  /// pixel walk over weights packed [ic][ky][kx][oc] as double, with every
  /// pixel's value 1.0 — each live tap of each `plus` pixel, in list order,
  /// adds its out_channels weights into the channel-last accumulators
  /// `acc` [positions * out_channels], then each `minus` pixel's subtract.
  /// No zeroing and no narrow. Vectorized across output channels.
  void (*conv_tap_adds)(const ConvLaneGeom& geom, const double* packed, const uint32_t* plus,
                        size_t num_plus, const uint32_t* minus, size_t num_minus, double* acc);
  /// One LIF update of a whole lane-strided frame of `count` elements, per
  /// element exactly snn::lif_step_neuron: a normal element runs
  ///   refrac > 0 ? (--refrac, u = reset, spike 0)
  ///              : u_pre = leak*u + syn; u_pre >= threshold ?
  ///                  (spike 1, u = reset, refrac = refractory) : u = u_pre,
  /// a dead element emits 0 and a saturated one 1, both leaving u and
  /// refrac untouched.
  void (*lif_frame)(const LifFrameParams& params, size_t count, const float* syn, float* u,
                    int* refrac, float* out);
  /// lif_frame that also writes each element's trace (LifFrameTrace).
  void (*lif_frame_traced)(const LifFrameParams& params, size_t count, const float* syn,
                           float* u, int* refrac, float* out, const LifFrameTrace& trace);
  /// Single-sample dense conv frame (snn::ConvLayer) over weights packed
  /// [ic][ky][kx][oc] as double: per output an ordered double sum over
  /// (ic, ky, kx), cast once into the channel-major syn frame. `acc` is
  /// [out_channels] scratch. Vectorized across output channels.
  void (*conv_frame_dense)(const ConvLaneGeom& geom, const double* packed, const float* in,
                           double* acc, float* syn);
  /// Event-driven single-sample conv frame over the same packed weights:
  /// the `active` pixels (ascending flat order) scatter their live taps
  /// into channel-last accumulators `acc` [positions * out_channels], which
  /// one transposing narrow writes into syn. Bit-identical to
  /// conv_frame_dense when `active` lists the nonzero pixels (DESIGN.md §9).
  void (*conv_frame_scatter)(const ConvLaneGeom& geom, const double* packed, const float* in,
                             const uint32_t* active, size_t num_active, double* acc,
                             float* syn);
  /// Conv input gradient into the channel-last frame `gin`
  /// [in_height*in_width, in_channels]: for every output (oc, oy, ox) in
  /// that order with g = grad_syn != 0, gin += g * w over each live kernel
  /// row's contiguous (kx, ic) run of `packed_backward` [oc][ky][kx][ic],
  /// float mul then add. Vectorized along the runs.
  void (*conv_backward_input)(const ConvLaneGeom& geom, const float* packed_backward,
                              const float* grad_syn, float* gin);
  /// y += A^T x for a row-major [rows, cols] A: y[c] += A[r,c] * x[r] as a
  /// float mul then add, rows ascending, rows with x[r] == 0 skipped (see
  /// tensor::matvec_transpose_accumulate). Vectorized across columns.
  void (*matvec_transpose)(const float* a, size_t rows, size_t cols, const float* x, float* y);

  // --- the optimizer step of test generation (DESIGN.md §10) ---
  // Element-wise kernels: vectorized across independent elements, each one
  // running the scalar entry's double/float operation sequence (separate
  // IEEE mul, add, div and sqrt, no FMA).

  /// Gumbel-sigmoid logits of core::GumbelSoftmaxInput::forward:
  /// x[i] = -(double(real[i]) + (g1[i] - g2[i])) / tau, or
  /// x[i] = -double(real[i]) / tau when `g1` is null (no noise).
  void (*gumbel_logits)(const float* real, const double* g1, const double* g2, size_t count,
                        double tau, double* x);
  /// Sigmoid and straight-through binarization from e[i] = exp(x[i]):
  /// s = 1 / (1 + e[i]); soft[i] = float(s); binary[i] = s > 0.5 ? 1 : 0.
  void (*gumbel_binarize)(const double* e, size_t count, float* soft, float* binary);
  /// One LifBank BPTT frame per neuron: a non-integrated neuron zeroes
  /// grad_syn and carry; otherwise, with surr the surrogate derivative at
  /// u_pre - threshold (snn::surrogate_derivative's float expressions),
  ///   g = grad_spike * surr + carry * (1 - spiked);
  ///   grad_syn = g; carry = leak * g.
  void (*lif_backward_frame)(const LifBackwardParams& params, size_t count,
                             const float* grad_spike, float* carry, float* grad_syn);
  /// L4 row statistics (core::SynapseUniformityLoss, Eq. 13) of a row-major
  /// [rows, cols] `w`: per row, over its columns with w != 0 in ascending
  /// order, c = double(w) * counts[col] feeds sum and sum_sq and taps counts
  /// them; mean[r] = sum / taps, var[r] = sum_sq / taps - mean * mean.
  /// Vectorized across rows.
  void (*l4_row_stats)(const float* w, size_t rows, size_t cols, const double* counts,
                       double* mean, double* var, double* taps);
  /// L4 gradient into the counts: for each row r with taps[r] >= 2,
  /// ascending, and each column with w != 0,
  ///   grad[col] += 2.0 * (c - mean[r]) * (1.0 / taps[r]) * double(w).
  /// Vectorized across columns.
  void (*l4_row_grad)(const float* w, size_t rows, size_t cols, const double* counts,
                      const double* mean, const double* taps, double* grad);
  /// One Adam update of `count` parameters (train::AdamOptimizer::step's
  /// per-element body): g = double(grad) * clip_scale; m and v take their
  /// float-rounded moment updates; value -= lr * m_hat / (sqrt(v_hat) + eps)
  /// plus the decoupled weight decay when weight_decay > 0.
  void (*adam_step)(const AdamStepParams& params, size_t count, const float* grad, float* m,
                    float* v, float* value);
};

/// The active backend's kernel table. Cheap (one relaxed atomic load), but
/// hot loops should still hoist the reference out of per-frame loops.
const LaneKernels& lane_ops();

}  // namespace snntest::tensor::simd
