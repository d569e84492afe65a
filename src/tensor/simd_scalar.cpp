// Portable reference lane kernels — the bit-exactness contract every SIMD
// backend is tested against. The matvec bodies are the PR-5 lane kernels
// (formerly in ops.cpp), the conv/pool bodies the lane-network frame
// kernels (formerly file-local in snn/lane_network.cpp), moved here so every
// backend of one kernel lives behind the same dispatch table. They visit one
// row at a time: the plainest statement of each lane's term order.
//
// This translation unit (like all simd_*.cpp) is compiled with
// -ffp-contract=off so no host contracts `w * x + acc` into an FMA that the
// explicit mul-then-add SIMD backends cannot reproduce.
#include <algorithm>
#include <cmath>

#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "tensor/simd_tables.hpp"

namespace snntest::tensor::simd {
namespace {

// Compile-time lane count so the per-column lane loop fully unrolls into
// LANES independent accumulator registers. The double accumulation per
// (row, lane) visits columns in the same ascending order as the scalar
// kernels, so each lane's result is bit-identical to a scalar run.
template <size_t LANES>
void matvec_lanes_fixed(const float* a, size_t rows, size_t cols, const float* x_lanes,
                        float* y_lanes) {
  for (size_t r = 0; r < rows; ++r) {
    const float* row = a + r * cols;
    double acc[LANES] = {};
    for (size_t c = 0; c < cols; ++c) {
      const double w = row[c];
      const float* xv = x_lanes + c * LANES;
      for (size_t l = 0; l < LANES; ++l) acc[l] += w * xv[l];
    }
    float* yr = y_lanes + r * LANES;
    for (size_t l = 0; l < LANES; ++l) yr[l] += static_cast<float>(acc[l]);
  }
}

template <size_t LANES>
void matvec_gather_lanes_fixed(const float* a, size_t rows, size_t cols, const float* x_lanes,
                               const uint32_t* active, size_t num_active, float* y_lanes) {
  for (size_t r = 0; r < rows; ++r) {
    const float* row = a + r * cols;
    double acc[LANES] = {};
    for (size_t i = 0; i < num_active; ++i) {
      const uint32_t c = active[i];
      const double w = row[c];
      const float* xv = x_lanes + static_cast<size_t>(c) * LANES;
      for (size_t l = 0; l < LANES; ++l) acc[l] += w * xv[l];
    }
    float* yr = y_lanes + r * LANES;
    for (size_t l = 0; l < LANES; ++l) yr[l] += static_cast<float>(acc[l]);
  }
}

void matvec_lanes_generic(const float* a, size_t rows, size_t cols, const float* x_lanes,
                          size_t lanes, float* y_lanes) {
  for (size_t r = 0; r < rows; ++r) {
    const float* row = a + r * cols;
    double acc[kMaxLanes] = {};
    for (size_t c = 0; c < cols; ++c) {
      const double w = row[c];
      const float* xv = x_lanes + c * lanes;
      for (size_t l = 0; l < lanes; ++l) acc[l] += w * xv[l];
    }
    float* yr = y_lanes + r * lanes;
    for (size_t l = 0; l < lanes; ++l) yr[l] += static_cast<float>(acc[l]);
  }
}

void matvec_gather_lanes_generic(const float* a, size_t rows, size_t cols, const float* x_lanes,
                                 size_t lanes, const uint32_t* active, size_t num_active,
                                 float* y_lanes) {
  for (size_t r = 0; r < rows; ++r) {
    const float* row = a + r * cols;
    double acc[kMaxLanes] = {};
    for (size_t i = 0; i < num_active; ++i) {
      const uint32_t c = active[i];
      const double w = row[c];
      const float* xv = x_lanes + static_cast<size_t>(c) * lanes;
      for (size_t l = 0; l < lanes; ++l) acc[l] += w * xv[l];
    }
    float* yr = y_lanes + r * lanes;
    for (size_t l = 0; l < lanes; ++l) yr[l] += static_cast<float>(acc[l]);
  }
}

void matvec_lanes(const float* a, size_t rows, size_t cols, const float* x_lanes, size_t lanes,
                  float* y_lanes) {
  switch (lanes) {
    case 1: return matvec_lanes_fixed<1>(a, rows, cols, x_lanes, y_lanes);
    case 2: return matvec_lanes_fixed<2>(a, rows, cols, x_lanes, y_lanes);
    case 3: return matvec_lanes_fixed<3>(a, rows, cols, x_lanes, y_lanes);
    case 4: return matvec_lanes_fixed<4>(a, rows, cols, x_lanes, y_lanes);
    case 8: return matvec_lanes_fixed<8>(a, rows, cols, x_lanes, y_lanes);
    case 16: return matvec_lanes_fixed<16>(a, rows, cols, x_lanes, y_lanes);
    default: return matvec_lanes_generic(a, rows, cols, x_lanes, lanes, y_lanes);
  }
}

void matvec_gather_lanes(const float* a, size_t rows, size_t cols, const float* x_lanes,
                         size_t lanes, const uint32_t* active, size_t num_active,
                         float* y_lanes) {
  switch (lanes) {
    case 1: return matvec_gather_lanes_fixed<1>(a, rows, cols, x_lanes, active, num_active, y_lanes);
    case 2: return matvec_gather_lanes_fixed<2>(a, rows, cols, x_lanes, active, num_active, y_lanes);
    case 3: return matvec_gather_lanes_fixed<3>(a, rows, cols, x_lanes, active, num_active, y_lanes);
    case 4: return matvec_gather_lanes_fixed<4>(a, rows, cols, x_lanes, active, num_active, y_lanes);
    case 8: return matvec_gather_lanes_fixed<8>(a, rows, cols, x_lanes, active, num_active, y_lanes);
    case 16: return matvec_gather_lanes_fixed<16>(a, rows, cols, x_lanes, active, num_active, y_lanes);
    default:
      return matvec_gather_lanes_generic(a, rows, cols, x_lanes, lanes, active, num_active,
                                         y_lanes);
  }
}

/// Lane-strided dense conv: conv_forward_frame with per-lane double
/// accumulators fed in the identical (ic, ky, kx) term order.
void conv_lanes_dense(const ConvLaneGeom& g, const float* weights, const float* in_lanes,
                      size_t lanes, float* syn_lanes) {
  const size_t oh = g.out_height;
  const size_t ow = g.out_width;
  const size_t k = g.kernel;
  const size_t plane = g.in_height * g.in_width;
  for (size_t oc = 0; oc < g.out_channels; ++oc) {
    for (size_t oy = 0; oy < oh; ++oy) {
      for (size_t ox = 0; ox < ow; ++ox) {
        double acc[kMaxLanes] = {};
        for (size_t ic = 0; ic < g.in_channels; ++ic) {
          const float* w_base = weights + ((oc * g.in_channels + ic) * k) * k;
          const float* in_base = in_lanes + ic * plane * lanes;
          for (size_t ky = 0; ky < k; ++ky) {
            const long iy = static_cast<long>(oy * g.stride + ky) - static_cast<long>(g.padding);
            if (iy < 0 || iy >= static_cast<long>(g.in_height)) continue;
            for (size_t kx = 0; kx < k; ++kx) {
              const long ix = static_cast<long>(ox * g.stride + kx) - static_cast<long>(g.padding);
              if (ix < 0 || ix >= static_cast<long>(g.in_width)) continue;
              const double w = w_base[ky * k + kx];
              const float* xv =
                  in_base + (iy * static_cast<long>(g.in_width) + ix) * static_cast<long>(lanes);
              for (size_t l = 0; l < lanes; ++l) acc[l] += w * xv[l];
            }
          }
        }
        float* out = syn_lanes + ((oc * oh + oy) * ow + ox) * lanes;
        for (size_t l = 0; l < lanes; ++l) out[l] = static_cast<float>(acc[l]);
      }
    }
  }
}

/// Lane-strided conv scatter over the union-active input pixels. Per lane
/// this is the conv scatter (conv_frame_scatter) on a superset active list:
/// pixels where the lane is silent contribute exact +/-0.0 terms, so each
/// lane matches the scalar sparse (hence dense) kernel bit for bit.
void conv_lanes_scatter(const ConvLaneGeom& g, const float* weights, const float* in_lanes,
                        size_t lanes, const uint32_t* active, size_t num_active, double* acc,
                        float* syn_lanes) {
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
    const float* vals = in_lanes + flat * lanes;
    for (size_t oc = 0; oc < g.out_channels; ++oc) {
      const float* w_base = weights + ((oc * g.in_channels + ic) * k) * k;
      double* acc_base = acc + oc * oh * ow * lanes;
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
          double* a = acc_base + (oy * static_cast<long>(ow) + ox) * static_cast<long>(lanes);
          for (size_t l = 0; l < lanes; ++l) a[l] += w * vals[l];
        }
      }
    }
  }
  for (size_t o = 0; o < out_size; ++o) {
    for (size_t l = 0; l < lanes; ++l) {
      syn_lanes[o * lanes + l] = static_cast<float>(acc[o * lanes + l]);
    }
  }
}

/// Lane-strided sum pool: float window sums in the scalar (wy, wx) order.
void pool_lanes(size_t channels, size_t in_height, size_t in_width, size_t window,
                const float* in_lanes, size_t lanes, float* syn_lanes) {
  const size_t oh = in_height / window;
  const size_t ow = in_width / window;
  for (size_t c = 0; c < channels; ++c) {
    const float* in_base = in_lanes + c * in_height * in_width * lanes;
    for (size_t oy = 0; oy < oh; ++oy) {
      for (size_t ox = 0; ox < ow; ++ox) {
        float acc[kMaxLanes] = {};
        for (size_t wy = 0; wy < window; ++wy) {
          const size_t iy = oy * window + wy;
          for (size_t wx = 0; wx < window; ++wx) {
            const float* p = in_base + (iy * in_width + ox * window + wx) * lanes;
            for (size_t l = 0; l < lanes; ++l) acc[l] += p[l];
          }
        }
        float* out = syn_lanes + ((c * oh + oy) * ow + ox) * lanes;
        for (size_t l = 0; l < lanes; ++l) out[l] = acc[l];
      }
    }
  }
}

/// Column adds one column at a time: every row takes the plus columns in
/// list order, then the minus columns.
void column_adds(const float* wt, size_t rows, const uint32_t* plus, size_t num_plus,
                 const uint32_t* minus, size_t num_minus, double* acc) {
  for (size_t i = 0; i < num_plus; ++i) {
    const float* col = wt + static_cast<size_t>(plus[i]) * rows;
    for (size_t r = 0; r < rows; ++r) acc[r] += static_cast<double>(col[r]);
  }
  for (size_t i = 0; i < num_minus; ++i) {
    const float* col = wt + static_cast<size_t>(minus[i]) * rows;
    for (size_t r = 0; r < rows; ++r) acc[r] -= static_cast<double>(col[r]);
  }
}

/// One LIF update of a whole frame: per element the float expressions of
/// snn::lif_step_neuron, verbatim (mode 1 dead, 2 saturated, both without
/// touching the state). kTraced also writes the element's LifFrameTrace.
template <bool kTraced>
void lif_frame_impl(const LifFrameParams& p, size_t count, const float* syn, float* u,
                    int* refrac, float* out, const LifFrameTrace& trace) {
  for (size_t i = 0; i < count; ++i) {
    float spike = 0.0f;
    float u_pre = u[i];
    bool integrated = false;
    switch (p.mode[i]) {
      case 0:
        if (refrac[i] > 0) {
          --refrac[i];
          u[i] = p.reset_v;
        } else {
          integrated = true;
          u_pre = p.leak[i] * u[i] + syn[i];
          if (u_pre >= p.threshold[i]) {
            spike = 1.0f;
            u[i] = p.reset_v;
            refrac[i] = p.refractory[i];
          } else {
            u[i] = u_pre;
          }
        }
        break;
      case 2:
        spike = 1.0f;
        break;
      default:
        break;
    }
    out[i] = spike;
    if constexpr (kTraced) {
      trace.u_pre[i] = u_pre;
      trace.spiked[i] = spike != 0.0f ? 1 : 0;
      trace.integrated[i] = integrated ? 1 : 0;
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

/// Dense conv frame output pixel by output pixel: the inner loop runs over
/// the out_channels independent accumulators in `acc`; each one receives
/// its terms in (ic, ky, kx) order.
void conv_frame_dense(const ConvLaneGeom& g, const double* packed, const float* in, double* acc,
                      float* syn) {
  const size_t oh = g.out_height;
  const size_t ow = g.out_width;
  const size_t k = g.kernel;
  const size_t noc = g.out_channels;
  const size_t plane = g.in_height * g.in_width;
  const long width = static_cast<long>(g.in_width);
  for (size_t oy = 0; oy < oh; ++oy) {
    const long y0 = static_cast<long>(oy * g.stride) - static_cast<long>(g.padding);
    const TapRange ys = live_taps(y0, k, g.in_height);
    for (size_t ox = 0; ox < ow; ++ox) {
      const long x0 = static_cast<long>(ox * g.stride) - static_cast<long>(g.padding);
      const TapRange xs = live_taps(x0, k, g.in_width);
      std::fill(acc, acc + noc, 0.0);
      for (size_t ic = 0; ic < g.in_channels; ++ic) {
        const float* in_base = in + ic * plane;
        for (size_t ky = ys.lo; ky < ys.hi; ++ky) {
          const long row = (y0 + static_cast<long>(ky)) * width + x0;
          const double* w_row = packed + ((ic * k + ky) * k) * noc;
          for (size_t kx = xs.lo; kx < xs.hi; ++kx) {
            const double v = in_base[row + static_cast<long>(kx)];
            const double* w = w_row + kx * noc;
            for (size_t oc = 0; oc < noc; ++oc) acc[oc] += w[oc] * v;
          }
        }
      }
      for (size_t oc = 0; oc < noc; ++oc) {
        syn[(oc * oh + oy) * ow + ox] = static_cast<float>(acc[oc]);
      }
    }
  }
}

/// Event-driven conv frame: pixels ascend in flat (ic, iy, ix) order, so
/// every output still sees its terms in (ic, ky, kx) order.
void conv_frame_scatter(const ConvLaneGeom& g, const double* packed, const float* in,
                        const uint32_t* active, size_t num_active, double* acc, float* syn) {
  const size_t oh = g.out_height;
  const size_t ow = g.out_width;
  const size_t k = g.kernel;
  const size_t noc = g.out_channels;
  const size_t positions = oh * ow;
  const size_t plane = g.in_height * g.in_width;
  std::fill(acc, acc + positions * noc, 0.0);
  for (size_t i = 0; i < num_active; ++i) {
    const size_t flat = active[i];
    const size_t ic = flat / plane;
    const size_t rem = flat % plane;
    const double val = in[flat];
    const ScatterTaps taps(g, rem / g.in_width, rem % g.in_width);
    for (size_t ky = taps.ky0, oy = taps.oy0; ky <= taps.ky_end; ky += g.stride, --oy) {
      if (oy >= oh) continue;
      for (size_t kx = taps.kx0, ox = taps.ox0; kx <= taps.kx_end; kx += g.stride, --ox) {
        if (ox >= ow) continue;
        double* a = acc + (oy * ow + ox) * noc;
        const double* w = packed + ((ic * k + ky) * k + kx) * noc;
        for (size_t oc = 0; oc < noc; ++oc) a[oc] += w[oc] * val;
      }
    }
  }
  for (size_t p = 0; p < positions; ++p) {
    for (size_t oc = 0; oc < noc; ++oc) {
      syn[oc * positions + p] = static_cast<float>(acc[p * noc + oc]);
    }
  }
}

/// Conv input gradient one output at a time: the live taps of one kernel
/// row touch adjacent pixels, so in the channel-last layout their (kx, ic)
/// elements form one contiguous run, as do the packed weights that feed
/// them.
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
        for (size_t ky = ys.lo; ky < ys.hi; ++ky) {
          const long first = (y0 + static_cast<long>(ky)) * width + x0 + static_cast<long>(xs.lo);
          float* dst = gin + static_cast<size_t>(first) * nic;
          const float* w = packed_backward + ((oc * k + ky) * k + xs.lo) * nic;
          for (size_t j = 0; j < run; ++j) dst[j] += gv * w[j];
        }
      }
    }
  }
}

/// Transpose matvec one row at a time: each y[c] takes the live rows'
/// float products in ascending row order.
void matvec_transpose(const float* a, size_t rows, size_t cols, const float* x, float* y) {
  for (size_t r = 0; r < rows; ++r) {
    const float xr = x[r];
    if (xr == 0.0f) continue;  // spike frames are sparse; skip silent rows
    const float* row = a + r * cols;
    for (size_t c = 0; c < cols; ++c) y[c] += row[c] * xr;
  }
}

/// Gumbel-sigmoid logits element by element: the logit and temperature
/// expressions of GumbelSoftmaxInput::forward.
void gumbel_logits(const float* real, const double* g1, const double* g2, size_t count,
                   double tau, double* x) {
  for (size_t i = 0; i < count; ++i) {
    double logit = real[i];
    if (g1 != nullptr) logit += g1[i] - g2[i];
    x[i] = -logit / tau;
  }
}

void gumbel_binarize(const double* e, size_t count, float* soft, float* binary) {
  for (size_t i = 0; i < count; ++i) {
    const double s = 1.0 / (1.0 + e[i]);
    soft[i] = static_cast<float>(s);
    binary[i] = s > 0.5 ? 1.0f : 0.0f;
  }
}

/// The surrogate pseudo-derivatives of snn::surrogate_derivative, one
/// function per kind so the frame loop below carries no switch.
struct FastSigmoid {
  float alpha;
  float operator()(float x) const {
    const float d = alpha * std::fabs(x) + 1.0f;
    return 1.0f / (d * d);
  }
};
struct Atan {
  float slope;  // 0.5f * pi * alpha
  float scale;  // 0.5f * alpha
  float operator()(float x) const {
    const float z = slope * x;
    return scale / (1.0f + z * z);
  }
};
struct Rectangular {
  float half_width;  // 1.0f / alpha
  float height;      // 0.5f * alpha
  float operator()(float x) const { return std::fabs(x) < half_width ? height : 0.0f; }
};

/// One BPTT frame of LifBank::Backward::step, neuron by neuron.
template <typename Surrogate>
void lif_backward_impl(const LifBackwardParams& p, Surrogate surrogate, size_t count,
                       const float* grad_spike, float* carry, float* grad_syn) {
  for (size_t i = 0; i < count; ++i) {
    if (!p.integrated[i]) {
      // Refractory / faulted step: no integration, the chain is cut.
      grad_syn[i] = 0.0f;
      carry[i] = 0.0f;
      continue;
    }
    const float surr = surrogate(p.u_pre[i] - p.threshold[i]);
    const float spiked = p.spiked[i] ? 1.0f : 0.0f;
    const float g_u_pre = grad_spike[i] * surr + carry[i] * (1.0f - spiked);
    grad_syn[i] = g_u_pre;
    carry[i] = p.leak[i] * g_u_pre;
  }
}

void lif_backward_frame(const LifBackwardParams& p, size_t count, const float* grad_spike,
                        float* carry, float* grad_syn) {
  switch (p.surrogate) {
    case 1:
      return lif_backward_impl(p, Atan{kHalfPi * p.alpha, 0.5f * p.alpha}, count, grad_spike,
                               carry, grad_syn);
    case 2:
      return lif_backward_impl(p, Rectangular{1.0f / p.alpha, 0.5f * p.alpha}, count,
                               grad_spike, carry, grad_syn);
    default:
      return lif_backward_impl(p, FastSigmoid{p.alpha}, count, grad_spike, carry, grad_syn);
  }
}

/// L4 statistics one row at a time, columns ascending.
void l4_row_stats(const float* w, size_t rows, size_t cols, const double* counts, double* mean,
                  double* var, double* taps) {
  for (size_t i = 0; i < rows; ++i) {
    const float* row = w + i * cols;
    double sum = 0.0, sum_sq = 0.0, k = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      if (row[j] == 0.0f) continue;
      const double c = static_cast<double>(row[j]) * counts[j];
      sum += c;
      sum_sq += c * c;
      k += 1.0;
    }
    mean[i] = sum / k;
    var[i] = sum_sq / k - mean[i] * mean[i];
    taps[i] = k;
  }
}

/// L4 gradient one row at a time, rows ascending.
void l4_row_grad(const float* w, size_t rows, size_t cols, const double* counts,
                 const double* mean, const double* taps, double* grad) {
  for (size_t i = 0; i < rows; ++i) {
    if (taps[i] < 2.0) continue;
    const float* row = w + i * cols;
    const double inv_k = 1.0 / taps[i];
    for (size_t j = 0; j < cols; ++j) {
      if (row[j] == 0.0f) continue;
      const double c = static_cast<double>(row[j]) * counts[j];
      grad[j] += 2.0 * (c - mean[i]) * inv_k * static_cast<double>(row[j]);
    }
  }
}

void adam_step(const AdamStepParams& p, size_t count, const float* grad, float* m, float* v,
               float* value) {
  for (size_t i = 0; i < count; ++i) {
    const double g = grad[i] * p.clip_scale;
    m[i] = static_cast<float>(p.beta1 * m[i] + (1.0 - p.beta1) * g);
    v[i] = static_cast<float>(p.beta2 * v[i] + (1.0 - p.beta2) * g * g);
    const double m_hat = m[i] / p.bc1;
    const double v_hat = v[i] / p.bc2;
    double update = p.lr * m_hat / (std::sqrt(v_hat) + p.eps);
    if (p.weight_decay > 0.0) update += p.lr * p.weight_decay * value[i];
    value[i] = static_cast<float>(value[i] - update);
  }
}

}  // namespace

const LaneKernels kScalarLaneKernels = {
    matvec_lanes, matvec_gather_lanes, conv_lanes_dense, conv_lanes_scatter,
    pool_lanes,   column_adds,        lif_frame,           lif_frame_traced,
    conv_frame_dense, conv_frame_scatter, conv_backward_input, matvec_transpose,
    gumbel_logits, gumbel_binarize, lif_backward_frame, l4_row_stats,
    l4_row_grad,   adam_step,
};

}  // namespace snntest::tensor::simd
