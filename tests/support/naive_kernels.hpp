// Test-support oracle for the single-frame synaptic kernels.
//
// These are the straightforward loops the library's output-parallel kernels
// replaced (tensor/ops.cpp, snn/conv_layer.cpp): one double accumulator per
// output, terms added one after another, bounds checked per kernel tap.
// They share no code with the library kernels, so a memcmp-equal result
// from a library kernel is a meaningful check that its reordered loops kept
// every output's exact term sequence (DESIGN.md §9).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "snn/conv_layer.hpp"

namespace snntest::test_support {

/// y += A x, A row-major [rows, cols]: one ordered double sum per row.
inline void naive_matvec_accumulate(const float* a, size_t rows, size_t cols, const float* x,
                                    float* y) {
  for (size_t r = 0; r < rows; ++r) {
    const float* row = a + r * cols;
    double acc = 0.0;
    for (size_t c = 0; c < cols; ++c) acc += static_cast<double>(row[c]) * x[c];
    y[r] += static_cast<float>(acc);
  }
}

/// y += A x over the listed columns only, in the listed order.
inline void naive_matvec_accumulate_gather(const float* a, size_t rows, size_t cols,
                                           const float* x, const uint32_t* active,
                                           size_t num_active, float* y) {
  for (size_t r = 0; r < rows; ++r) {
    const float* row = a + r * cols;
    double acc = 0.0;
    for (size_t i = 0; i < num_active; ++i) {
      const uint32_t c = active[i];
      acc += static_cast<double>(row[c]) * x[c];
    }
    y[r] += static_cast<float>(acc);
  }
}

/// y += A^T x: float products added into each y[c] in ascending row
/// order, rows with x[r] == 0 skipped.
inline void naive_matvec_transpose_accumulate(const float* a, size_t rows, size_t cols,
                                              const float* x, float* y) {
  for (size_t c = 0; c < cols; ++c) {
    for (size_t r = 0; r < rows; ++r) {
      if (x[r] != 0.0f) y[c] += a[r * cols + c] * x[r];
    }
  }
}

/// Dense conv gather: per output (oc, oy, ox), an ordered double sum over
/// (ic, ky, kx) of weights [oc][ic][ky][kx] times the input frame.
inline void naive_conv_forward_frame(const snn::Conv2dSpec& spec, const float* weights,
                                     const float* in, float* syn) {
  const size_t oh = spec.out_height();
  const size_t ow = spec.out_width();
  const size_t k = spec.kernel;
  for (size_t oc = 0; oc < spec.out_channels; ++oc) {
    for (size_t oy = 0; oy < oh; ++oy) {
      for (size_t ox = 0; ox < ow; ++ox) {
        double acc = 0.0;
        for (size_t ic = 0; ic < spec.in_channels; ++ic) {
          const float* w_base = weights + ((oc * spec.in_channels + ic) * k) * k;
          const float* in_base = in + ic * spec.in_height * spec.in_width;
          for (size_t ky = 0; ky < k; ++ky) {
            const long iy =
                static_cast<long>(oy * spec.stride + ky) - static_cast<long>(spec.padding);
            if (iy < 0 || iy >= static_cast<long>(spec.in_height)) continue;
            for (size_t kx = 0; kx < k; ++kx) {
              const long ix =
                  static_cast<long>(ox * spec.stride + kx) - static_cast<long>(spec.padding);
              if (ix < 0 || ix >= static_cast<long>(spec.in_width)) continue;
              acc += static_cast<double>(w_base[ky * k + kx]) *
                     in_base[iy * static_cast<long>(spec.in_width) + ix];
            }
          }
        }
        syn[(oc * oh + oy) * ow + ox] = static_cast<float>(acc);
      }
    }
  }
}

/// Event-driven conv scatter: each listed input pixel adds its kernel taps
/// into channel-major double accumulators, pixel after pixel.
inline void naive_conv_forward_frame_sparse(const snn::Conv2dSpec& spec, const float* weights,
                                            const float* in, const uint32_t* active,
                                            size_t num_active, float* syn) {
  const size_t oh = spec.out_height();
  const size_t ow = spec.out_width();
  const size_t k = spec.kernel;
  const size_t out_size = spec.output_size();
  const size_t plane = spec.in_height * spec.in_width;
  const long stride = static_cast<long>(spec.stride);
  std::vector<double> syn_acc(out_size, 0.0);
  for (size_t i = 0; i < num_active; ++i) {
    const size_t flat = active[i];
    const size_t ic = flat / plane;
    const size_t rem = flat % plane;
    const size_t iy = rem / spec.in_width;
    const size_t ix = rem % spec.in_width;
    const double val = in[flat];
    for (size_t oc = 0; oc < spec.out_channels; ++oc) {
      const float* w_base = weights + ((oc * spec.in_channels + ic) * k) * k;
      double* acc_base = syn_acc.data() + oc * oh * ow;
      for (size_t ky = 0; ky < k; ++ky) {
        const long num_y = static_cast<long>(iy + spec.padding) - static_cast<long>(ky);
        if (num_y < 0 || num_y % stride != 0) continue;
        const long oy = num_y / stride;
        if (oy >= static_cast<long>(oh)) continue;
        for (size_t kx = 0; kx < k; ++kx) {
          const long num_x = static_cast<long>(ix + spec.padding) - static_cast<long>(kx);
          if (num_x < 0 || num_x % stride != 0) continue;
          const long ox = num_x / stride;
          if (ox >= static_cast<long>(ow)) continue;
          acc_base[oy * static_cast<long>(ow) + ox] +=
              static_cast<double>(w_base[ky * k + kx]) * val;
        }
      }
    }
  }
  for (size_t o = 0; o < out_size; ++o) syn[o] = static_cast<float>(syn_acc[o]);
}

/// Conv input gradient: grad_in += conv^T(grad_syn), float terms added to
/// each grad_in element in (oc, oy, ox) order, zero grad_syn entries skipped.
inline void naive_conv_backward_input_frame(const snn::Conv2dSpec& spec, const float* weights,
                                            const float* grad_syn, float* grad_in) {
  const size_t oh = spec.out_height();
  const size_t ow = spec.out_width();
  const size_t k = spec.kernel;
  for (size_t oc = 0; oc < spec.out_channels; ++oc) {
    for (size_t oy = 0; oy < oh; ++oy) {
      for (size_t ox = 0; ox < ow; ++ox) {
        const float g = grad_syn[(oc * oh + oy) * ow + ox];
        if (g == 0.0f) continue;
        for (size_t ic = 0; ic < spec.in_channels; ++ic) {
          const float* w_base = weights + ((oc * spec.in_channels + ic) * k) * k;
          float* gin_base = grad_in + ic * spec.in_height * spec.in_width;
          for (size_t ky = 0; ky < k; ++ky) {
            const long iy =
                static_cast<long>(oy * spec.stride + ky) - static_cast<long>(spec.padding);
            if (iy < 0 || iy >= static_cast<long>(spec.in_height)) continue;
            for (size_t kx = 0; kx < k; ++kx) {
              const long ix =
                  static_cast<long>(ox * spec.stride + kx) - static_cast<long>(spec.padding);
              if (ix < 0 || ix >= static_cast<long>(spec.in_width)) continue;
              gin_base[iy * static_cast<long>(spec.in_width) + ix] += g * w_base[ky * k + kx];
            }
          }
        }
      }
    }
  }
}

}  // namespace snntest::test_support
