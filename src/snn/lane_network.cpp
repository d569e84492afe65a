#include "snn/lane_network.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "snn/conv_layer.hpp"
#include "snn/dense_layer.hpp"
#include "snn/pool_layer.hpp"
#include "snn/recurrent_layer.hpp"
#include "tensor/simd.hpp"

namespace snntest::snn {

namespace {

/// Ordered double sum of `row` [cols] times the `stride`-strided vector
/// `x`, with `value` in place of row[col] (col == SIZE_MAX: none), cast to
/// float: one row of the scalar matvec with the faulty value substituted in
/// the same sweep, hence the identical float.
float recompute_row(const float* row, size_t cols, size_t col, float value, const float* x,
                    size_t stride) {
  double acc = 0.0;
  for (size_t c = 0; c < cols; ++c) {
    const float w = (c == col) ? value : row[c];
    acc += static_cast<double>(w) * x[c * stride];
  }
  return static_cast<float>(acc);
}

/// Conv output pixel `out`: conv_forward_frame's ordered (ic, ky, kx) double
/// sum for that pixel with the stored weight at flat index `tap` replaced by
/// `value` (tap == SIZE_MAX: none) — the float the layer's forward computes
/// there with the fault written in.
float recompute_conv_pixel(const ConvLayer& conv, size_t tap, float value, const float* in,
                           size_t out) {
  const Conv2dSpec& s = conv.spec();
  const size_t oh = s.out_height();
  const size_t ow = s.out_width();
  const size_t oc = out / (oh * ow);
  const size_t oy = (out / ow) % oh;
  const size_t ox = out % ow;
  const size_t k = s.kernel;
  const float* weights = conv.weights().data();
  double acc = 0.0;
  for (size_t ic = 0; ic < s.in_channels; ++ic) {
    const size_t w_off = ((oc * s.in_channels + ic) * k) * k;
    const float* w_base = weights + w_off;
    const float* in_base = in + ic * s.in_height * s.in_width;
    for (size_t ky = 0; ky < k; ++ky) {
      const long iy = static_cast<long>(oy * s.stride + ky) - static_cast<long>(s.padding);
      if (iy < 0 || iy >= static_cast<long>(s.in_height)) continue;
      for (size_t kx = 0; kx < k; ++kx) {
        const long ix = static_cast<long>(ox * s.stride + kx) - static_cast<long>(s.padding);
        if (ix < 0 || ix >= static_cast<long>(s.in_width)) continue;
        const float w = (w_off + ky * k + kx == tap) ? value : w_base[ky * k + kx];
        acc += static_cast<double>(w) * in_base[iy * static_cast<long>(s.in_width) + ix];
      }
    }
  }
  return static_cast<float>(acc);
}

/// In-place repack of a [rows, lanes]-strided array dropping lanes with
/// keep == 0: the write index never overtakes the read index (kept <= lanes
/// per row), so no slot is read after being overwritten.
template <typename T>
void compact_lanes(std::vector<T>& v, size_t rows, size_t lanes, const uint8_t* keep,
                   size_t kept) {
  size_t w = 0;
  for (size_t r = 0; r < rows; ++r) {
    const size_t base = r * lanes;
    for (size_t l = 0; l < lanes; ++l) {
      if (keep[l]) v[w++] = v[base + l];
    }
  }
  v.resize(rows * kept);
}

/// Lane-strided conv gather: conv_forward_frame with per-lane double
/// accumulators fed in the identical term order (dispatched backend).
void conv_frame_lanes_dense(const ConvLayer& conv, const float* in_lanes, size_t lanes,
                            float* syn_lanes) {
  tensor::simd::lane_ops().conv_lanes_dense(conv.spec().geom(), conv.weights().data(),
                                            in_lanes, lanes, syn_lanes);
}

/// Lane-strided conv scatter over the union-active input pixels. Per lane
/// this is the conv scatter (conv_frame_scatter) on a superset active list:
/// pixels where the lane is silent contribute exact +/-0.0 terms, so each
/// lane matches the scalar sparse (hence dense) kernel bit for bit. The
/// dispatched kernels expect the caller to zero the double accumulator.
void conv_frame_lanes_scatter(const ConvLayer& conv, const float* in_lanes, size_t lanes,
                              const uint32_t* active, size_t num_active, std::vector<double>& acc,
                              float* syn_lanes) {
  const size_t out_size = conv.spec().output_size();
  acc.assign(out_size * lanes, 0.0);
  tensor::simd::lane_ops().conv_lanes_scatter(conv.spec().geom(), conv.weights().data(),
                                              in_lanes, lanes, active, num_active, acc.data(),
                                              syn_lanes);
}

/// Lane-strided sum pool: float window sums in the scalar (wy, wx) order.
void pool_frame_lanes(const SumPoolLayer& pool, const float* in_lanes, size_t lanes,
                      float* syn_lanes) {
  const SumPoolSpec& s = pool.spec();
  tensor::simd::lane_ops().pool_lanes(s.channels, s.in_height, s.in_width, s.window, in_lanes,
                                      lanes, syn_lanes);
}

/// Feed-forward weights W [rows, cols] of a dense or recurrent layer.
const float* layer_weights(const Layer& layer) {
  return layer.kind() == LayerKind::kRecurrent
             ? static_cast<const RecurrentLayer&>(layer).weights().data()
             : static_cast<const DenseLayer&>(layer).weights().data();
}

/// A float's bit pattern without the sign bit: nonzero exactly when the
/// value is active (`!= 0.0f`, NaN included).
inline uint32_t magnitude_bits(const float* v) {
  uint32_t b;
  std::memcpy(&b, v, sizeof(b));
  return b & 0x7fffffffu;
}

/// Per-lane spike differences of the lane frame `x_lanes` [cols, lanes]
/// against the golden frame `g` [cols], both 0/1: the ascending columns
/// where lane l spikes and golden does not go to plus[l*cols ...] (count
/// np[l]), those where golden spikes and lane l does not to minus[l*cols
/// ...] (count nm[l]). A first branch-free sweep collects the columns where
/// any lane differs into `diff` [cols], so the per-lane sweep only visits
/// those. Returns the golden frame's active count.
template <size_t LANES>
size_t diff_scan(const float* x_lanes, const float* g, size_t cols, size_t lanes, uint32_t* diff,
                 uint32_t* plus, uint32_t* minus, uint32_t* np, uint32_t* nm) {
  const size_t width = LANES == 0 ? lanes : LANES;  // 0: run-time lane count
  size_t num_diff = 0;
  size_t golden_active = 0;
  for (size_t c = 0; c < cols; ++c) {
    if (c % 4 == 0 && c + 4 <= cols) {
      // Spike frames are sparse: skip four columns at once when golden and
      // every lane are silent in all of them (one branch, rarely taken
      // the other way).
      uint32_t any = 0;
      for (size_t i = 0; i < 4; ++i) any |= magnitude_bits(g + c + i);
      for (size_t i = 0; i < 4 * width; ++i) any |= magnitude_bits(x_lanes + c * width + i);
      if (any == 0) {
        c += 3;
        continue;
      }
    }
    const uint32_t gb = magnitude_bits(g + c);
    const float* xc = x_lanes + c * width;
    uint32_t d = 0;
    if constexpr (LANES % 2 == 0 && LANES > 0) {
      // Two lanes per 64-bit XOR; the sign bits are dropped after the fold.
      const uint64_t gg = (static_cast<uint64_t>(gb) << 32) | gb;
      uint64_t d2 = 0;
      for (size_t l = 0; l < LANES; l += 2) {
        uint64_t pair;
        std::memcpy(&pair, xc + l, sizeof(pair));
        d2 |= pair ^ gg;
      }
      d = static_cast<uint32_t>(d2 | (d2 >> 32)) & 0x7fffffffu;
    } else {
      for (size_t l = 0; l < width; ++l) d |= magnitude_bits(xc + l) ^ gb;
    }
    diff[num_diff] = static_cast<uint32_t>(c);
    num_diff += d != 0 ? 1 : 0;
    golden_active += gb != 0 ? 1 : 0;
  }
  for (size_t l = 0; l < width; ++l) np[l] = nm[l] = 0;
  for (size_t i = 0; i < num_diff; ++i) {
    const uint32_t c = diff[i];
    const uint32_t gb = magnitude_bits(g + c);
    const uint32_t on = gb != 0 ? 1 : 0;
    const float* xc = x_lanes + static_cast<size_t>(c) * width;
    for (size_t l = 0; l < width; ++l) {
      const uint32_t differs = magnitude_bits(xc + l) != gb ? 1 : 0;
      plus[l * cols + np[l]] = c;
      np[l] += differs & (on ^ 1);
      minus[l * cols + nm[l]] = c;
      nm[l] += differs & on;
    }
  }
  return golden_active;
}

size_t diff_scan(const float* x_lanes, const float* g, size_t cols, size_t lanes, uint32_t* diff,
                 uint32_t* plus, uint32_t* minus, uint32_t* np, uint32_t* nm) {
  switch (lanes) {
#define SNNTEST_CASE(n) \
  case n: return diff_scan<n>(x_lanes, g, cols, lanes, diff, plus, minus, np, nm);
    SNNTEST_CASE(1) SNNTEST_CASE(2) SNNTEST_CASE(3) SNNTEST_CASE(4)
    SNNTEST_CASE(5) SNNTEST_CASE(6) SNNTEST_CASE(7) SNNTEST_CASE(8)
#undef SNNTEST_CASE
    default: return diff_scan<0>(x_lanes, g, cols, lanes, diff, plus, minus, np, nm);
  }
}

}  // namespace

// --- Exactness certificate -------------------------------------------------

RowBound row_bound(const float* row, size_t cols) {
  RowBound b;
  for (size_t c = 0; c < cols; ++c) b = with_weight(b, row[c]);
  return b;
}

RowBound with_weight(RowBound b, float w) {
  uint32_t bits;
  std::memcpy(&bits, &w, sizeof(bits));
  const int biased = static_cast<int>((bits >> 23) & 0xffu);
  if (biased != 0 && biased != 0xff) {
    b.e_min = std::min(b.e_min, biased - 127);  // ilogb of a normal float
  } else if (biased == 0 && (bits & 0x7fffffu) != 0) {
    b.e_min = std::min(b.e_min, std::ilogb(w));  // subnormal
  }
  b.abs_sum += std::fabs(static_cast<double>(w));
  return b;
}

bool row_sum_exact(const RowBound& b) {
  if (b.abs_sum == 0.0) return true;
  // NaN or infinite weights (NaN fails every comparison below too).
  if (!(b.abs_sum < std::numeric_limits<double>::infinity())) return false;
  // abs_sum is finite and nonzero, so some weight is finite and nonzero and
  // e_min <= 127. The double abs_sum is exact below the bound and, being a
  // monotone sum of positive terms, cannot round down past it from above.
  const int q = std::max(b.e_min - 23, -149);
  return b.abs_sum < std::ldexp(1.0, q + 53);
}

// --- Shared fault-free frame ---------------------------------------------

void shared_synaptic_frame(const Layer& layer, const float* in_frame, KernelMode mode,
                           std::vector<uint32_t>& active, float* out) {
  const size_t n = layer.num_neurons();
  // Dense/recurrent feed-forward term, dense or sparse decided per frame
  // like Layer::forward does (bit-identical either way).
  auto matvec = [&](const float* w, size_t cols) {
    std::fill(out, out + n, 0.0f);
    if (mode == KernelMode::kDense) {
      tensor::matvec_accumulate(w, n, cols, in_frame, out);
      return;
    }
    const size_t na = tensor::extract_active(in_frame, cols, active);
    if (mode == KernelMode::kSparse || sparse_frame_wins(na, cols)) {
      tensor::matvec_accumulate_gather(w, n, cols, in_frame, active.data(), na, out);
    } else {
      tensor::matvec_accumulate(w, n, cols, in_frame, out);
    }
  };
  switch (layer.kind()) {
    case LayerKind::kDense:
      matvec(static_cast<const DenseLayer&>(layer).weights().data(), layer.num_inputs());
      break;
    case LayerKind::kRecurrent:
      matvec(static_cast<const RecurrentLayer&>(layer).weights().data(), layer.num_inputs());
      break;
    case LayerKind::kConv2d:
      static_cast<const ConvLayer&>(layer).conv_forward_frame(in_frame, out);
      break;
    case LayerKind::kSumPool:
      static_cast<const SumPoolLayer&>(layer).pool_frame(in_frame, out);
      break;
  }
}

// --- Fault rows ----------------------------------------------------------

namespace {

/// The flat input index that stored conv weight `tap` reads at output
/// pixel `out`, or SIZE_MAX when the tap does not feed that pixel (another
/// output channel, or an input position in the padding).
size_t conv_tap_input(const Conv2dSpec& s, size_t tap, size_t out) {
  const size_t k = s.kernel;
  const size_t oh = s.out_height();
  const size_t ow = s.out_width();
  if (out / (oh * ow) != tap / (s.in_channels * k * k)) return SIZE_MAX;
  const size_t ic = (tap / (k * k)) % s.in_channels;
  const long iy = static_cast<long>(((out / ow) % oh) * s.stride + (tap / k) % k) -
                  static_cast<long>(s.padding);
  const long ix = static_cast<long>((out % ow) * s.stride + tap % k) -
                  static_cast<long>(s.padding);
  if (iy < 0 || iy >= static_cast<long>(s.in_height) || ix < 0 ||
      ix >= static_cast<long>(s.in_width)) {
    return SIZE_MAX;
  }
  return (ic * s.in_height + static_cast<size_t>(iy)) * s.in_width + static_cast<size_t>(ix);
}

}  // namespace

bool fault_tap_live(const Layer& layer, const LaneSynapseFault& sf, size_t out,
                    const float* in_frame, const float* prev) {
  using Kind = LaneSynapseFault::Kind;
  switch (sf.kind) {
    case Kind::kNone:
      return false;
    case Kind::kWeight:
      return out == sf.out_index && in_frame[sf.in_index] != 0.0f;
    case Kind::kRecurrentWeight:
      return prev != nullptr && out == sf.out_index && prev[sf.in_index] != 0.0f;
    case Kind::kConvWeight: {
      const size_t in =
          conv_tap_input(static_cast<const ConvLayer&>(layer).spec(), sf.index, out);
      return in != SIZE_MAX && in_frame[in] != 0.0f;
    }
    case Kind::kConvConnection:
      return out == sf.out_index && in_frame[sf.in_index] != 0.0f;
  }
  return false;
}

float fault_row(const Layer& layer, const LaneSynapseFault& sf, size_t out,
                const FaultFrame& frame, const float* prev, size_t prev_stride) {
  using Kind = LaneSynapseFault::Kind;
  const LayerKind kind = layer.kind();
  if (kind == LayerKind::kConv2d) {
    const auto& conv = static_cast<const ConvLayer&>(layer);
    if (sf.kind == Kind::kConvWeight &&
        (!frame.clean || fault_tap_live(layer, sf, out, frame.in, nullptr))) {
      return recompute_conv_pixel(conv, sf.index, sf.value, frame.in, out);
    }
    const float pixel =
        frame.clean ? frame.clean[out] : recompute_conv_pixel(conv, SIZE_MAX, 0.0f, frame.in, out);
    // A connection override lands on top of the fault-free pixel, as
    // ConvLayer::forward_into applies it.
    return sf.kind == Kind::kConvConnection && out == sf.out_index
               ? pixel + sf.delta * frame.in[sf.in_index]
               : pixel;
  }
  const size_t cols = layer.num_inputs();
  const float* w = layer_weights(layer) + out * cols;
  float syn;
  if (sf.kind != Kind::kWeight || !fault_tap_live(layer, sf, out, frame.in, nullptr)) {
    syn = frame.clean  ? frame.clean[out]
          : frame.sums ? static_cast<float>(frame.sums[out])
                       : recompute_row(w, cols, SIZE_MAX, 0.0f, frame.in, 1);
  } else if (frame.sums && frame.binary_in && sf.row_exact) {
    // O(1) row: both partial sums are signed 0/1-subset sums of the row
    // widened by the faulty value, exact under its certificate, so the
    // cast is the scalar ordered sum's float.
    syn = static_cast<float>((frame.sums[out] - static_cast<double>(w[sf.in_index])) +
                             static_cast<double>(sf.value));
  } else {
    syn = recompute_row(w, cols, sf.in_index, sf.value, frame.in, 1);
  }
  if (kind == LayerKind::kRecurrent && prev) {
    // Two separately rounded terms, as RecurrentLayer::forward_into adds them.
    const size_t n = layer.num_neurons();
    const float* v = static_cast<const RecurrentLayer&>(layer).recurrent_weights().data();
    const size_t col =
        sf.kind == Kind::kRecurrentWeight && out == sf.out_index ? sf.in_index : SIZE_MAX;
    syn += recompute_row(v + out * n, n, col, sf.value, prev, prev_stride);
  }
  return syn;
}

// --- LaneLif -------------------------------------------------------------

void LaneLif::reset(const LifBank& bank, size_t lanes, const LaneFault* faults) {
  if (lanes == 0 || lanes > kMaxLaneWidth) {
    throw std::invalid_argument("LaneLif: lanes out of range");
  }
  n_ = bank.size();
  lanes_ = lanes;
  reset_v_ = bank.defaults().reset_potential;
  const size_t count = n_ * lanes;
  leak_.resize(count);
  threshold_.resize(count);
  refractory_.resize(count);
  mode_.resize(count);
  for (size_t i = 0; i < n_; ++i) {
    const size_t base = i * lanes;
    std::fill_n(leak_.data() + base, lanes, bank.leaks()[i]);
    std::fill_n(threshold_.data() + base, lanes, bank.thresholds()[i]);
    std::fill_n(refractory_.data() + base, lanes, bank.refractories()[i]);
    std::fill_n(mode_.data() + base, lanes, static_cast<uint8_t>(bank.modes()[i]));
  }
  if (faults) {
    for (size_t l = 0; l < lanes; ++l) {
      const LaneNeuronOverride& o = faults[l].neuron;
      if (!o.active) continue;
      const size_t e = static_cast<size_t>(o.neuron) * lanes + l;
      leak_[e] = o.leak;
      threshold_[e] = o.threshold;
      refractory_[e] = o.refractory;
      mode_[e] = static_cast<uint8_t>(o.mode);
    }
  }
  u_.assign(count, reset_v_);
  refrac_.assign(count, 0);
}

void LaneLif::step(const float* syn_lanes, float* out_lanes) {
  tensor::simd::LifFrameParams p;
  p.leak = leak_.data();
  p.threshold = threshold_.data();
  p.refractory = refractory_.data();
  p.mode = mode_.data();
  p.reset_v = reset_v_;
  tensor::simd::lane_ops().lif_frame(p, n_ * lanes_, syn_lanes, u_.data(), refrac_.data(),
                                     out_lanes);
}

void LaneLif::compact(const uint8_t* keep) {
  size_t kept = 0;
  for (size_t l = 0; l < lanes_; ++l) kept += keep[l] ? 1 : 0;
  if (kept == lanes_) return;
  compact_lanes(leak_, n_, lanes_, keep, kept);
  compact_lanes(threshold_, n_, lanes_, keep, kept);
  compact_lanes(refractory_, n_, lanes_, keep, kept);
  compact_lanes(mode_, n_, lanes_, keep, kept);
  compact_lanes(u_, n_, lanes_, keep, kept);
  compact_lanes(refrac_, n_, lanes_, keep, kept);
  lanes_ = kept;
}

// --- LaneLayerRun --------------------------------------------------------

void LaneLayerRun::reset(const Layer& layer, size_t lanes, const LaneFault* faults,
                         KernelMode mode, const float* frames, const LaneDelta* delta) {
  layer_ = &layer;
  lanes_ = lanes;
  n_ = layer.num_neurons();
  mode_ = mode;
  frames_ = frames;
  delta_ = delta ? *delta : LaneDelta{};
  t_ = 0;
  rows_recomputed_ = 0;
  rows_skipped_ = 0;
  synaptic_adds_ = 0;
  rows_certified_ = 0;
  rows_uncertified_ = 0;
  faults_.clear();
  if (faults) faults_.assign(faults, faults + lanes);
  scan_faults();
  lif_.reset(layer.lif(), lanes, faults);
  base_.resize(n_);
  syn_.resize(n_ * lanes);
  if (layer.kind() == LayerKind::kRecurrent) {
    prev_out_.assign(n_ * lanes, 0.0f);
  } else {
    prev_out_.clear();
  }
}

void LaneLayerRun::scan_faults() {
  has_synapse_faults_ = false;
  for (const LaneFault& f : faults_) {
    has_synapse_faults_ |= f.synapse.kind != LaneSynapseFault::Kind::kNone;
  }
}

void LaneLayerRun::broadcast_base(float* syn_lanes) const {
  for (size_t i = 0; i < n_; ++i) {
    const float v = base_frame_[i];
    float* s = syn_lanes + i * lanes_;
    for (size_t l = 0; l < lanes_; ++l) s[l] = v;
  }
}

void LaneLayerRun::apply_shared_synapse_faults(const FaultFrame& frame, float* syn_lanes) {
  for (size_t l = 0; l < lanes_; ++l) {
    const LaneSynapseFault& sf = faults_[l].synapse;
    switch (sf.kind) {
      case LaneSynapseFault::Kind::kNone:
      case LaneSynapseFault::Kind::kRecurrentWeight:
        // Recurrent lateral faults only perturb the feedback term, which is
        // handled after the lane feedback matvec (apply_recurrent_faults).
        break;
      case LaneSynapseFault::Kind::kWeight: {
        if (frame.in[sf.in_index] == 0.0f) {
          // value * 0 = +/-0.0: the broadcast fault-free row is the faulty row.
          ++rows_skipped_;
          break;
        }
        syn_lanes[sf.out_index * lanes_ + l] = fault_row(*layer_, sf, sf.out_index, frame);
        ++rows_recomputed_;
        break;
      }
      case LaneSynapseFault::Kind::kConvWeight: {
        // The tap (oc, ic, ky, kx) feeds output pixel (oy, ox) from input
        // pixel (ic, oy*stride + ky - pad, ox*stride + kx - pad). Only the
        // pixels whose tapped input is nonzero can differ from fault-free.
        const Conv2dSpec& s = static_cast<const ConvLayer&>(*layer_).spec();
        const size_t k = s.kernel;
        const size_t oc = sf.index / (s.in_channels * k * k);
        const size_t ic = (sf.index / (k * k)) % s.in_channels;
        const size_t ky = (sf.index / k) % k;
        const size_t kx = sf.index % k;
        const size_t oh = s.out_height();
        const size_t ow = s.out_width();
        const float* in_plane = frame.in + ic * s.in_height * s.in_width;
        for (size_t oy = 0; oy < oh; ++oy) {
          const long iy = static_cast<long>(oy * s.stride + ky) - static_cast<long>(s.padding);
          if (iy < 0 || iy >= static_cast<long>(s.in_height)) continue;
          for (size_t ox = 0; ox < ow; ++ox) {
            const long ix = static_cast<long>(ox * s.stride + kx) - static_cast<long>(s.padding);
            if (ix < 0 || ix >= static_cast<long>(s.in_width)) continue;
            if (in_plane[iy * static_cast<long>(s.in_width) + ix] == 0.0f) {
              ++rows_skipped_;
              continue;
            }
            const size_t out = (oc * oh + oy) * ow + ox;
            syn_lanes[out * lanes_ + l] = recompute_conv_pixel(
                static_cast<const ConvLayer&>(*layer_), sf.index, sf.value, frame.in, out);
            ++rows_recomputed_;
          }
        }
        break;
      }
      case LaneSynapseFault::Kind::kConvConnection:
        // The fault-free pixel is already broadcast into this slot.
        syn_lanes[sf.out_index * lanes_ + l] = fault_row(*layer_, sf, sf.out_index, frame);
        ++rows_recomputed_;
        break;
    }
  }
}

void LaneLayerRun::apply_recurrent_faults(const FaultFrame& frame) {
  for (size_t l = 0; l < lanes_; ++l) {
    const LaneSynapseFault& sf = faults_[l].synapse;
    if (sf.kind != LaneSynapseFault::Kind::kRecurrentWeight) continue;
    const size_t r = sf.out_index;
    if (prev_out_[sf.in_index * lanes_ + l] == 0.0f) {
      // value * 0 = +/-0.0: the fault-free feedback already added is exact.
      ++rows_skipped_;
      continue;
    }
    // This lane carries no W fault (single fault), so the feed-forward term
    // is the fault-free frame's; the faulty V row against the lane's own
    // prev frame overwrites the fault-free feedback added before.
    syn_[r * lanes_ + l] = fault_row(*layer_, sf, r, frame, prev_out_.data() + l, lanes_);
    ++rows_recomputed_;
  }
}

void LaneLayerRun::step_shared(const float* in_frame, float* out_lanes) {
  // Shared fault-free base frame: the cached trace row when the campaign
  // built one for this layer, else a cast of the golden sums when it kept
  // those, else computed in place.
  if (frames_) {
    base_frame_ = frames_ + t_ * n_;
  } else if (delta_.w.sums) {
    // The ordered sum starts at +0.0 and so is never -0.0: the plain cast
    // is the scalar kernel's 0.0f + float(sum).
    const double* sums = delta_.w.sums + t_ * n_;
    for (size_t r = 0; r < n_; ++r) base_[r] = static_cast<float>(sums[r]);
    base_frame_ = base_.data();
  } else {
    shared_synaptic_frame(*layer_, in_frame, mode_, active_, base_.data());
    base_frame_ = base_.data();
  }
  broadcast_base(syn_.data());
  FaultFrame frame;
  frame.in = in_frame;
  frame.clean = base_frame_;
  if (delta_.w.sums) {
    frame.sums = delta_.w.sums + t_ * n_;
    frame.binary_in = delta_.binary_input;
  }
  if (has_synapse_faults_) apply_shared_synapse_faults(frame, syn_.data());
  if (layer_->kind() == LayerKind::kRecurrent && t_ > 0) {
    // Per-lane feedback: prev outputs already diverge across lanes, so this
    // is a lane sum even though the layer input frame is shared.
    feedback_lanes();
    if (has_synapse_faults_) apply_recurrent_faults(frame);
  }
  finish_step(out_lanes);
}

void LaneLayerRun::feedback_lanes() {
  const float* v = static_cast<const RecurrentLayer&>(*layer_).recurrent_weights().data();
  if (delta_.v.sums) {
    delta_term(delta_.v, v, n_, prev_out_.data(), t_ - 1, /*add=*/true, syn_.data());
    return;
  }
  if (mode_ == KernelMode::kDense) {
    tensor::matvec_accumulate_lanes(v, n_, n_, prev_out_.data(), lanes_, syn_.data());
    return;
  }
  const size_t na = tensor::extract_active_union(prev_out_.data(), n_, lanes_, active_);
  if (mode_ == KernelMode::kSparse || sparse_frame_wins(na, n_)) {
    tensor::matvec_accumulate_gather_lanes(v, n_, n_, prev_out_.data(), lanes_, active_.data(), na,
                                           syn_.data());
  } else {
    tensor::matvec_accumulate_lanes(v, n_, n_, prev_out_.data(), lanes_, syn_.data());
  }
}

void LaneLayerRun::delta_term(const DeltaMatrix& m, const float* w, size_t cols,
                              const float* x_lanes, size_t golden_row, bool add,
                              float* syn_lanes) {
  const size_t lanes = lanes_;
  if (plus_.size() < lanes * cols) {
    plus_.resize(lanes * cols);
    minus_.resize(lanes * cols);
  }
  active_.resize(cols);
  uint32_t np[kMaxLaneWidth];
  uint32_t nm[kMaxLaneWidth];
  const size_t golden_active = diff_scan(x_lanes, m.golden_in + golden_row * cols, cols, lanes,
                                         active_.data(), plus_.data(), minus_.data(), np, nm);
  // The feedback term is added to the feed-forward floats; rows that fail
  // the certificate keep theirs aside and add the ordered sum below.
  if (add && m.num_uncertified > 0) {
    held_.resize(m.num_uncertified * lanes);
    for (size_t u = 0; u < m.num_uncertified; ++u) {
      std::copy_n(syn_lanes + m.uncertified[u] * lanes, lanes, held_.data() + u * lanes);
    }
  }
  const double* sums = m.sums + t_ * n_;
  // Most lanes match golden in most frames and take the golden floats as
  // they are; for the feed-forward term they are broadcast to every lane
  // first (contiguous stores), and a lane that differs overwrites its own.
  bool any_golden = false;
  for (size_t l = 0; l < lanes; ++l) any_golden |= np[l] + nm[l] == 0;
  if (any_golden) {
    golden_f_.resize(n_);
    for (size_t r = 0; r < n_; ++r) golden_f_[r] = static_cast<float>(sums[r]);
    if (!add) {
      for (size_t r = 0; r < n_; ++r) std::fill_n(syn_lanes + r * lanes, lanes, golden_f_[r]);
    }
  }
  const tensor::simd::LaneKernels& ops = tensor::simd::lane_ops();
  acc_.resize(n_);
  double* acc = acc_.data();
  for (size_t l = 0; l < lanes; ++l) {
    uint32_t* plus = plus_.data() + l * cols;
    const size_t num_diff = np[l] + nm[l];
    const size_t num_active = golden_active + np[l] - nm[l];
    float* y = syn_lanes + l;
    if (num_diff == 0) {
      if (add) {
        for (size_t r = 0; r < n_; ++r) y[r * lanes] += golden_f_[r];
      }
      continue;
    }
    if (num_diff <= num_active) {
      // Golden plus the lane's differences.
      std::copy_n(sums, n_, acc);
      ops.column_adds(m.wt, n_, plus, np[l], minus_.data() + l * cols, nm[l], acc);
      synaptic_adds_ += num_diff;
    } else {
      // The lane's own active columns are fewer: sum them from +0.0.
      size_t count = 0;
      for (size_t c = 0; c < cols; ++c) {
        plus[count] = static_cast<uint32_t>(c);
        count += magnitude_bits(x_lanes + c * lanes + l) != 0 ? 1 : 0;
      }
      std::fill_n(acc, n_, 0.0);
      ops.column_adds(m.wt, n_, plus, count, nullptr, 0, acc);
      synaptic_adds_ += count;
    }
    // Every partial sum above is exact for a certified row, so the cast is
    // the ordered sum's float (never -0.0: see step_shared).
    if (add) {
      for (size_t r = 0; r < n_; ++r) y[r * lanes] += static_cast<float>(acc[r]);
    } else {
      for (size_t r = 0; r < n_; ++r) y[r * lanes] = static_cast<float>(acc[r]);
    }
  }
  rows_certified_ += (n_ - m.num_uncertified) * lanes;
  rows_uncertified_ += m.num_uncertified * lanes;
  if (m.num_uncertified == 0) return;
  // Rows that fail the certificate: the ordered per-lane sums over the
  // union of the lanes' active columns, one row at a time.
  const size_t nu = tensor::extract_active_union(x_lanes, cols, lanes, active_);
  for (size_t u = 0; u < m.num_uncertified; ++u) {
    const size_t r = m.uncertified[u];
    float* y = syn_lanes + r * lanes;
    if (add) {
      std::copy_n(held_.data() + u * lanes, lanes, y);
    } else {
      std::fill_n(y, lanes, 0.0f);
    }
    ops.matvec_gather_lanes(w + r * cols, 1, cols, x_lanes, lanes, active_.data(), nu, y);
  }
}

void LaneLayerRun::synaptic_lanes(const float* in_lanes, float* syn_lanes) {
  const size_t cols = layer_->num_inputs();
  switch (layer_->kind()) {
    case LayerKind::kDense:
    case LayerKind::kRecurrent: {
      const float* w = layer_weights(*layer_);
      if (delta_.w.sums) {
        delta_term(delta_.w, w, cols, in_lanes, t_, /*add=*/false, syn_lanes);
      } else {
        std::fill(syn_lanes, syn_lanes + n_ * lanes_, 0.0f);
        if (mode_ == KernelMode::kDense) {
          tensor::matvec_accumulate_lanes(w, n_, cols, in_lanes, lanes_, syn_lanes);
        } else {
          const size_t na = tensor::extract_active_union(in_lanes, cols, lanes_, active_);
          if (mode_ == KernelMode::kSparse || sparse_frame_wins(na, cols)) {
            tensor::matvec_accumulate_gather_lanes(w, n_, cols, in_lanes, lanes_, active_.data(),
                                                   na, syn_lanes);
          } else {
            tensor::matvec_accumulate_lanes(w, n_, cols, in_lanes, lanes_, syn_lanes);
          }
        }
      }
      if (layer_->kind() == LayerKind::kRecurrent && t_ > 0) feedback_lanes();
      break;
    }
    case LayerKind::kConv2d: {
      const auto& conv = static_cast<const ConvLayer&>(*layer_);
      if (mode_ == KernelMode::kDense) {
        conv_frame_lanes_dense(conv, in_lanes, lanes_, syn_lanes);
      } else {
        const size_t na = tensor::extract_active_union(in_lanes, cols, lanes_, active_);
        if (mode_ == KernelMode::kSparse || sparse_frame_wins(na, cols)) {
          conv_frame_lanes_scatter(conv, in_lanes, lanes_, active_.data(), na, acc_, syn_lanes);
        } else {
          conv_frame_lanes_dense(conv, in_lanes, lanes_, syn_lanes);
        }
      }
      break;
    }
    case LayerKind::kSumPool:
      pool_frame_lanes(static_cast<const SumPoolLayer&>(*layer_), in_lanes, lanes_, syn_lanes);
      break;
  }
}

void LaneLayerRun::step_lanes(const float* in_lanes, float* out_lanes) {
  synaptic_lanes(in_lanes, syn_.data());
  finish_step(out_lanes);
}

void LaneLayerRun::finish_step(float* out_lanes) {
  lif_.step(syn_.data(), out_lanes);
  if (layer_->kind() == LayerKind::kRecurrent) {
    std::copy(out_lanes, out_lanes + n_ * lanes_, prev_out_.begin());
  }
  ++t_;
}

void LaneLayerRun::compact(const uint8_t* keep) {
  size_t kept = 0;
  for (size_t l = 0; l < lanes_; ++l) kept += keep[l] ? 1 : 0;
  if (kept == lanes_) return;
  lif_.compact(keep);
  if (!prev_out_.empty()) compact_lanes(prev_out_, n_, lanes_, keep, kept);
  if (!faults_.empty()) {
    compact_lanes(faults_, 1, lanes_, keep, kept);
    scan_faults();
  }
  lanes_ = kept;
}

}  // namespace snntest::snn
