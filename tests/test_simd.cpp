// Kernel-level tests for the runtime-dispatched SIMD lane backends
// (tensor/simd.hpp).
//
// The dispatch layer's whole contract is that every backend is a bit-exact
// drop-in for the portable scalar kernels, so the core of this suite is a
// differential fuzz: for every non-scalar backend available on the host, run
// each of the six lane kernels on identical random inputs under the scalar
// table and under the SIMD table, and require float-bit equality — across
// lane widths that exercise the fixed-width templates (1, 2, 4, 8, 16), the
// generic fallback (5, 6, 11), and every vector-tail remainder (3, 13).
// Shapes are deliberately odd (7x13 matvec, strided padded conv) so row
// boundaries never align with the vector width.
//
// The single-sample kernels (the traced frame LIF of snn::LifBank and the
// BPTT transpose matvec) get their own per-backend checks: the LIF against
// snn::lif_step_neuron element by element, the transpose against the
// scalar table over shapes that leave every vector tail. So do the
// optimizer-step kernels of test generation (Gumbel sampling, the LIF
// backward frame, L4's row statistics and gradient, Adam): each against
// its scalar entry at every tail length.
//
// On hosts with no SIMD backend the differential loops are vacuous but the
// dispatch-surface tests (parse/name/availability/force) still run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "snn/lane_network.hpp"
#include "snn/neuron.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"

namespace snntest::tensor::simd {
namespace {

/// Restores the pre-test backend even when an assertion bails out early.
struct BackendGuard {
  Backend prior = active_backend();
  ~BackendGuard() { force_backend(prior); }
};

std::vector<float> random_vec(util::Rng& rng, size_t n, float lo = -1.0f, float hi = 1.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

/// Everything the six kernels produce for one (lane width, seed) input set,
/// computed under whatever backend is currently active. The inputs are a
/// pure function of (lanes, seed), so two calls with different backends are
/// comparable element-for-element.
struct KernelOutputs {
  std::vector<float> matvec_y;
  std::vector<float> gather_y;
  std::vector<float> conv_dense_syn;
  std::vector<float> conv_scatter_syn;
  std::vector<float> pool_syn;
  std::vector<double> column_acc;
  std::vector<float> lif_u;
  std::vector<int> lif_refrac;
  std::vector<float> lif_out;
};

KernelOutputs run_kernels(size_t lanes, uint64_t seed) {
  const LaneKernels& ops = lane_ops();
  util::Rng rng(seed);
  KernelOutputs out;

  // Dense + gather matvec on a 7x13 matrix: odd in both dimensions, with a
  // pre-filled y so the += accumulation semantics are covered too.
  const size_t rows = 7, cols = 13;
  const auto a = random_vec(rng, rows * cols);
  const auto x = random_vec(rng, cols * lanes);
  out.matvec_y = random_vec(rng, rows * lanes);
  ops.matvec_lanes(a.data(), rows, cols, x.data(), lanes, out.matvec_y.data());

  const std::vector<uint32_t> active = {0, 2, 3, 7, 12};
  out.gather_y = random_vec(rng, rows * lanes);
  ops.matvec_gather_lanes(a.data(), rows, cols, x.data(), lanes, active.data(), active.size(),
                          out.gather_y.data());

  // Strided, padded conv so the kernel's boundary clipping runs on every
  // edge; 3x3 output keeps it cheap.
  ConvLaneGeom g;
  g.in_channels = 2;
  g.in_height = 6;
  g.in_width = 5;
  g.out_channels = 3;
  g.kernel = 3;
  g.stride = 2;
  g.padding = 1;
  g.out_height = (g.in_height + 2 * g.padding - g.kernel) / g.stride + 1;
  g.out_width = (g.in_width + 2 * g.padding - g.kernel) / g.stride + 1;
  const auto w = random_vec(rng, g.out_channels * g.in_channels * g.kernel * g.kernel);
  const auto in = random_vec(rng, g.input_size() * lanes);
  out.conv_dense_syn.assign(g.output_size() * lanes, 0.0f);
  ops.conv_lanes_dense(g, w.data(), in.data(), lanes, out.conv_dense_syn.data());

  std::vector<uint32_t> pixels;
  for (uint32_t p = 0; p < g.input_size(); p += 3) pixels.push_back(p);
  std::vector<double> acc(g.output_size() * lanes, 0.0);
  out.conv_scatter_syn.assign(g.output_size() * lanes, 0.0f);
  ops.conv_lanes_scatter(g, w.data(), in.data(), lanes, pixels.data(), pixels.size(), acc.data(),
                         out.conv_scatter_syn.data());

  // Sum pool over 2x2 windows.
  const size_t pc = 3, ph = 6, pw = 6, win = 2;
  const auto pin = random_vec(rng, pc * ph * pw * lanes);
  out.pool_syn.assign(pc * (ph / win) * (pw / win) * lanes, 0.0f);
  ops.pool_lanes(pc, ph, pw, win, pin.data(), lanes, out.pool_syn.data());

  // Column adds over a column-major [9, rows] matrix; rows = 19 + lanes
  // walks the 16-row and 4-row blocks and every row tail. Columns repeat
  // and cross the plus and minus lists.
  const size_t ca_rows = 19 + lanes, ca_cols = 9;
  const auto wt = random_vec(rng, ca_cols * ca_rows);
  const std::vector<uint32_t> plus = {0, 3, 3, 8};
  const std::vector<uint32_t> minus = {1, 3, 7};
  out.column_acc.resize(ca_rows);
  for (auto& v : out.column_acc) v = rng.uniform(-2.0, 2.0);
  ops.column_adds(wt.data(), ca_rows, plus.data(), plus.size(), minus.data(), minus.size(),
                  out.column_acc.data());

  // Six sequential frame-LIF steps over 5 neurons x `lanes` elements with
  // per-element parameters, synaptic drive straddling the threshold and a
  // mode mix (every 7th element dead, every 5th saturated), so spikes,
  // refractory entry, refractory countdown, plain integration and the
  // state-preserving dead/saturated elements all occur, and the frame
  // length (5 * lanes) leaves every remainder of the 8-wide float blocks.
  const size_t count = 5 * lanes;
  const auto leak = random_vec(rng, count, 0.5f, 1.0f);
  const auto thr = random_vec(rng, count, 0.5f, 1.5f);
  std::vector<int> refractory(count);
  std::vector<uint8_t> mode(count, 0);
  for (size_t i = 0; i < count; ++i) {
    refractory[i] = static_cast<int>(i % 4);
    if (i % 7 == 3) mode[i] = 1;
    if (i % 5 == 2) mode[i] = 2;
  }
  LifFrameParams params;
  params.leak = leak.data();
  params.threshold = thr.data();
  params.refractory = refractory.data();
  params.mode = mode.data();
  params.reset_v = 0.0f;
  out.lif_u = random_vec(rng, count, 0.0f, 0.9f);
  out.lif_refrac.assign(count, 0);
  for (size_t i = 0; i < count; i += 3) out.lif_refrac[i] = 1 + static_cast<int>(i % 3);
  out.lif_out.assign(count, 0.0f);
  for (int step = 0; step < 6; ++step) {
    const auto syn = random_vec(rng, count, -0.5f, 1.5f);
    ops.lif_frame(params, count, syn.data(), out.lif_u.data(), out.lif_refrac.data(),
                  out.lif_out.data());
  }
  return out;
}

/// Float-bit equality: NaN payloads and signed zeros must match too.
void expect_bits_equal(const std::vector<float>& got, const std::vector<float>& want,
                       const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    uint32_t gb = 0, wb = 0;
    std::memcpy(&gb, &got[i], sizeof(gb));
    std::memcpy(&wb, &want[i], sizeof(wb));
    ASSERT_EQ(gb, wb) << what << " diverges at element " << i << ": " << got[i] << " vs "
                      << want[i];
  }
}

/// Double-bit equality, the double counterpart of expect_bits_equal.
void expect_bits_equal(const std::vector<double>& got, const std::vector<double>& want,
                       const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << what << " diverges at element " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(SimdDispatch, BackendNamesRoundTrip) {
  for (const Backend b : {Backend::kScalar, Backend::kAvx2}) {
    Backend parsed = Backend::kScalar;
    ASSERT_TRUE(parse_backend(backend_name(b), parsed)) << backend_name(b);
    EXPECT_EQ(parsed, b);
  }
  EXPECT_STREQ(backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(backend_name(Backend::kAvx2), "avx2");
}

TEST(SimdDispatch, ParseRejectsUnknownAndAuto) {
  Backend out = Backend::kAvx2;
  EXPECT_FALSE(parse_backend("", out));
  EXPECT_FALSE(parse_backend("auto", out));  // "auto" maps to best_available, not a backend
  EXPECT_FALSE(parse_backend("AVX2", out));  // case-sensitive, like the env var
  EXPECT_FALSE(parse_backend("sse", out));
  EXPECT_FALSE(parse_backend("neon", out));  // no NEON backend: the unknown-name path
  EXPECT_EQ(out, Backend::kAvx2);  // rejected parses leave `out` untouched
}

TEST(SimdDispatch, AvailabilityIsConsistent) {
  const auto backends = available_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), Backend::kScalar) << "scalar must always be available";
  for (const Backend b : backends) EXPECT_TRUE(backend_available(b));
  EXPECT_TRUE(backend_available(best_available_backend()));
  EXPECT_TRUE(backend_available(active_backend()));
}

TEST(SimdDispatch, ForceBackendSwitchesAndRestores) {
  BackendGuard guard;
  for (const Backend b : available_backends()) {
    ASSERT_TRUE(force_backend(b)) << backend_name(b);
    EXPECT_EQ(active_backend(), b);
  }
  // Forcing an unavailable backend fails and leaves the active one alone.
  for (const Backend b : {Backend::kAvx2}) {
    if (backend_available(b)) continue;
    const Backend before = active_backend();
    EXPECT_FALSE(force_backend(b)) << backend_name(b);
    EXPECT_EQ(active_backend(), before);
  }
}

TEST(SimdKernels, EveryBackendBitIdenticalToScalar) {
  BackendGuard guard;
  const auto backends = available_backends();
  const std::vector<size_t> widths = {1, 2, 3, 4, 5, 6, 8, 11, 13, 16};
  for (const size_t lanes : widths) {
    ASSERT_LE(lanes, kMaxLanes);
    const uint64_t seed = 9000 + lanes;
    ASSERT_TRUE(force_backend(Backend::kScalar));
    const KernelOutputs ref = run_kernels(lanes, seed);
    for (const Backend b : backends) {
      if (b == Backend::kScalar) continue;
      SCOPED_TRACE(std::string("backend=") + backend_name(b) + " lanes=" +
                   std::to_string(lanes));
      ASSERT_TRUE(force_backend(b));
      const KernelOutputs got = run_kernels(lanes, seed);
      expect_bits_equal(got.matvec_y, ref.matvec_y, "matvec_lanes");
      expect_bits_equal(got.gather_y, ref.gather_y, "matvec_gather_lanes");
      expect_bits_equal(got.conv_dense_syn, ref.conv_dense_syn, "conv_lanes_dense");
      expect_bits_equal(got.conv_scatter_syn, ref.conv_scatter_syn, "conv_lanes_scatter");
      expect_bits_equal(got.pool_syn, ref.pool_syn, "pool_lanes");
      ASSERT_EQ(got.column_acc.size(), ref.column_acc.size());
      EXPECT_EQ(std::memcmp(got.column_acc.data(), ref.column_acc.data(),
                            ref.column_acc.size() * sizeof(double)),
                0)
          << "column_adds";
      expect_bits_equal(got.lif_u, ref.lif_u, "lif_frame u");
      expect_bits_equal(got.lif_out, ref.lif_out, "lif_frame out");
      EXPECT_EQ(got.lif_refrac, ref.lif_refrac) << "lif_frame refrac";
    }
  }
}

TEST(SimdKernels, FrameLifMatchesLifBankStepAtEveryWidth) {
  // snn::LaneLif folds the bank's per-neuron parameters and each lane's
  // neuron-fault override into per-element arrays and runs one frame
  // kernel per step. Every lane must spike exactly like its own LifBank
  // with the override written in, at every lane count, under every
  // backend, across a mid-run compaction.
  BackendGuard guard;
  const size_t n = 11;
  snn::LifBank bank(n, snn::LifParams{1.0f, 0.9f, 2, 0.0f});
  for (size_t i = 0; i < n; ++i) {
    bank.thresholds()[i] = 0.6f + 0.1f * static_cast<float>(i);
    bank.leaks()[i] = 0.7f + 0.02f * static_cast<float>(i);
    bank.refractories()[i] = static_cast<int>(i % 4);
  }
  bank.modes()[3] = snn::NeuronMode::kDead;
  bank.modes()[7] = snn::NeuronMode::kSaturated;

  const size_t steps = 40;
  const size_t compact_at = 20;
  for (const Backend b : available_backends()) {
    ASSERT_TRUE(force_backend(b));
    for (size_t lanes = 1; lanes <= kMaxLanes; ++lanes) {
      SCOPED_TRACE(std::string("backend=") + backend_name(b) + " lanes=" +
                   std::to_string(lanes));
      // Per-lane overrides: parameter variations, a dead and a saturated
      // neuron, a revived dead neuron, and lanes without a fault.
      std::vector<snn::LaneFault> faults(lanes);
      for (size_t l = 0; l < lanes; ++l) {
        snn::LaneNeuronOverride& o = faults[l].neuron;
        const size_t i = (l * 5 + 1) % n;
        o = {true, static_cast<uint32_t>(i), bank.thresholds()[i], bank.leaks()[i],
             bank.refractories()[i], bank.modes()[i]};
        switch (l % 5) {
          case 0: o.threshold *= 0.5f; o.leak = 1.0f; o.refractory = 3; break;
          case 1: o.mode = snn::NeuronMode::kDead; break;
          case 2: o.mode = snn::NeuronMode::kSaturated; break;
          case 3: o.neuron = 3; o.mode = snn::NeuronMode::kNormal; break;
          default: o.active = false; break;
        }
      }
      std::vector<snn::LifBank> ref(lanes, bank);
      for (size_t l = 0; l < lanes; ++l) {
        const snn::LaneNeuronOverride& o = faults[l].neuron;
        if (o.active) {
          ref[l].thresholds()[o.neuron] = o.threshold;
          ref[l].leaks()[o.neuron] = o.leak;
          ref[l].refractories()[o.neuron] = o.refractory;
          ref[l].modes()[o.neuron] = o.mode;
        }
        ref[l].begin_run(steps, /*record_traces=*/false);
      }
      snn::LaneLif lif;
      lif.reset(bank, lanes, faults.data());

      util::Rng rng(700 + lanes);
      std::vector<size_t> live(lanes);  // lane -> reference bank
      for (size_t l = 0; l < lanes; ++l) live[l] = l;
      std::vector<float> syn_ref(n), spikes_ref(n);
      for (size_t t = 0; t < steps; ++t) {
        if (t == compact_at && live.size() > 1) {
          std::vector<uint8_t> keep(live.size(), 1);
          std::vector<size_t> kept;
          for (size_t l = 0; l < live.size(); ++l) {
            if (l % 3 == 1) keep[l] = 0;
            else kept.push_back(live[l]);
          }
          lif.compact(keep.data());
          live = kept;
        }
        const size_t w = live.size();
        ASSERT_EQ(lif.lanes(), w);
        std::vector<float> syn = random_vec(rng, n * w, -0.5f, 1.5f);
        if (t == 9) syn[0] = std::numeric_limits<float>::quiet_NaN();  // NaN never fires
        std::vector<float> out(n * w, -1.0f);
        lif.step(syn.data(), out.data());
        for (size_t l = 0; l < w; ++l) {
          for (size_t i = 0; i < n; ++i) syn_ref[i] = syn[i * w + l];
          ref[live[l]].step(syn_ref.data(), spikes_ref.data());
          for (size_t i = 0; i < n; ++i) {
            uint32_t got = 0, want = 0;
            std::memcpy(&got, &out[i * w + l], sizeof(got));
            std::memcpy(&want, &spikes_ref[i], sizeof(want));
            ASSERT_EQ(got, want) << "step " << t << " lane " << live[l] << " neuron " << i;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, PublicEntryPointsRejectBadLaneCounts) {
  const std::vector<float> a(4, 0.5f);
  std::vector<float> x(2 * kMaxLanes, 0.0f), y(2 * kMaxLanes, 0.0f);
  EXPECT_THROW(matvec_accumulate_lanes(a.data(), 2, 2, x.data(), 0, y.data()),
               std::invalid_argument);
  EXPECT_THROW(matvec_accumulate_lanes(a.data(), 2, 2, x.data(), kMaxLanes + 1, y.data()),
               std::invalid_argument);
  const uint32_t active[] = {0};
  EXPECT_THROW(
      matvec_accumulate_gather_lanes(a.data(), 2, 2, x.data(), 0, active, 1, y.data()),
      std::invalid_argument);
}

TEST(SimdKernels, TracedFrameLifMatchesLifStepNeuron) {
  // LifBank::step is one frame-kernel call: lif_frame_traced while it
  // records, lif_frame otherwise. On every backend, each element must match
  // snn::lif_step_neuron exactly: spike, u, refractory count and the BPTT
  // trace (u_pre, spiked, integrated). Counts 1..35 leave every remainder of
  // the 8-wide blocks; the mode mix and a refractory period up to 3 make
  // dead, saturated, refractory, firing and integrating elements occur.
  BackendGuard guard;
  const float reset_v = 0.125f;
  for (const Backend b : available_backends()) {
    ASSERT_TRUE(force_backend(b));
    const LaneKernels& ops = lane_ops();
    for (size_t count = 1; count <= 35; ++count) {
      SCOPED_TRACE(std::string("backend=") + backend_name(b) + " count=" +
                   std::to_string(count));
      util::Rng rng(4100 + count);
      const auto leak = random_vec(rng, count, 0.5f, 1.0f);
      const auto thr = random_vec(rng, count, 0.5f, 1.5f);
      std::vector<int> refractory(count);
      std::vector<uint8_t> mode(count, 0);
      for (size_t i = 0; i < count; ++i) {
        refractory[i] = static_cast<int>(i % 4);
        if (i % 7 == 3) mode[i] = 1;
        if (i % 5 == 2) mode[i] = 2;
      }
      LifFrameParams params;
      params.leak = leak.data();
      params.threshold = thr.data();
      params.refractory = refractory.data();
      params.mode = mode.data();
      params.reset_v = reset_v;

      std::vector<float> u = random_vec(rng, count, 0.0f, 0.9f);
      std::vector<int> refrac(count, 0);
      for (size_t i = 0; i < count; i += 3) refrac[i] = 1 + static_cast<int>(i % 3);
      std::vector<float> u_ref = u;
      std::vector<int> refrac_ref = refrac;
      std::vector<float> u_plain = u;
      std::vector<int> refrac_plain = refrac;
      for (int step = 0; step < 8; ++step) {
        std::vector<float> syn = random_vec(rng, count, -0.5f, 1.5f);
        if (step == 5) syn[count / 2] = std::numeric_limits<float>::quiet_NaN();
        std::vector<float> out(count, -1.0f), out_plain(count, -1.0f), u_pre(count, -1.0f);
        std::vector<uint8_t> spiked(count, 7), integrated(count, 7);
        ops.lif_frame_traced(params, count, syn.data(), u.data(), refrac.data(), out.data(),
                             LifFrameTrace{u_pre.data(), spiked.data(), integrated.data()});
        ops.lif_frame(params, count, syn.data(), u_plain.data(), refrac_plain.data(),
                      out_plain.data());
        for (size_t i = 0; i < count; ++i) {
          const snn::LifStepResult r = snn::lif_step_neuron(
              u_ref[i], refrac_ref[i], syn[i], static_cast<snn::NeuronMode>(mode[i]), thr[i],
              leak[i], refractory[i], reset_v);
          const std::string at = "step " + std::to_string(step) + " element " + std::to_string(i);
          ASSERT_EQ(std::memcmp(&out[i], &r.spike, sizeof(float)), 0) << at << " spike";
          ASSERT_EQ(std::memcmp(&u[i], &u_ref[i], sizeof(float)), 0) << at << " u";
          ASSERT_EQ(refrac[i], refrac_ref[i]) << at << " refrac";
          ASSERT_EQ(std::memcmp(&u_pre[i], &r.u_pre, sizeof(float)), 0) << at << " u_pre";
          ASSERT_EQ(spiked[i], r.spike > 0.5f ? 1 : 0) << at << " spiked";
          ASSERT_EQ(integrated[i], r.integrated ? 1 : 0) << at << " integrated";
        }
        expect_bits_equal(out_plain, out, "lif_frame out");
        expect_bits_equal(u_plain, u, "lif_frame u");
        ASSERT_EQ(refrac_plain, refrac) << "lif_frame refrac";
      }
    }
  }
}

TEST(SimdKernels, TransposeMatvecBitIdenticalToScalar) {
  // y += A^T x adds float products into each y[c] in ascending row order.
  // The AVX2 kernel sweeps 8 columns per vector and up to 4 live rows per
  // sweep; every (rows, cols) pair below leaves a different column tail and
  // live-row remainder. Exact +/-2^40 weights cancel against each other
  // while swallowing small terms, so a reordered sum would change bits.
  BackendGuard guard;
  for (const size_t rows : {1, 2, 3, 4, 5, 7, 9, 17}) {
    for (const size_t cols : {1, 3, 7, 8, 9, 15, 16, 17, 33, 64}) {
      const uint64_t seed = 5000 + rows * 100 + cols;
      auto run = [&](Backend b) {
        EXPECT_TRUE(force_backend(b));
        util::Rng rng(seed);
        std::vector<float> a = random_vec(rng, rows * cols, -2.0f, 2.0f);
        for (size_t i = 0; i < a.size(); i += 5) a[i] = (i / 5) % 2 == 0 ? 0x1p40f : -0x1p40f;
        std::vector<float> x = random_vec(rng, rows);
        for (size_t r = 0; r < rows; r += 3) x[r] = r % 2 == 0 ? 0.0f : -0.0f;  // skipped rows
        if (rows == 9 && cols == 17) x[4] = std::numeric_limits<float>::quiet_NaN();
        std::vector<float> y = random_vec(rng, cols);
        matvec_transpose_accumulate(a.data(), rows, cols, x.data(), y.data());
        return y;
      };
      const std::vector<float> ref = run(Backend::kScalar);
      for (const Backend b : available_backends()) {
        if (b == Backend::kScalar) continue;
        SCOPED_TRACE(std::string("backend=") + backend_name(b) + " rows=" +
                     std::to_string(rows) + " cols=" + std::to_string(cols));
        expect_bits_equal(run(b), ref, "matvec_transpose");
      }
    }
  }
}

TEST(SimdKernels, ConvFrameKernelsBitIdenticalToScalar) {
  // The single-sample conv kernels of snn::ConvLayer and the golden-plus-
  // delta conv taps vectorize across output channels (forward, taps) and
  // along a kernel row's (kx, ic) run (input gradient). Out-channel counts
  // 1..9 and 17 leave every 4-wide double tail and the 16-channel register
  // blocks; odd input-channel counts leave every 8-wide float run tail;
  // strides 1-3 with padding walk every scatter tap pattern. Exact +/-2^40
  // weights make a reordered sum show.
  BackendGuard guard;
  util::Rng shapes(6100);
  for (int trial = 0; trial < 40; ++trial) {
    ConvLaneGeom g;
    g.in_channels = 1 + shapes.uniform_index(5);
    g.kernel = 1 + shapes.uniform_index(4);
    g.stride = 1 + shapes.uniform_index(3);
    g.padding = shapes.uniform_index(g.kernel);
    g.in_height = g.kernel + shapes.uniform_index(7);
    g.in_width = g.kernel + shapes.uniform_index(7);
    g.out_channels = trial % 10 == 9 ? 17 : 1 + static_cast<size_t>(trial % 10);
    g.out_height = (g.in_height + 2 * g.padding - g.kernel) / g.stride + 1;
    g.out_width = (g.in_width + 2 * g.padding - g.kernel) / g.stride + 1;
    const size_t taps = g.in_channels * g.kernel * g.kernel;
    struct ConvFrameOutputs {
      std::vector<float> dense, scatter, grad_in;
      std::vector<double> taps;
    };
    auto run = [&](Backend b) {
      EXPECT_TRUE(force_backend(b));
      const LaneKernels& ops = lane_ops();
      util::Rng rng(6200 + trial);
      std::vector<double> packed(taps * g.out_channels);
      for (size_t i = 0; i < packed.size(); ++i) {
        packed[i] = i % 7 == 0 ? (i % 2 == 0 ? 0x1p40 : -0x1p40) : rng.uniform(-2.0, 2.0);
      }
      std::vector<float> in(g.input_size(), 0.0f);
      std::vector<uint32_t> active;
      for (uint32_t p = 0; p < in.size(); ++p) {
        if (rng.bernoulli(0.4)) {
          in[p] = rng.bernoulli(0.5) ? 1.0f : static_cast<float>(rng.uniform(-3.0, 3.0));
          active.push_back(p);
        }
      }
      std::vector<double> acc(g.output_size());
      ConvFrameOutputs out;
      out.dense.assign(g.output_size(), -1.0f);
      ops.conv_frame_dense(g, packed.data(), in.data(), acc.data(), out.dense.data());
      out.scatter.assign(g.output_size(), -1.0f);
      ops.conv_frame_scatter(g, packed.data(), in.data(), active.data(), active.size(),
                             acc.data(), out.scatter.data());
      std::vector<float> packed_backward = random_vec(rng, taps * g.out_channels, -2.0f, 2.0f);
      for (size_t i = 0; i < packed_backward.size(); i += 5) {
        packed_backward[i] = i % 2 == 0 ? 0x1p40f : -0x1p40f;
      }
      std::vector<float> grad_syn = random_vec(rng, g.output_size());
      for (size_t i = 0; i < grad_syn.size(); i += 3) grad_syn[i] = 0.0f;
      out.grad_in = random_vec(rng, g.input_size());  // channel-last
      ops.conv_backward_input(g, packed_backward.data(), grad_syn.data(), out.grad_in.data());
      // Golden-plus-delta taps from arbitrary accumulators; pixels repeat
      // and cross the plus and minus lists.
      std::vector<uint32_t> plus, minus;
      for (uint32_t p = 0; p < in.size(); ++p) {
        if (rng.bernoulli(0.3)) plus.push_back(p);
        if (rng.bernoulli(0.3)) minus.push_back(p);
      }
      if (!plus.empty()) plus.push_back(plus.front());
      out.taps.resize(g.output_size());
      for (auto& a : out.taps) a = rng.uniform(-4.0, 4.0);
      ops.conv_tap_adds(g, packed.data(), plus.data(), plus.size(), minus.data(), minus.size(),
                        out.taps.data());
      // From +0.0 over a binary frame's active pixels, the taps are the
      // scatter kernel's accumulators.
      std::vector<float> binary(in.size(), 0.0f);
      for (const uint32_t p : active) binary[p] = 1.0f;
      std::vector<float> syn(g.output_size());
      ops.conv_frame_scatter(g, packed.data(), binary.data(), active.data(), active.size(),
                             acc.data(), syn.data());
      std::vector<double> from_zero(g.output_size(), 0.0);
      ops.conv_tap_adds(g, packed.data(), active.data(), active.size(), nullptr, 0,
                        from_zero.data());
      expect_bits_equal(from_zero, acc, "conv_tap_adds from +0.0 vs conv_frame_scatter");
      return out;
    };
    const ConvFrameOutputs ref = run(Backend::kScalar);
    expect_bits_equal(ref.scatter, ref.dense, "scalar scatter vs dense");
    for (const Backend b : available_backends()) {
      if (b == Backend::kScalar) continue;
      SCOPED_TRACE(std::string("backend=") + backend_name(b) + " trial=" + std::to_string(trial));
      const ConvFrameOutputs got = run(b);
      expect_bits_equal(got.dense, ref.dense, "conv_frame_dense");
      expect_bits_equal(got.scatter, ref.scatter, "conv_frame_scatter");
      expect_bits_equal(got.grad_in, ref.grad_in, "conv_backward_input");
      expect_bits_equal(got.taps, ref.taps, "conv_tap_adds");
    }
  }
}

TEST(SimdKernels, ScatterWithAllPixelsActiveMatchesDense) {
  // With every input pixel active the scatter kernel visits exactly the
  // dense kernel's terms (in a different order per output, but each lane's
  // per-output accumulation remains an ordered double sum of the same
  // products — the scalar sparse/dense equivalence the engine relies on).
  BackendGuard guard;
  for (const Backend b : available_backends()) {
    ASSERT_TRUE(force_backend(b));
    SCOPED_TRACE(backend_name(b));
    const LaneKernels& ops = lane_ops();
    util::Rng rng(424242);
    ConvLaneGeom g;
    g.in_channels = 1;
    g.in_height = 4;
    g.in_width = 4;
    g.out_channels = 2;
    g.kernel = 3;
    g.stride = 1;
    g.padding = 0;
    g.out_height = 2;
    g.out_width = 2;
    const size_t lanes = 8;
    const auto w = random_vec(rng, g.out_channels * g.in_channels * g.kernel * g.kernel);
    const auto in = random_vec(rng, g.input_size() * lanes);
    std::vector<float> dense(g.output_size() * lanes, 0.0f);
    ops.conv_lanes_dense(g, w.data(), in.data(), lanes, dense.data());
    std::vector<uint32_t> all(g.input_size());
    for (uint32_t p = 0; p < all.size(); ++p) all[p] = p;
    std::vector<double> acc(g.output_size() * lanes, 0.0);
    std::vector<float> scatter(g.output_size() * lanes, 0.0f);
    ops.conv_lanes_scatter(g, w.data(), in.data(), lanes, all.data(), all.size(), acc.data(),
                           scatter.data());
    for (size_t i = 0; i < dense.size(); ++i) {
      EXPECT_NEAR(dense[i], scatter[i], 1e-5f) << "element " << i;
    }
  }
}

/// Runs `run(backend)` under the scalar table and under every other
/// available backend, and hands each non-scalar result with the scalar one
/// to `check`.
template <typename Run, typename Check>
void against_scalar(Run run, Check check) {
  BackendGuard guard;
  const auto ref = run(Backend::kScalar);
  for (const Backend b : available_backends()) {
    if (b == Backend::kScalar) continue;
    SCOPED_TRACE(std::string("backend=") + backend_name(b));
    check(run(b), ref);
  }
}

TEST(SimdKernels, GumbelKernelsBitIdenticalToScalar) {
  // The Gumbel-sigmoid passes of GumbelSoftmaxInput::forward, 4-wide
  // double. Counts 1..19 leave every tail; the noise-free form, a huge
  // logit (exp overflows to inf, s = 0), a NaN noise term, signed zeros and
  // an s of exactly 0.5 (e = 1) are all on the path.
  for (size_t count = 1; count <= 19; ++count) {
    struct Out {
      std::vector<double> x, x_plain;
      std::vector<float> soft, binary;
    };
    auto run = [&](Backend b) {
      EXPECT_TRUE(force_backend(b));
      const LaneKernels& ops = lane_ops();
      util::Rng rng(7000 + count);
      std::vector<float> real = random_vec(rng, count, -4.0f, 4.0f);
      std::vector<double> g1(count), g2(count);
      for (size_t i = 0; i < count; ++i) {
        g1[i] = rng.gumbel();
        g2[i] = rng.gumbel();
      }
      real[0] = -0.0f;
      if (count > 3) real[3] = 3.0e4f;
      if (count > 5) g1[5] = std::numeric_limits<double>::quiet_NaN();
      Out out;
      out.x.assign(count, -1.0);
      out.x_plain.assign(count, -1.0);
      ops.gumbel_logits(real.data(), g1.data(), g2.data(), count, 0.37, out.x.data());
      ops.gumbel_logits(real.data(), nullptr, nullptr, count, 0.37, out.x_plain.data());
      std::vector<double> e(count);
      for (size_t i = 0; i < count; ++i) e[i] = std::exp(out.x[i]);
      if (count > 7) e[7] = 1.0;
      out.soft.assign(count, -1.0f);
      out.binary.assign(count, -1.0f);
      ops.gumbel_binarize(e.data(), count, out.soft.data(), out.binary.data());
      return out;
    };
    SCOPED_TRACE("count=" + std::to_string(count));
    against_scalar(run, [](const Out& got, const Out& ref) {
      expect_bits_equal(got.x, ref.x, "gumbel_logits");
      expect_bits_equal(got.x_plain, ref.x_plain, "gumbel_logits without noise");
      expect_bits_equal(got.soft, ref.soft, "gumbel_binarize soft");
      expect_bits_equal(got.binary, ref.binary, "gumbel_binarize binary");
    });
  }
}

TEST(SimdKernels, LifBackwardFrameBitIdenticalToScalar) {
  // One BPTT frame per surrogate kind, carried over six frames so the
  // carry chain runs through the kernel. Counts 1..35 leave every 8-wide
  // tail; non-integrated and spiking neurons, a NaN membrane and values at
  // the rectangular window's edge are on the path.
  for (const uint8_t kind : {0, 1, 2}) {
    for (size_t count = 1; count <= 35; ++count) {
      struct Out {
        std::vector<float> carry, grad_syn;
      };
      auto run = [&](Backend b) {
        EXPECT_TRUE(force_backend(b));
        const LaneKernels& ops = lane_ops();
        util::Rng rng(7100 + count * 3 + kind);
        const auto thr = random_vec(rng, count, 0.5f, 1.5f);
        const auto leak = random_vec(rng, count, 0.5f, 1.0f);
        Out out;
        out.carry = random_vec(rng, count);
        for (int frame = 0; frame < 6; ++frame) {
          std::vector<float> u_pre = random_vec(rng, count, -1.0f, 2.5f);
          std::vector<uint8_t> spiked(count), integrated(count);
          for (size_t i = 0; i < count; ++i) {
            integrated[i] = rng.bernoulli(0.8) ? 1 : 0;
            spiked[i] = u_pre[i] >= thr[i] ? 1 : 0;
          }
          if (frame == 2) u_pre[count / 2] = std::numeric_limits<float>::quiet_NaN();
          if (frame == 3) u_pre[count - 1] = thr[count - 1] + 0.5f;  // |x| == 1 / alpha
          const auto grad_spike = random_vec(rng, count, -2.0f, 2.0f);
          LifBackwardParams p;
          p.threshold = thr.data();
          p.leak = leak.data();
          p.u_pre = u_pre.data();
          p.spiked = spiked.data();
          p.integrated = integrated.data();
          p.surrogate = kind;
          p.alpha = 2.0f;
          std::vector<float> grad_syn(count, -7.0f);
          ops.lif_backward_frame(p, count, grad_spike.data(), out.carry.data(), grad_syn.data());
          out.grad_syn.insert(out.grad_syn.end(), grad_syn.begin(), grad_syn.end());
        }
        return out;
      };
      SCOPED_TRACE("surrogate=" + std::to_string(kind) + " count=" + std::to_string(count));
      against_scalar(run, [](const Out& got, const Out& ref) {
        expect_bits_equal(got.carry, ref.carry, "lif_backward_frame carry");
        expect_bits_equal(got.grad_syn, ref.grad_syn, "lif_backward_frame grad_syn");
      });
    }
  }
}

TEST(SimdKernels, L4RowKernelsBitIdenticalToScalar) {
  // L4 statistics run across rows (8- and 4-row blocks, then single rows)
  // and the gradient across columns (4-wide, up to four live rows per
  // sweep). Row counts 1..13 and column counts 1..11 leave every tail;
  // zero and negative-zero weights drop out of a row, rows with fewer than
  // two live weights drop out of the gradient, and +/-2^40 weights make a
  // reordered sum show.
  for (size_t rows = 1; rows <= 13; ++rows) {
    for (size_t cols = 1; cols <= 11; ++cols) {
      struct Out {
        std::vector<double> mean, var, taps, grad;
      };
      auto run = [&](Backend b) {
        EXPECT_TRUE(force_backend(b));
        const LaneKernels& ops = lane_ops();
        util::Rng rng(7200 + rows * 16 + cols);
        std::vector<float> w = random_vec(rng, rows * cols, -2.0f, 2.0f);
        for (size_t i = 0; i < w.size(); ++i) {
          if (rng.bernoulli(0.25)) w[i] = i % 2 == 0 ? 0.0f : -0.0f;
          if (i % 9 == 4) w[i] = i % 2 == 0 ? 0x1p40f : -0x1p40f;
        }
        if (rows > 2) {
          for (size_t c = 1; c < cols; ++c) w[2 * cols + c] = 0.0f;  // one live tap
        }
        std::vector<double> counts(cols);
        for (auto& c : counts) c = static_cast<double>(rng.uniform_index(9));
        Out out;
        out.mean.assign(rows, -1.0);
        out.var.assign(rows, -1.0);
        out.taps.assign(rows, -1.0);
        ops.l4_row_stats(w.data(), rows, cols, counts.data(), out.mean.data(), out.var.data(),
                         out.taps.data());
        out.grad.resize(cols);
        for (auto& g : out.grad) g = rng.uniform(-1.0, 1.0);
        ops.l4_row_grad(w.data(), rows, cols, counts.data(), out.mean.data(), out.taps.data(),
                        out.grad.data());
        return out;
      };
      SCOPED_TRACE("rows=" + std::to_string(rows) + " cols=" + std::to_string(cols));
      against_scalar(run, [](const Out& got, const Out& ref) {
        expect_bits_equal(got.mean, ref.mean, "l4_row_stats mean");
        expect_bits_equal(got.var, ref.var, "l4_row_stats var");
        expect_bits_equal(got.taps, ref.taps, "l4_row_stats taps");
        expect_bits_equal(got.grad, ref.grad, "l4_row_grad");
      });
    }
  }
}

TEST(SimdKernels, AdamStepBitIdenticalToScalar) {
  // Twelve Adam steps per configuration, 4-wide double; counts 1..13 leave
  // every tail. Clip scale and decoupled weight decay on and off; a zero
  // and a huge gradient are on the path.
  for (const bool decay : {false, true}) {
    for (const double clip : {1.0, 0.3}) {
      for (size_t count = 1; count <= 13; ++count) {
        struct Out {
          std::vector<float> m, v, value;
        };
        auto run = [&](Backend b) {
          EXPECT_TRUE(force_backend(b));
          const LaneKernels& ops = lane_ops();
          util::Rng rng(7300 + count);
          Out out;
          out.m.assign(count, 0.0f);
          out.v.assign(count, 0.0f);
          out.value = random_vec(rng, count, -3.0f, 3.0f);
          for (int t = 1; t <= 12; ++t) {
            std::vector<float> grad = random_vec(rng, count, -5.0f, 5.0f);
            grad[0] = 0.0f;
            if (count > 2) grad[2] = 3.0e30f;
            AdamStepParams p;
            p.lr = 0.05;
            p.beta1 = 0.9;
            p.beta2 = 0.999;
            p.eps = 1e-8;
            p.weight_decay = decay ? 0.01 : 0.0;
            p.bc1 = 1.0 - std::pow(p.beta1, t);
            p.bc2 = 1.0 - std::pow(p.beta2, t);
            p.clip_scale = clip;
            ops.adam_step(p, count, grad.data(), out.m.data(), out.v.data(), out.value.data());
          }
          return out;
        };
        SCOPED_TRACE("decay=" + std::to_string(decay) + " clip=" + std::to_string(clip) +
                     " count=" + std::to_string(count));
        against_scalar(run, [](const Out& got, const Out& ref) {
          expect_bits_equal(got.m, ref.m, "adam_step m");
          expect_bits_equal(got.v, ref.v, "adam_step v");
          expect_bits_equal(got.value, ref.value, "adam_step value");
        });
      }
    }
  }
}

TEST(SimdKernels, AdamStepLastBitOfMomentEstimateIsObservable) {
  // AdamStepBitIdenticalToScalar's stored values sit far from any float
  // rounding boundary, so a backend whose m_hat is off in its last bit
  // (m * (1 / bc1) for m / bc1, say) would still match there. Here value
  // is 1.0f and lr is bisected until the double update is half an ulp of
  // 1.0f, where 1.0 - update rounds either to 1.0f or to the float below
  // it: one ulp more or less of the update flips the stored value. The
  // reciprocal mutant, written out below, must disagree with the scalar
  // entry there, and every backend must agree with it.
  BackendGuard guard;
  AdamStepParams p;
  p.beta1 = 0.9;
  p.beta2 = 0.999;
  p.eps = 1e-8;
  p.bc1 = 1.0 - p.beta1;  // step 1
  p.bc2 = 1.0 - p.beta2;
  // `count` copies of (grad, m = v = 0, value = 1.0f), one step.
  auto run = [&](Backend b, double lr, float grad, size_t count) {
    EXPECT_TRUE(force_backend(b));
    AdamStepParams q = p;
    q.lr = lr;
    std::vector<float> g(count, grad), m(count, 0.0f), v(count, 0.0f), value(count, 1.0f);
    lane_ops().adam_step(q, count, g.data(), m.data(), v.data(), value.data());
    return value;
  };
  auto mutant = [&](double lr, float grad) {
    const double g = grad * p.clip_scale;
    const float m = static_cast<float>((1.0 - p.beta1) * g);
    const float v = static_cast<float>((1.0 - p.beta2) * g * g);
    const double m_hat = m * (1.0 / p.bc1);
    const double v_hat = v / p.bc2;
    return static_cast<float>(1.0f - lr * m_hat / (std::sqrt(v_hat) + p.eps));
  };
  bool found = false;
  for (const float grad : {0.3f, 0.7f, 1.1f, 1.3f, 1.7f, 2.3f, 2.9f, 3.7f, 4.1f, 5.3f}) {
    const float m = static_cast<float>((1.0 - p.beta1) * grad);
    const double m_hat = m / p.bc1;
    const double mutant_m_hat = m * (1.0 / p.bc1);
    if (m_hat == mutant_m_hat) continue;
    auto scalar = [&](double lr) { return run(Backend::kScalar, lr, grad, 1)[0]; };
    double lo = 0x1p-28;  // the update is about lr here
    double hi = 0x1p-22;
    ASSERT_EQ(scalar(lo), 1.0f);
    ASSERT_LT(scalar(hi), 1.0f);
    while (std::nextafter(lo, hi) < hi) {
      const double mid = lo + (hi - lo) / 2;
      (scalar(mid) == 1.0f ? lo : hi) = mid;
    }
    // A larger m_hat flips the value at a smaller lr: test it at the last
    // lr the scalar entry keeps 1.0f; a smaller one at the first it flips.
    const double lr = mutant_m_hat > m_hat ? lo : hi;
    if (mutant(lr, grad) == scalar(lr)) continue;
    found = true;
    SCOPED_TRACE("grad=" + std::to_string(grad));
    for (const size_t count : {size_t{1}, size_t{4}, size_t{5}, size_t{7}, size_t{9}}) {
      SCOPED_TRACE("count=" + std::to_string(count));
      const std::vector<float> ref = run(Backend::kScalar, lr, grad, count);
      for (const Backend b : available_backends()) {
        SCOPED_TRACE(std::string("backend=") + backend_name(b));
        expect_bits_equal(run(b, lr, grad, count), ref, "adam_step value at the boundary");
      }
    }
    break;
  }
  EXPECT_TRUE(found) << "no gradient puts the reciprocal mutant across the boundary";
}

}  // namespace
}  // namespace snntest::tensor::simd
