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

}  // namespace
}  // namespace snntest::tensor::simd
