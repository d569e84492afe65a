// Tests for src/tensor: shape bookkeeping, tensor construction/indexing,
// and the numeric kernels used by the SNN hot loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace snntest::tensor {
namespace {

TEST(Shape, NumelAndDims) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24u);
  EXPECT_EQ(s.dim(1), 3u);
  EXPECT_EQ(s.to_string(), "[2, 3, 4]");
}

TEST(Shape, EmptyShapeHasZeroElements) {
  Shape s;
  EXPECT_EQ(s.numel(), 0u);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{3, 4});
  EXPECT_EQ(t.numel(), 12u);
  for (size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstructor) {
  Tensor t(Shape{5}, 2.5f);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, DataConstructorValidatesSize) {
  EXPECT_THROW(Tensor(Shape{3}, std::vector<float>{1.0f, 2.0f}), std::invalid_argument);
}

TEST(Tensor, TwoDimensionalIndexing) {
  Tensor t(Shape{2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  EXPECT_EQ(t.at(1, 2), 7.0f);
  EXPECT_EQ(t.row(1)[2], 7.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t(Shape{2, 6}, 1.0f);
  t.reshape(Shape{3, 4});
  EXPECT_EQ(t.shape(), Shape({3, 4}));
  EXPECT_THROW(t.reshape(Shape{5, 5}), std::invalid_argument);
}

TEST(Tensor, Reductions) {
  Tensor t(Shape{4}, std::vector<float>{1.0f, -2.0f, 3.0f, 0.25f});
  EXPECT_DOUBLE_EQ(t.sum(), 2.25);
  EXPECT_EQ(t.max_value(), 3.0f);
  EXPECT_EQ(t.min_value(), -2.0f);
  EXPECT_EQ(t.count_nonzero(), 2u);  // values > 0.5
}

TEST(Ops, MatvecAccumulate) {
  // A = [[1,2],[3,4],[5,6]], x = [1, -1]
  const std::vector<float> a = {1, 2, 3, 4, 5, 6};
  const std::vector<float> x = {1, -1};
  std::vector<float> y = {10, 10, 10};
  matvec_accumulate(a.data(), 3, 2, x.data(), y.data());
  EXPECT_FLOAT_EQ(y[0], 10 - 1);
  EXPECT_FLOAT_EQ(y[1], 10 - 1);
  EXPECT_FLOAT_EQ(y[2], 10 - 1);
}

TEST(Ops, MatvecTransposeAccumulate) {
  const std::vector<float> a = {1, 2, 3, 4, 5, 6};  // [3, 2]
  const std::vector<float> x = {1, 0, 2};           // length rows=3
  std::vector<float> y = {0, 0};
  matvec_transpose_accumulate(a.data(), 3, 2, x.data(), y.data());
  EXPECT_FLOAT_EQ(y[0], 1 * 1 + 0 * 3 + 2 * 5);
  EXPECT_FLOAT_EQ(y[1], 1 * 2 + 0 * 4 + 2 * 6);
}

TEST(Ops, TransposeConsistentWithForward) {
  // <A x, y> must equal <x, A^T y> for random data.
  const size_t rows = 7, cols = 5;
  std::vector<float> a(rows * cols), x(cols), y(rows);
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(static_cast<int>(i * 13 % 11) - 5);
  for (size_t i = 0; i < cols; ++i) x[i] = static_cast<float>(static_cast<int>(i * 7 % 5) - 2);
  for (size_t i = 0; i < rows; ++i) y[i] = static_cast<float>(static_cast<int>(i * 3 % 7) - 3);
  std::vector<float> ax(rows, 0.0f), aty(cols, 0.0f);
  matvec_accumulate(a.data(), rows, cols, x.data(), ax.data());
  matvec_transpose_accumulate(a.data(), rows, cols, y.data(), aty.data());
  EXPECT_NEAR(dot(ax.data(), y.data(), rows), dot(x.data(), aty.data(), cols), 1e-6);
}

TEST(Ops, OuterAccumulate) {
  std::vector<float> a(6, 0.0f);  // [2, 3]
  const std::vector<float> u = {1, 2};
  const std::vector<float> v = {3, 4, 5};
  outer_accumulate(a.data(), 2, 3, u.data(), v.data(), 2.0f);
  EXPECT_FLOAT_EQ(a[0], 6);
  EXPECT_FLOAT_EQ(a[5], 20);
}

TEST(Ops, AxpyAndScale) {
  std::vector<float> a = {1, 2, 3};
  const std::vector<float> b = {10, 20, 30};
  axpy(a.data(), b.data(), 0.5f, 3);
  EXPECT_FLOAT_EQ(a[1], 12);
  scale(a.data(), 2.0f, 3);
  EXPECT_FLOAT_EQ(a[0], 12);
}

TEST(Ops, Clamp) {
  std::vector<float> a = {-5, 0.5f, 5};
  clamp(a.data(), 3, -1, 1);
  EXPECT_FLOAT_EQ(a[0], -1);
  EXPECT_FLOAT_EQ(a[1], 0.5f);
  EXPECT_FLOAT_EQ(a[2], 1);
}

TEST(Ops, L1Distance) {
  Tensor a(Shape{2, 2}, std::vector<float>{0, 1, 1, 0});
  Tensor b(Shape{2, 2}, std::vector<float>{1, 1, 0, 0});
  EXPECT_DOUBLE_EQ(l1_distance(a, b), 2.0);
  Tensor c(Shape{4});
  c.reshape(Shape{4});
  EXPECT_THROW(l1_distance(a, c), std::invalid_argument);
}

TEST(Ops, ArgmaxFirstWinsOnTies) {
  const std::vector<float> v = {1, 3, 3, 2};
  EXPECT_EQ(argmax(v.data(), v.size()), 1u);
}

TEST(SparseOps, ExtractActiveFindsNonzerosInOrder) {
  const std::vector<float> frame = {0.0f, 1.0f, 0.0f, 0.25f, -0.0f, -2.0f};
  std::vector<uint32_t> scratch;
  EXPECT_EQ(extract_active(frame.data(), frame.size(), scratch), 3u);
  EXPECT_EQ(scratch, (std::vector<uint32_t>{1, 3, 5}));  // -0.0 is inactive
  const auto view = make_frame_view(frame.data(), frame.size(), scratch);
  EXPECT_EQ(view.num_active, 3u);
  EXPECT_EQ(view.size, frame.size());
  EXPECT_DOUBLE_EQ(view.density(), 0.5);
  EXPECT_EQ(view.active[2], 5u);
}

TEST(SparseOps, ExtractActiveEmptyFrame) {
  const std::vector<float> frame(8, 0.0f);
  std::vector<uint32_t> scratch = {99};
  EXPECT_EQ(extract_active(frame.data(), frame.size(), scratch), 0u);
  EXPECT_TRUE(scratch.empty());
}

TEST(SparseOps, GatherMatvecBitIdenticalToDense) {
  // Binary frames at several densities plus a relaxed (continuous) frame
  // with exact zeros: the gather kernel must reproduce the dense kernel's
  // float outputs bit-for-bit (same ordered double sums per row).
  const size_t rows = 37, cols = 61;
  uint64_t state = 12345;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) / 9007199254740992.0;
  };
  std::vector<float> a(rows * cols);
  for (auto& w : a) w = static_cast<float>(next() * 2.0 - 1.0);
  for (const double density : {0.0, 0.02, 0.1, 0.5, 1.0}) {
    for (const bool binary : {true, false}) {
      std::vector<float> x(cols, 0.0f);
      for (auto& v : x) {
        if (next() < density) v = binary ? 1.0f : static_cast<float>(next() * 2.0 - 1.0);
      }
      std::vector<uint32_t> active;
      extract_active(x.data(), cols, active);
      std::vector<float> y_dense(rows, 0.5f), y_gather(rows, 0.5f);
      matvec_accumulate(a.data(), rows, cols, x.data(), y_dense.data());
      matvec_accumulate_gather(a.data(), rows, cols, x.data(), active.data(), active.size(),
                               y_gather.data());
      for (size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(y_dense[r], y_gather[r]) << "row " << r << " density " << density;
      }
    }
  }
}

TEST(SparseOps, ExtractActiveUnionMatchesNaiveScan) {
  // The branch-free union extraction must return exactly the columns a
  // naive `!= 0.0f` scan finds in any lane: -0.0f is zero, NaN and
  // subnormals are active — at every lane count the engine runs. The
  // branch-free single-frame extract_active must match the naive scan of
  // the same buffer.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0f, -0.0f, 1.0f, -1.0f, nan, 1e-45f, -1e-45f, 0.5f};
  uint64_t state = 12345;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (size_t lanes = 1; lanes <= kMaxLanes; ++lanes) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{37}}) {
      std::vector<float> x(n * lanes, 0.0f);
      for (auto& v : x) {
        const uint64_t r = next() % 16;
        v = r < 8 ? (r < 4 ? 0.0f : -0.0f) : specials[r % 8];
      }
      // One column that is only -0.0f in every lane, one only NaN.
      if (n > 1) {
        for (size_t l = 0; l < lanes; ++l) {
          x[0 * lanes + l] = -0.0f;
          x[1 * lanes + l] = l == 0 ? nan : 0.0f;
        }
      }
      std::vector<uint32_t> want;
      for (size_t c = 0; c < n; ++c) {
        for (size_t l = 0; l < lanes; ++l) {
          if (x[c * lanes + l] != 0.0f) {
            want.push_back(static_cast<uint32_t>(c));
            break;
          }
        }
      }
      std::vector<uint32_t> got = {99, 98};  // stale contents are overwritten
      const size_t count = extract_active_union(x.data(), n, lanes, got);
      ASSERT_EQ(count, want.size()) << "lanes " << lanes << " n " << n;
      ASSERT_EQ(got, want) << "lanes " << lanes << " n " << n;
      // The single-frame scan reads the lane-strided buffer as one frame of
      // n * lanes values and must agree with the naive scan there too.
      std::vector<uint32_t> want_flat;
      for (size_t i = 0; i < x.size(); ++i) {
        if (x[i] != 0.0f) want_flat.push_back(static_cast<uint32_t>(i));
      }
      std::vector<uint32_t> flat(x.size() + 3, 77u);  // stale and longer
      ASSERT_EQ(extract_active(x.data(), x.size(), flat), want_flat.size());
      ASSERT_EQ(flat, want_flat) << "extract_active lanes " << lanes << " n " << n;
      if (n > 1) {
        EXPECT_TRUE(std::find(got.begin(), got.end(), 0u) == got.end()) << "-0.0f is zero";
        EXPECT_TRUE(std::find(got.begin(), got.end(), 1u) != got.end()) << "NaN is active";
      }
    }
  }
}

TEST(Ops, LaneMatvecBitIdenticalToScalarPerLane) {
  // The lane-strided kernels promise each lane the identical ordered double
  // accumulation the scalar matvec performs on that lane's frame — so lane
  // width must never change a single output bit.
  const size_t rows = 23, cols = 41;
  uint64_t state = 987654321;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) / 9007199254740992.0;
  };
  std::vector<float> a(rows * cols);
  for (auto& w : a) w = static_cast<float>(next() * 2.0 - 1.0);
  for (const size_t lanes : {size_t{1}, size_t{2}, size_t{3}, size_t{8}, kMaxLanes}) {
    for (const double density : {0.05, 0.3, 1.0}) {
      // Lane-minor frame plus a contiguous per-lane copy for the reference.
      std::vector<float> x_lanes(cols * lanes, 0.0f);
      std::vector<std::vector<float>> x_ref(lanes, std::vector<float>(cols, 0.0f));
      for (size_t c = 0; c < cols; ++c) {
        for (size_t l = 0; l < lanes; ++l) {
          if (next() < density) {
            const float v = next() < 0.5 ? 1.0f : static_cast<float>(next() * 2.0 - 1.0);
            x_lanes[c * lanes + l] = v;
            x_ref[l][c] = v;
          }
        }
      }
      std::vector<float> y_lanes(rows * lanes, 0.25f);
      matvec_accumulate_lanes(a.data(), rows, cols, x_lanes.data(), lanes, y_lanes.data());

      std::vector<uint32_t> active;
      const size_t num_active = extract_active_union(x_lanes.data(), cols, lanes, active);
      // The union set is exactly the columns nonzero in any lane, ascending.
      std::vector<uint32_t> expect_active;
      for (size_t c = 0; c < cols; ++c) {
        for (size_t l = 0; l < lanes; ++l) {
          if (x_lanes[c * lanes + l] != 0.0f) {
            expect_active.push_back(static_cast<uint32_t>(c));
            break;
          }
        }
      }
      ASSERT_EQ(num_active, expect_active.size());
      ASSERT_EQ(std::vector<uint32_t>(active.begin(), active.begin() + num_active),
                expect_active);

      std::vector<float> y_gather(rows * lanes, 0.25f);
      matvec_accumulate_gather_lanes(a.data(), rows, cols, x_lanes.data(), lanes, active.data(),
                                     num_active, y_gather.data());

      for (size_t l = 0; l < lanes; ++l) {
        std::vector<float> y_scalar(rows, 0.25f);
        matvec_accumulate(a.data(), rows, cols, x_ref[l].data(), y_scalar.data());
        for (size_t r = 0; r < rows; ++r) {
          ASSERT_EQ(y_lanes[r * lanes + l], y_scalar[r])
              << "lanes " << lanes << " density " << density << " lane " << l << " row " << r;
          ASSERT_EQ(y_gather[r * lanes + l], y_scalar[r])
              << "gather lanes " << lanes << " density " << density << " lane " << l;
        }
      }
    }
  }
}

}  // namespace
}  // namespace snntest::tensor
