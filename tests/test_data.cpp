// Synthetic dataset tests: determinism, class balance, shapes, binary
// values, sane firing densities, DVS encoder semantics, splits — plus
// TEST_P sweeps over all three generators through the common interface.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "data/dvs_encoder.hpp"
#include "data/synthetic_gesture.hpp"
#include "data/synthetic_nmnist.hpp"
#include "data/synthetic_shd.hpp"
#include "snn/spike_train.hpp"

namespace snntest::data {
namespace {

TEST(DvsEncoder, EmitsOnOffEventsAtTransitions) {
  DvsConfig cfg;
  cfg.height = 2;
  cfg.width = 2;
  cfg.num_steps = 3;
  cfg.event_dropout = 0.0;
  cfg.noise_density = 0.0;
  // pixel 0 turns on at t=1 and off at t=2
  auto frame = [](size_t t, std::vector<uint8_t>& mask) {
    mask.assign(4, 0);
    if (t == 1) mask[0] = 1;
  };
  util::Rng rng(1);
  const auto events = dvs_encode(cfg, frame, rng);
  EXPECT_EQ(events.shape(), tensor::Shape({3, 8}));
  // t=0: no change (initial frame) -> silence
  EXPECT_EQ(events.at(0, 0), 0.0f);
  // t=1: ON event on channel 0 (polarity 0)
  EXPECT_EQ(events.at(1, 0), 1.0f);
  EXPECT_EQ(events.at(1, 4), 0.0f);
  // t=2: OFF event on polarity-1 channel
  EXPECT_EQ(events.at(2, 0), 0.0f);
  EXPECT_EQ(events.at(2, 4), 1.0f);
}

TEST(DvsEncoder, DropoutSuppressesEvents) {
  DvsConfig cfg;
  cfg.height = 4;
  cfg.width = 4;
  cfg.num_steps = 20;
  cfg.event_dropout = 1.0;  // all real events dropped
  cfg.noise_density = 0.0;
  size_t flip = 0;
  auto frame = [&flip](size_t t, std::vector<uint8_t>& mask) {
    mask.assign(16, t % 2 ? 1 : 0);
    ++flip;
  };
  util::Rng rng(2);
  const auto events = dvs_encode(cfg, frame, rng);
  EXPECT_EQ(events.count_nonzero(), 0u);
}

TEST(SevenSegment, DigitsAreDistinct) {
  std::vector<std::vector<uint8_t>> glyphs(10);
  for (size_t d = 0; d < 10; ++d) {
    render_seven_segment(d, 0, 0, 16, 16, glyphs[d]);
    size_t on = 0;
    for (uint8_t v : glyphs[d]) on += v;
    EXPECT_GT(on, 10u) << "digit " << d << " too sparse";
  }
  for (size_t a = 0; a < 10; ++a) {
    for (size_t b = a + 1; b < 10; ++b) {
      EXPECT_NE(glyphs[a], glyphs[b]) << a << " vs " << b;
    }
  }
}

TEST(SevenSegment, OffsetMovesGlyph) {
  std::vector<uint8_t> base, moved;
  render_seven_segment(8, 0, 0, 16, 16, base);
  render_seven_segment(8, 2, 1, 16, 16, moved);
  EXPECT_NE(base, moved);
}

TEST(SevenSegment, RejectsBadDigit) {
  std::vector<uint8_t> mask;
  EXPECT_THROW(render_seven_segment(10, 0, 0, 16, 16, mask), std::invalid_argument);
}

TEST(DatasetSlice, RangesAndNames) {
  auto base = std::make_shared<SyntheticShd>(SyntheticShdConfig{});
  auto splits = split(base, 700, 300);
  EXPECT_EQ(splits.train->size(), 700u);
  EXPECT_EQ(splits.test->size(), 300u);
  // test slice starts where train ends
  const auto direct = base->get(700);
  const auto sliced = splits.test->get(0);
  EXPECT_EQ(direct.label, sliced.label);
  EXPECT_THROW(splits.test->get(300), std::out_of_range);
  EXPECT_THROW(split(base, 900, 200), std::out_of_range);
}

// ---------- generator-agnostic property sweeps ----------

struct GeneratorCase {
  std::string name;
  std::function<std::shared_ptr<Dataset>()> make;
  double min_density;
  double max_density;
};

// Without this gtest prints the raw bytes of the case, heap pointers
// included, into every discovered test name, so ctest names would change
// from one build to the next.
void PrintTo(const GeneratorCase& c, std::ostream* os) { *os << c.name; }

class DatasetSweep : public testing::TestWithParam<GeneratorCase> {};

TEST_P(DatasetSweep, DeterministicAcrossInstances) {
  auto a = GetParam().make();
  auto b = GetParam().make();
  for (size_t i : {size_t{0}, size_t{7}, size_t{31}}) {
    const auto sa = a->get(i);
    const auto sb = b->get(i);
    EXPECT_EQ(sa.label, sb.label);
    ASSERT_EQ(sa.input.numel(), sb.input.numel());
    for (size_t j = 0; j < sa.input.numel(); ++j) {
      ASSERT_EQ(sa.input[j], sb.input[j]) << "sample " << i << " diverges at " << j;
    }
  }
}

TEST_P(DatasetSweep, ShapesMatchMetadata) {
  auto ds = GetParam().make();
  const auto s = ds->get(0);
  EXPECT_EQ(s.input.shape(), tensor::Shape({ds->num_steps(), ds->input_size()}));
}

TEST_P(DatasetSweep, ValuesAreBinary) {
  auto ds = GetParam().make();
  const auto s = ds->get(3);
  for (size_t i = 0; i < s.input.numel(); ++i) {
    ASSERT_TRUE(s.input[i] == 0.0f || s.input[i] == 1.0f);
  }
}

TEST_P(DatasetSweep, ClassesAreBalanced) {
  auto ds = GetParam().make();
  const auto hist = label_histogram(*ds);
  EXPECT_EQ(hist.size(), ds->num_classes());
  const size_t expected = ds->size() / ds->num_classes();
  for (size_t c = 0; c < hist.size(); ++c) {
    EXPECT_NEAR(static_cast<double>(hist[c]), static_cast<double>(expected),
                static_cast<double>(expected) * 0.2 + 1.0);
  }
}

TEST_P(DatasetSweep, FiringDensityInRange) {
  auto ds = GetParam().make();
  double total = 0.0;
  const size_t probe = 12;
  for (size_t i = 0; i < probe; ++i) total += snn::spike_density(ds->get(i).input);
  const double mean = total / probe;
  EXPECT_GE(mean, GetParam().min_density);
  EXPECT_LE(mean, GetParam().max_density);
}

TEST_P(DatasetSweep, SamplesOfSameClassDiffer) {
  auto ds = GetParam().make();
  const size_t classes = ds->num_classes();
  const auto a = ds->get(0);
  const auto b = ds->get(classes);  // same label (index mod classes), new jitter
  ASSERT_EQ(a.label, b.label);
  double diff = 0.0;
  for (size_t i = 0; i < a.input.numel(); ++i) diff += std::abs(a.input[i] - b.input[i]);
  EXPECT_GT(diff, 0.0);
}

TEST_P(DatasetSweep, OutOfRangeIndexThrows) {
  auto ds = GetParam().make();
  EXPECT_THROW(ds->get(ds->size()), std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, DatasetSweep,
    testing::Values(
        GeneratorCase{"nmnist",
                      [] {
                        SyntheticNmnistConfig cfg;
                        cfg.count = 120;
                        return std::make_shared<SyntheticNmnist>(cfg);
                      },
                      0.002, 0.2},
        GeneratorCase{"gesture",
                      [] {
                        SyntheticGestureConfig cfg;
                        cfg.count = 110;
                        return std::make_shared<SyntheticGesture>(cfg);
                      },
                      0.001, 0.2},
        GeneratorCase{"shd",
                      [] {
                        SyntheticShdConfig cfg;
                        cfg.count = 120;
                        return std::make_shared<SyntheticShd>(cfg);
                      },
                      0.01, 0.3}),
    [](const testing::TestParamInfo<GeneratorCase>& info) { return info.param.name; });

}  // namespace
}  // namespace snntest::data
