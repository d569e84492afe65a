// Model-zoo tests: benchmark naming, architecture geometry against
// DESIGN.md §4, dataset wiring, and the train-once-cache-everywhere flow
// (exercised with a tiny training budget in a temp cache dir).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "train/metrics.hpp"
#include "zoo/model_zoo.hpp"

namespace snntest::zoo {
namespace {

TEST(Zoo, BenchmarkNamesRoundTrip) {
  for (auto id : {BenchmarkId::kNmnist, BenchmarkId::kGesture, BenchmarkId::kShd}) {
    EXPECT_EQ(parse_benchmark(benchmark_name(id)), id);
  }
  EXPECT_EQ(parse_benchmark("ibm"), BenchmarkId::kGesture);
  EXPECT_THROW(parse_benchmark("bogus"), std::invalid_argument);
}

TEST(Zoo, NmnistGeometry) {
  auto net = make_network(BenchmarkId::kNmnist, 1);
  EXPECT_EQ(net.input_size(), 2u * 16u * 16u);
  EXPECT_EQ(net.output_size(), 10u);
  EXPECT_EQ(net.num_layers(), 4u);
  EXPECT_EQ(net.total_neurons(), 842u);
  EXPECT_EQ(net.total_weights(), 144u + 1152u + 16384u + 640u);
}

TEST(Zoo, GestureGeometry) {
  auto net = make_network(BenchmarkId::kGesture, 1);
  EXPECT_EQ(net.input_size(), 2u * 24u * 24u);
  EXPECT_EQ(net.output_size(), 11u);
  EXPECT_EQ(net.total_neurons(), 2731u);
  EXPECT_GT(net.total_weights(), 110000u);
}

TEST(Zoo, ShdGeometry) {
  auto net = make_network(BenchmarkId::kShd, 1);
  EXPECT_EQ(net.input_size(), 64u);
  EXPECT_EQ(net.output_size(), 20u);
  EXPECT_EQ(net.total_neurons(), 212u);
}

TEST(Zoo, DatasetsMatchNetworks) {
  for (auto id : {BenchmarkId::kNmnist, BenchmarkId::kGesture, BenchmarkId::kShd}) {
    auto net = make_network(id, 2);
    auto splits = make_datasets(id);
    EXPECT_EQ(splits.train->input_size(), net.input_size());
    EXPECT_EQ(splits.test->input_size(), net.input_size());
    EXPECT_EQ(splits.train->num_classes(), net.output_size());
    EXPECT_GT(splits.train->size(), splits.test->size());
  }
}

TEST(Zoo, FreshNetworksAreDeterministicPerSeed) {
  auto a = make_network(BenchmarkId::kShd, 7);
  auto b = make_network(BenchmarkId::kShd, 7);
  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t p = 0; p < pa.size(); ++p) {
    for (size_t i = 0; i < pa[p].size; ++i) ASSERT_EQ(pa[p].value[i], pb[p].value[i]);
  }
}

TEST(Zoo, EvaluateIdenticalUnderDenseAndAutoKernels) {
  // load_or_train scores its accuracy on a kAuto copy of the bundle
  // network; the event-driven kernels must give the identical EvalResult
  // (accuracy and confusion) that the dense kernels give, per architecture.
  for (auto id : {BenchmarkId::kNmnist, BenchmarkId::kGesture, BenchmarkId::kShd}) {
    SCOPED_TRACE(benchmark_name(id));
    auto dense = make_network(id, 3);
    snn::Network sparse(dense);
    dense.set_kernel_mode(snn::KernelMode::kDense);
    sparse.set_kernel_mode(snn::KernelMode::kAuto);
    const auto splits = make_datasets(id);
    const auto a = train::evaluate(dense, *splits.test, 12);
    const auto b = train::evaluate(sparse, *splits.test, 12);
    EXPECT_EQ(a.total, 12u);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.correct, b.correct);
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.confusion, b.confusion);
    // Not a degenerate silent network: the slice is scored into more than
    // one predicted class.
    std::vector<size_t> predicted(a.confusion.size(), 0);
    for (const auto& row : a.confusion) {
      for (size_t c = 0; c < row.size(); ++c) predicted[c] += row[c];
    }
    EXPECT_GE(std::count_if(predicted.begin(), predicted.end(), [](size_t v) { return v > 0; }),
              2);
  }
}

TEST(Zoo, TrainAndCacheRoundTrip) {
  const std::string dir = testing::TempDir() + "/zoo_cache_test";
  std::filesystem::remove_all(dir);
  ZooOptions options;
  options.cache_dir = dir;
  options.train_budget = 0.03;  // a couple of epochs on a few samples
  options.verbose = false;
  // Make sure the env override does not shadow the temp dir.
  ASSERT_EQ(std::getenv("SNNTEST_CACHE_DIR"), nullptr)
      << "unset SNNTEST_CACHE_DIR when running tests";

  auto first = load_or_train(BenchmarkId::kShd, options);
  EXPECT_FALSE(first.from_cache);
  EXPECT_TRUE(std::filesystem::exists(model_cache_path(BenchmarkId::kShd, options)));

  auto second = load_or_train(BenchmarkId::kShd, options);
  EXPECT_TRUE(second.from_cache);
  // identical weights after reload
  auto pa = first.network.params();
  auto pb = second.network.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t p = 0; p < pa.size(); ++p) {
    for (size_t i = 0; i < pa[p].size; ++i) ASSERT_EQ(pa[p].value[i], pb[p].value[i]);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace snntest::zoo
