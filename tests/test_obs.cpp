// Telemetry subsystem tests (DESIGN.md §11): registry aggregation under
// concurrent increments, histogram bucket semantics + percentile estimates,
// span rings + Chrome trace-event export, run-report JSON with environment provenance, disabled-path overhead, and
// the determinism contract — the testgen stimulus and campaign results must
// be byte-identical with telemetry on vs. off. JSON emitted by the
// subsystem is parsed back with util::parse_json.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/engine.hpp"
#include "core/test_generator.hpp"
#include "fault/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "snn/dense_layer.hpp"
#include "snn/spike_train.hpp"
#include "tensor/simd.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace snntest {
namespace {

using util::JsonValue;
using util::parse_json;

// Restores the telemetry flag and clears metric/trace state around a test.
struct TelemetryGuard {
  bool prev = obs::telemetry_enabled();
  TelemetryGuard() {
    obs::Registry::instance().reset_values();
    obs::reset_trace();
  }
  ~TelemetryGuard() {
    obs::set_telemetry_enabled(prev);
    obs::Registry::instance().reset_values();
    obs::reset_trace();
  }
};

// ---------------------------------------------------------------------------
// Metrics registry

TEST(ObsCounter, AggregatesAcrossThreads) {
  TelemetryGuard guard;
  obs::Counter& c = obs::Registry::instance().counter("test/parallel_adds");
  const uint64_t before = c.value();
  util::ThreadPool pool(8);
  constexpr size_t kItems = 20000;
  util::parallel_for_dynamic(&pool, kItems, /*grain=*/7,
                             [&](size_t /*worker*/, size_t /*i*/) { c.add(1); });
  EXPECT_EQ(c.value() - before, kItems);
}

TEST(ObsHistogram, AggregatesAcrossThreads) {
  TelemetryGuard guard;
  obs::Histogram& h = obs::Registry::instance().histogram(
      "test/parallel_observe", obs::Histogram::linear_bounds(0.1, 1.0, 10));
  util::ThreadPool pool(8);
  constexpr size_t kItems = 10000;
  util::parallel_for_dynamic(&pool, kItems, /*grain=*/3, [&](size_t /*worker*/, size_t i) {
    h.observe(static_cast<double>(i % 10) * 0.1 + 0.05);
  });
  EXPECT_EQ(h.count(), kItems);
  // Sum of (i%10)*0.1 + 0.05 over 10000 items = 1000 * (0+...+0.9) + 500.
  EXPECT_NEAR(h.sum(), 1000.0 * 4.5 + 500.0, 1e-6);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 11u);
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  EXPECT_EQ(total, kItems);
  EXPECT_EQ(buckets.back(), 0u);  // all observations <= 1.0
}

TEST(ObsHistogram, BucketEdgesAreInclusiveUpperBounds) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (inclusive upper edge)
  h.observe(1.5);   // bucket 1
  h.observe(4.0);   // bucket 2
  h.observe(100.0); // overflow
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h.count(), 5u);
}

TEST(ObsRegistry, HandlesAreStableAndResetZeroesInPlace) {
  TelemetryGuard guard;
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& a = reg.counter("test/stable_handle");
  obs::Counter& b = reg.counter("test/stable_handle");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  reg.reset_values();
  EXPECT_EQ(a.value(), 0u);  // same handle, zeroed in place
  a.add(1);
  EXPECT_EQ(reg.counter("test/stable_handle").value(), 1u);
}

TEST(ObsRegistry, FirstRegistrationFixesHistogramBounds) {
  obs::Registry& reg = obs::Registry::instance();
  obs::Histogram& h1 = reg.histogram("test/fixed_bounds", {1.0, 2.0});
  obs::Histogram& h2 = reg.histogram("test/fixed_bounds", {9.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(ObsRegistry, SnapshotCoversAllMetricKinds) {
  TelemetryGuard guard;
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("test/snap_counter").add(7);
  reg.gauge("test/snap_gauge").set(2.5);
  reg.histogram("test/snap_hist", {1.0}).observe(0.5);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("test/snap_counter"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test/snap_gauge"), 2.5);
  const auto& hist = snap.histograms.at("test/snap_hist");
  EXPECT_EQ(hist.count, 1u);
  ASSERT_EQ(hist.buckets.size(), 2u);
  EXPECT_EQ(hist.buckets[0], 1u);
}

TEST(ObsKernelDispatch, RecordsFramesAndActiveFraction) {
  TelemetryGuard guard;
  obs::KernelDispatchObs kobs;
  EXPECT_FALSE(kobs.bound());
  kobs.ensure_bound("testlayer");
  ASSERT_TRUE(kobs.bound());
  kobs.record_dense_frame();
  kobs.record_frame(/*num_active=*/5, /*frame_size=*/10, /*used_sparse=*/true);
  kobs.record_frame(/*num_active=*/10, /*frame_size=*/10, /*used_sparse=*/false);
  const auto snap = obs::Registry::instance().snapshot();
  EXPECT_EQ(snap.counters.at("kernel/testlayer/dense_frames"), 2u);
  EXPECT_EQ(snap.counters.at("kernel/testlayer/sparse_frames"), 1u);
  EXPECT_EQ(snap.histograms.at("kernel/testlayer/active_fraction").count, 2u);
}

// ---------------------------------------------------------------------------
// Trace spans + Chrome export

TEST(ObsTrace, NestedSpansExportValidChromeTrace) {
  TelemetryGuard guard;
  obs::set_telemetry_enabled(true);
  {
    OBS_SPAN("test/outer");
    {
      OBS_SPAN("test/inner");
    }
  }
  obs::record_span("test/\"quoted\"\nname", 1, 2);  // exercises escaping
  const std::string json = obs::chrome_trace_json();
  const JsonValue root = parse_json(json);
  ASSERT_TRUE(root.has("traceEvents"));
  const auto& events = root.at("traceEvents").array;
  size_t outer = 0, inner = 0, quoted = 0;
  int64_t inner_ts = -1, inner_end = -1, outer_ts = -1, outer_end = -1;
  for (const auto& ev : events) {
    if (ev.at("ph").str == "M") continue;  // metadata
    EXPECT_EQ(ev.at("ph").str, "X");
    EXPECT_GE(ev.at("dur").number, 0.0);
    const std::string& name = ev.at("name").str;
    if (name == "test/outer") {
      ++outer;
      outer_ts = static_cast<int64_t>(ev.at("ts").number);
      outer_end = outer_ts + static_cast<int64_t>(ev.at("dur").number);
    } else if (name == "test/inner") {
      ++inner;
      inner_ts = static_cast<int64_t>(ev.at("ts").number);
      inner_end = inner_ts + static_cast<int64_t>(ev.at("dur").number);
    } else if (name == "test/\"quoted\"\nname") {
      ++quoted;
    }
  }
  EXPECT_EQ(outer, 1u);
  EXPECT_EQ(inner, 1u);
  EXPECT_EQ(quoted, 1u);  // escaped name round-trips through the parser
  // The inner span nests inside the outer one on the timeline.
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_end, outer_end);
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  TelemetryGuard guard;
  obs::set_telemetry_enabled(false);
  const size_t before = obs::spans_recorded();
  {
    OBS_SPAN("test/should_not_appear");
  }
  EXPECT_EQ(obs::spans_recorded(), before);
}

TEST(ObsTrace, RingOverflowDropsOldestAndCounts) {
  TelemetryGuard guard;
  obs::set_telemetry_enabled(true);
  const size_t n = obs::kRingCapacity + 100;
  for (size_t i = 0; i < n; ++i) {
    obs::record_span("test/overflow", static_cast<int64_t>(i), static_cast<int64_t>(i + 1));
  }
  EXPECT_GE(obs::spans_dropped(), 100u);
  EXPECT_LE(obs::spans_recorded(), obs::kRingCapacity);
  obs::reset_trace();
  EXPECT_EQ(obs::spans_recorded(), 0u);
  EXPECT_EQ(obs::spans_dropped(), 0u);
}

TEST(ObsTrace, SpansFromPoolThreadsSurviveInExport) {
  TelemetryGuard guard;
  obs::set_telemetry_enabled(true);
  {
    util::ThreadPool pool(4);
    util::parallel_for_dynamic(&pool, 64, 1, [&](size_t /*worker*/, size_t /*i*/) {
      OBS_SPAN("test/pool_span");
    });
  }
  // The pool is destroyed: rings must outlive their threads.
  const JsonValue root = parse_json(obs::chrome_trace_json());
  size_t count = 0;
  for (const auto& ev : root.at("traceEvents").array) {
    if (ev.at("ph").str == "X" && ev.at("name").str == "test/pool_span") ++count;
  }
  EXPECT_EQ(count, 64u);
}

// ---------------------------------------------------------------------------
// Run report

TEST(ObsReport, MetricsReportIsValidJsonWithSchema) {
  TelemetryGuard guard;
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("test/report_counter").add(42);
  reg.gauge("test/report_gauge").set(-1.5);
  reg.histogram("test/report_hist", {1.0, 2.0}).observe(1.5);
  obs::set_report_field("test_field", std::string("needs \"escaping\"\n"));
  obs::set_report_field("test_number", 3.25);
  const JsonValue root = parse_json(obs::metrics_report_json());
  EXPECT_EQ(root.at("schema").str, "snntest-metrics-v1");
  EXPECT_EQ(root.at("fields").at("test_field").str, "needs \"escaping\"\n");
  EXPECT_DOUBLE_EQ(root.at("fields").at("test_number").number, 3.25);
  EXPECT_DOUBLE_EQ(root.at("counters").at("test/report_counter").number, 42.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("test/report_gauge").number, -1.5);
  const auto& hist = root.at("histograms").at("test/report_hist");
  EXPECT_DOUBLE_EQ(hist.at("count").number, 1.0);
  ASSERT_EQ(hist.at("buckets").array.size(), 3u);
  EXPECT_DOUBLE_EQ(hist.at("buckets").array[1].number, 1.0);
}

TEST(ObsReport, WritesFilesToDisk) {
  TelemetryGuard guard;
  obs::set_telemetry_enabled(true);
  {
    OBS_SPAN("test/file_span");
  }
  const std::string trace_path = ::testing::TempDir() + "snntest_trace.json";
  const std::string metrics_path = ::testing::TempDir() + "snntest_metrics.json";
  ASSERT_TRUE(obs::write_chrome_trace(trace_path));
  ASSERT_TRUE(obs::write_metrics_report(metrics_path));
  for (const std::string& path : {trace_path, metrics_path}) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << path;
    std::string content;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
    std::fclose(f);
    EXPECT_NO_THROW(parse_json(content)) << path;
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Percentile estimation (interpolated from fixed-bucket counts)

TEST(ObsHistogram, PercentilesInterpolateKnownDistribution) {
  // 1..10 observed once each into unit-wide buckets: the estimator recovers
  // the exact quantiles of the uniform distribution.
  obs::Histogram h(obs::Histogram::linear_bounds(1.0, 10.0, 10));
  for (int v = 1; v <= 10; ++v) h.observe(static_cast<double>(v));
  EXPECT_NEAR(h.percentile(0.50), 5.0, 1e-12);
  EXPECT_NEAR(h.percentile(0.95), 9.5, 1e-12);
  EXPECT_NEAR(h.percentile(0.10), 1.0, 1e-12);
  EXPECT_NEAR(h.percentile(1.00), 10.0, 1e-12);
  // q clamps instead of extrapolating.
  EXPECT_NEAR(h.percentile(-0.5), h.percentile(0.0), 1e-12);
  EXPECT_NEAR(h.percentile(7.0), 10.0, 1e-12);
}

TEST(ObsHistogram, PercentileHandlesSkewOverflowAndEmpty) {
  obs::Histogram h({1.0, 2.0, 4.0});
  EXPECT_TRUE(std::isnan(h.percentile(0.5)));  // empty histogram
  for (int i = 0; i < 99; ++i) h.observe(0.5);
  h.observe(100.0);  // one overflow observation
  // 99% of the mass sits in bucket 0, so the median interpolates inside it.
  const double p50 = h.percentile(0.50);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 1.0);
  // The overflow bucket has no upper edge: estimates clamp to bounds.back().
  EXPECT_NEAR(h.percentile(0.999), 4.0, 1e-12);
  // Snapshot percentiles agree with the live histogram.
  obs::Registry::HistogramSnapshot snap;
  snap.bounds = h.bounds();
  snap.buckets = h.bucket_counts();
  snap.count = h.count();
  EXPECT_NEAR(snap.percentile(0.5), p50, 1e-12);
}

TEST(ObsHistogram, PercentileRejectsMalformedInput) {
  EXPECT_TRUE(std::isnan(obs::histogram_percentile({}, {1}, 0.5)));
  EXPECT_TRUE(std::isnan(obs::histogram_percentile({1.0}, {1}, 0.5)));  // missing overflow
}

// ---------------------------------------------------------------------------
// Concurrent registry snapshotting (exercised under the TSan preset too):
// snapshots taken while writers hammer the metrics must be internally
// consistent enough to publish — counts monotonic, and exact once writers
// stop. (A histogram's buckets/count/sum are three separate relaxed adds, so
// mid-flight bucket-sum == count is deliberately NOT asserted.)

TEST(ObsRegistry, SnapshotWhileWritersRunIsMonotonicAndExactAtQuiescence) {
  TelemetryGuard guard;
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& c = reg.counter("test/concurrent_snap_counter");
  obs::Histogram& h =
      reg.histogram("test/concurrent_snap_hist", obs::Histogram::linear_bounds(0.1, 1.0, 10));
  constexpr size_t kWriters = 4;
  constexpr size_t kPerWriter = 25000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      while (!go.load()) {
      }
      for (size_t i = 0; i < kPerWriter; ++i) {
        c.add(1);
        h.observe(0.35);
      }
    });
  }
  go.store(true);
  uint64_t last_count = 0;
  for (int s = 0; s < 200; ++s) {
    const auto snap = reg.snapshot();
    const uint64_t count = snap.counters.at("test/concurrent_snap_counter");
    EXPECT_GE(count, last_count) << "snapshot went backwards";
    EXPECT_LE(count, kWriters * kPerWriter);
    last_count = count;
  }
  for (auto& t : writers) t.join();
  const auto final_snap = reg.snapshot();
  EXPECT_EQ(final_snap.counters.at("test/concurrent_snap_counter"), kWriters * kPerWriter);
  const auto& hist = final_snap.histograms.at("test/concurrent_snap_hist");
  EXPECT_EQ(hist.count, kWriters * kPerWriter);
  uint64_t bucket_total = 0;
  for (uint64_t b : hist.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kWriters * kPerWriter);
}

// ---------------------------------------------------------------------------
// Environment provenance in the run report

TEST(ObsReport, ReportCarriesHardwareAndSimdProvenance) {
  TelemetryGuard guard;
  tensor::simd::lane_ops();  // force dispatch resolution (sets simd_backend)
  const JsonValue root = parse_json(obs::metrics_report_json());
  const auto& fields = root.at("fields");
  ASSERT_TRUE(fields.has("hardware_threads"));
  // Rendered as a bare JSON number at report time.
  EXPECT_DOUBLE_EQ(fields.at("hardware_threads").number,
                   static_cast<double>(std::thread::hardware_concurrency()));
  ASSERT_TRUE(fields.has("simd_backend"));
  EXPECT_EQ(fields.at("simd_backend").str,
            tensor::simd::backend_name(tensor::simd::active_backend()));
}

TEST(ObsReport, ExplicitFieldOverridesRenderTimeProvenance) {
  TelemetryGuard guard;
  obs::set_report_field("hardware_threads", std::string("overridden"));
  const JsonValue root = parse_json(obs::metrics_report_json());
  EXPECT_EQ(root.at("fields").at("hardware_threads").str, "overridden");
  // Restore the render-time default for other tests (last write wins); the
  // uint64 overload renders the same bare number the default does.
  obs::set_report_field("hardware_threads",
                        static_cast<uint64_t>(std::thread::hardware_concurrency()));
}

// ---------------------------------------------------------------------------
// Disabled-path overhead

TEST(ObsOverhead, DisabledTelemetryIsCheap) {
  TelemetryGuard guard;
  obs::set_telemetry_enabled(false);
  obs::Counter& c = obs::Registry::instance().counter("test/overhead_counter");
  util::Timer timer;
  constexpr size_t kIters = 1000000;
  for (size_t i = 0; i < kIters; ++i) {
    OBS_SPAN("test/overhead_span");  // disabled: one relaxed load + branch
    if (obs::telemetry_enabled()) c.add(1);
  }
  // Generous bound — a debug build on a loaded CI box still passes, but an
  // accidentally-hot disabled path (lock, allocation, clock read) fails.
  EXPECT_LT(timer.seconds(), 2.0);
  EXPECT_EQ(c.value(), 0u);
}

// ---------------------------------------------------------------------------
// Determinism contract: byte-identity with telemetry on vs. off

snn::Network make_net(uint64_t seed = 1) {
  util::Rng rng(seed);
  snn::LifParams lif;
  snn::Network net("obs-identity-net");
  auto l1 = std::make_unique<snn::DenseLayer>(10, 16, lif);
  l1->init_weights(rng, 1.2f);
  net.add_layer(std::move(l1));
  auto l2 = std::make_unique<snn::DenseLayer>(16, 5, lif);
  l2->init_weights(rng, 1.2f);
  net.add_layer(std::move(l2));
  return net;
}

tensor::Tensor generate_stimulus() {
  auto net = make_net();
  core::TestGenConfig cfg;
  cfg.steps_stage1 = 40;
  cfg.max_iterations = 2;
  cfg.restarts = 2;
  cfg.num_threads = 2;
  cfg.t_limit_seconds = 30.0;
  cfg.eval_every = 2;
  cfg.t_in_start = 4;
  cfg.t_in_max = 16;
  core::TestGenerator generator(net, cfg);
  return generator.generate().stimulus.assemble();
}

TEST(ObsIdentity, TestgenStimulusBitIdenticalWithTelemetryOnAndOff) {
  TelemetryGuard guard;
  obs::set_telemetry_enabled(false);
  const tensor::Tensor off = generate_stimulus();
  obs::set_telemetry_enabled(true);
  const tensor::Tensor on = generate_stimulus();
  ASSERT_EQ(off.numel(), on.numel());
  ASSERT_GT(off.numel(), 0u);
  EXPECT_EQ(std::memcmp(off.data(), on.data(), off.numel() * sizeof(float)), 0)
      << "telemetry fed back into test generation";
}

TEST(ObsIdentity, CampaignResultsBitIdenticalWithTelemetryOnAndOff) {
  TelemetryGuard guard;
  auto net = make_net(3);
  util::Rng stim_rng(11);
  const auto stimulus = snn::random_spike_train(24, net.input_size(), 0.3, stim_rng);
  auto faults = fault::enumerate_faults(net);
  ASSERT_FALSE(faults.empty());
  campaign::EngineConfig cfg;
  cfg.num_threads = 2;

  obs::set_telemetry_enabled(false);
  const auto off = campaign::run_campaign(net, stimulus, faults, cfg);
  obs::set_telemetry_enabled(true);
  const auto on = campaign::run_campaign(net, stimulus, faults, cfg);
  // With telemetry on the run report names the campaign's fingerprint.
  const JsonValue root = parse_json(obs::metrics_report_json());
  const std::string& fingerprint = root.at("fields").at("campaign_fingerprint").str;
  EXPECT_EQ(fingerprint.size(), 16u);
  EXPECT_EQ(fingerprint.find_first_not_of("0123456789abcdef"), std::string::npos) << fingerprint;

  ASSERT_EQ(off.results.size(), on.results.size());
  for (size_t i = 0; i < off.results.size(); ++i) {
    EXPECT_EQ(off.results[i].detected, on.results[i].detected) << "fault " << i;
    EXPECT_EQ(off.results[i].output_l1, on.results[i].output_l1) << "fault " << i;
    EXPECT_EQ(off.results[i].class_count_diff, on.results[i].class_count_diff) << "fault " << i;
    EXPECT_EQ(off.results[i].class_first_spike, on.results[i].class_first_spike) << "fault " << i;
  }
  EXPECT_EQ(off.stats.layer_forwards, on.stats.layer_forwards);
  EXPECT_EQ(off.stats.faults_pruned, on.stats.faults_pruned);
}

}  // namespace
}  // namespace snntest
