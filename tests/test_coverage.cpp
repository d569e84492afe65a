// Coverage-subsystem tests: fault-dictionary persistence (round trip,
// truncated tail, flipped CRC byte, corrupt header, merge of overlapping
// dictionaries), incremental-campaign identity (warm re-run == cold run,
// bit-identical, across lane widths), resume of a cancelled campaign from
// its dictionary, stale-dictionary rejection, the
// minimum-time minimizer (full detectable coverage, determinism, documented
// tie-breaking), and first_detection_frame semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/engine.hpp"
#include "coverage/fault_dictionary.hpp"
#include "coverage/incremental.hpp"
#include "coverage/minimize.hpp"
#include "fault/coverage.hpp"
#include "fault/registry.hpp"
#include "snn/dense_layer.hpp"
#include "snn/spike_train.hpp"
#include "support/naive_reference.hpp"
#include "support/synthetic_faults.hpp"

namespace snntest::coverage {
namespace {

snn::Network make_net(uint64_t seed = 11) {
  util::Rng rng(seed);
  snn::LifParams lif;
  snn::Network net("coverage-test");
  auto l1 = std::make_unique<snn::DenseLayer>(8, 16, lif);
  l1->init_weights(rng, 1.3f);
  net.add_layer(std::move(l1));
  auto l2 = std::make_unique<snn::DenseLayer>(16, 12, lif);
  l2->init_weights(rng, 1.3f);
  net.add_layer(std::move(l2));
  auto l3 = std::make_unique<snn::DenseLayer>(12, 4, lif);
  l3->init_weights(rng, 1.3f);
  net.add_layer(std::move(l3));
  return net;
}

tensor::Tensor busy_input(size_t T = 20, size_t n = 8, uint64_t seed = 5) {
  util::Rng rng(seed);
  return snn::random_spike_train(T, n, 0.5, rng);
}

std::vector<fault::FaultDescriptor> sampled_universe(snn::Network& net, size_t k = 80,
                                                     uint64_t seed = 17) {
  auto universe = fault::enumerate_faults(net);
  util::Rng rng(seed);
  return fault::sample_faults(universe, k, rng);
}

fault::DetectionResult make_result(bool detected, double l1, int64_t frame,
                                   std::vector<long> diff = {}) {
  fault::DetectionResult r;
  r.detected = detected;
  r.output_l1 = l1;
  r.first_detection_frame = frame;
  r.class_count_diff = std::move(diff);
  return r;
}

StimulusEntry make_entry(const std::string& name, uint64_t fingerprint, uint64_t frames) {
  StimulusEntry e;
  e.name = name;
  e.fingerprint = fingerprint;
  e.duration_frames = frames;
  return e;
}

/// A hand-built dictionary: `detects[s]` lists the faults stimulus s
/// detects (other pairs are recorded undetected), `costs[s]` its frames.
FaultDictionary synthetic_dict(size_t num_faults, const std::vector<std::vector<size_t>>& detects,
                               const std::vector<uint64_t>& costs) {
  FaultDictionary dict(test_support::synthetic_faults(num_faults));
  dict.model_fingerprint = 0xABCD;
  for (size_t s = 0; s < detects.size(); ++s) {
    dict.add_stimulus(make_entry("stim" + std::to_string(s), 1000 + s, costs[s]));
    std::vector<char> hit(num_faults, 0);
    for (size_t f : detects[s]) hit[f] = 1;
    for (size_t f = 0; f < num_faults; ++f) {
      dict.record(s, f, make_result(hit[f] != 0, hit[f] ? 3.0 : 0.0, hit[f] ? 2 : -1));
    }
  }
  return dict;
}

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_dicts_equal(const FaultDictionary& a, const FaultDictionary& b) {
  EXPECT_TRUE(a.compatible_with(b));
  EXPECT_EQ(a.schedule_ordered, b.schedule_ordered);
  ASSERT_EQ(a.num_faults(), b.num_faults());
  for (size_t f = 0; f < a.num_faults(); ++f) {
    EXPECT_EQ(a.faults()[f].to_string(), b.faults()[f].to_string()) << "fault " << f;
    EXPECT_EQ(a.faults()[f].magnitude, b.faults()[f].magnitude) << "fault " << f;
  }
  ASSERT_EQ(a.num_stimuli(), b.num_stimuli());
  ASSERT_EQ(a.num_records(), b.num_records());
  for (size_t s = 0; s < a.num_stimuli(); ++s) {
    const auto& ea = a.stimulus(s);
    const auto& eb = b.stimulus(s);
    EXPECT_EQ(ea.name, eb.name);
    EXPECT_EQ(ea.fingerprint, eb.fingerprint);
    EXPECT_EQ(ea.duration_frames, eb.duration_frames);
    ASSERT_EQ(ea.data.numel(), eb.data.numel());
    for (size_t i = 0; i < ea.data.numel(); ++i) EXPECT_EQ(ea.data[i], eb.data[i]);
    for (size_t f = 0; f < a.num_faults(); ++f) {
      ASSERT_EQ(a.has(s, f), b.has(s, f)) << s << "," << f;
      if (a.has(s, f)) {
        EXPECT_TRUE(results_identical(*a.lookup(s, f), *b.lookup(s, f))) << s << "," << f;
      }
    }
  }
}

// --- in-memory matrix ------------------------------------------------------

TEST(Dictionary, RecordLookupAndAggregates) {
  FaultDictionary dict = synthetic_dict(5, {{0, 2}, {2, 4}}, {10, 20});
  EXPECT_EQ(dict.num_stimuli(), 2u);
  EXPECT_EQ(dict.num_records(), 10u);
  EXPECT_EQ(dict.records_for(0), 5u);
  EXPECT_TRUE(dict.has(0, 2));
  EXPECT_FALSE(dict.has(2, 0));  // out-of-range stimulus
  ASSERT_NE(dict.lookup(0, 0), nullptr);
  EXPECT_TRUE(dict.lookup(0, 0)->detected);
  EXPECT_FALSE(dict.lookup(0, 1)->detected);
  EXPECT_EQ(dict.detected_faults(0), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(dict.detected_faults(1), (std::vector<size_t>{2, 4}));
  EXPECT_EQ(dict.detectable_count(), 3u);  // {0, 2, 4}
  // Overwriting an existing pair does not double-count.
  dict.record(0, 0, make_result(false, 0.0, -1));
  EXPECT_EQ(dict.num_records(), 10u);
  EXPECT_FALSE(dict.lookup(0, 0)->detected);
  // Duplicate fingerprints dedupe to the first entry.
  EXPECT_EQ(dict.add_stimulus(make_entry("dup", 1000, 99)), 0u);
  EXPECT_EQ(dict.num_stimuli(), 2u);
  EXPECT_THROW(dict.record(0, 99, make_result(true, 1.0, 0)), std::out_of_range);
  // A record holds only what save() persists: no first-spike frames.
  fault::DetectionResult with_frames = make_result(true, 2.0, 1, {1, -1});
  with_frames.class_first_spike = {3, 7};
  dict.record(1, 1, with_frames);
  EXPECT_TRUE(dict.lookup(1, 1)->class_first_spike.empty());
  EXPECT_TRUE(results_identical(*dict.lookup(1, 1), with_frames));
}

TEST(Dictionary, ResultsIdenticalIsFieldExact) {
  const auto base = make_result(true, 3.5, 2, {1, -1});
  EXPECT_TRUE(results_identical(base, base));
  auto r = base;
  r.detected = false;
  EXPECT_FALSE(results_identical(base, r));
  r = base;
  r.output_l1 = 3.5000000000000004;  // one ulp away
  EXPECT_FALSE(results_identical(base, r));
  r = base;
  r.first_detection_frame = 3;
  EXPECT_FALSE(results_identical(base, r));
  r = base;
  r.class_count_diff = {1, 0};
  EXPECT_FALSE(results_identical(base, r));
}

// --- persistence -----------------------------------------------------------

TEST(Dictionary, SaveLoadRoundTripIncludingEmbeddedStimuli) {
  FaultDictionary dict = synthetic_dict(6, {{0, 1}, {3}}, {12, 7});
  dict.detection_threshold = 0.25;
  dict.detect_only = true;
  auto& entry = const_cast<StimulusEntry&>(dict.stimulus(0));
  entry.data = busy_input(12, 4);
  const std::string path = temp_path("dict_roundtrip.snfd");
  dict.save(path);

  FaultDictionary::LoadStats stats;
  auto loaded = FaultDictionary::load(path, &stats);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(stats.records_loaded, dict.num_records());
  EXPECT_EQ(stats.records_skipped, 0u);
  expect_dicts_equal(dict, *loaded);
  EXPECT_TRUE(loaded->stimulus(0).has_data());
  EXPECT_FALSE(loaded->stimulus(1).has_data());
  std::remove(path.c_str());
}

TEST(Dictionary, LoadMissingFileReturnsNullopt) {
  EXPECT_FALSE(FaultDictionary::load(temp_path("does_not_exist.snfd")).has_value());
}

TEST(Dictionary, TruncatedTailFailsSoftWithCountedSkips) {
  FaultDictionary dict = synthetic_dict(4, {{0}, {1}, {2}}, {5, 5, 5});
  const std::string path = temp_path("dict_truncated.snfd");
  dict.save(path);
  const std::string bytes = slurp(path);
  // Cut into the final record: its tail is gone, everything before survives.
  spit(path, bytes.substr(0, bytes.size() - 10));

  FaultDictionary::LoadStats stats;
  auto loaded = FaultDictionary::load(path, &stats);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_GE(stats.records_skipped, 1u);
  EXPECT_EQ(stats.records_loaded + stats.records_skipped, dict.num_records());
  EXPECT_EQ(loaded->num_records(), stats.records_loaded);
  EXPECT_TRUE(loaded->compatible_with(dict));
  std::remove(path.c_str());
}

TEST(Dictionary, FlippedCrcByteSkipsExactlyThatRecord) {
  FaultDictionary dict = synthetic_dict(4, {{0}, {1}, {2}}, {5, 5, 5});
  const std::string path = temp_path("dict_crcflip.snfd");
  dict.save(path);
  std::string bytes = slurp(path);
  // The file ends with the last record's CRC-32; flipping one bit there
  // invalidates exactly one record without touching the framing.
  bytes[bytes.size() - 1] ^= 0x01;
  spit(path, bytes);

  FaultDictionary::LoadStats stats;
  auto loaded = FaultDictionary::load(path, &stats);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(stats.records_skipped, 1u);
  EXPECT_EQ(stats.records_loaded, dict.num_records() - 1);
  EXPECT_EQ(loaded->num_records(), dict.num_records() - 1);
  std::remove(path.c_str());
}

TEST(Dictionary, CorruptHeaderOrMagicFailsLoad) {
  FaultDictionary dict = synthetic_dict(4, {{0}}, {5});
  const std::string path = temp_path("dict_header.snfd");
  dict.save(path);
  const std::string bytes = slurp(path);

  // Bad magic.
  std::string bad = bytes;
  bad[0] ^= 0xFF;
  spit(path, bad);
  EXPECT_FALSE(FaultDictionary::load(path).has_value());

  // A flipped byte inside the header blob (offset 20 = 8 magic/version +
  // 8 block length + 4) trips the header block's CRC.
  bad = bytes;
  bad[20] ^= 0xFF;
  spit(path, bad);
  EXPECT_FALSE(FaultDictionary::load(path).has_value());
  std::remove(path.c_str());
}

TEST(Dictionary, NonSpikeStimulusIsRejectedBeforeAnythingIsWritten) {
  // The embedded train is bit-packed, so only 0/1 cells survive a save. A
  // 0.5 would come back as 1.0 under the fingerprint of the 0.5 train, and
  // replay would run a different stimulus; the entry is refused instead.
  auto net = make_net();
  const auto faults = sampled_universe(net, 10);
  tensor::Tensor input = busy_input();
  input[7] = 0.5f;
  FaultDictionary dict = make_dictionary(net, faults);
  IncrementalConfig config;
  config.engine.num_threads = 1;
  try {
    run_incremental_campaign(net, input, faults, dict, config);
    FAIL() << "a 0.5 cell was embedded";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("index 7"), std::string::npos) << e.what();
  }
  EXPECT_EQ(dict.num_stimuli(), 0u);
  EXPECT_EQ(dict.num_records(), 0u);

  StimulusEntry entry = make_entry("half", 42, 20);
  entry.data = input;
  EXPECT_THROW(dict.add_stimulus(entry), std::invalid_argument);
  EXPECT_EQ(dict.num_stimuli(), 0u);
}

// --- merge -----------------------------------------------------------------

TEST(Dictionary, MergeOverlappingDictionaries) {
  // a: stim0 fully recorded, stim1 partially recorded (fault 2 missing).
  // b: stim1 (same fingerprint; one agreeing, one conflicting, one new
  // record) + stim2 (entirely new).
  FaultDictionary a = synthetic_dict(3, {{0}}, {5});
  a.add_stimulus(make_entry("stim1", 1001, 6));
  a.record(1, 0, make_result(false, 0.0, -1));
  a.record(1, 1, make_result(true, 3.0, 2));
  FaultDictionary b(a.faults());
  b.model_fingerprint = a.model_fingerprint;
  b.add_stimulus(make_entry("stim1", 1001, 6));  // fingerprint matches a's stim1
  b.record(0, 0, make_result(false, 0.0, -1));   // agrees with a
  b.record(0, 1, make_result(true, 9.0, 7));     // conflicts with a's (true, 3.0, 2)
  b.record(0, 2, make_result(true, 1.0, 0));     // new pair for an existing stimulus
  b.add_stimulus(make_entry("stim2", 1002, 8));
  b.record(1, 2, make_result(true, 2.0, 1));

  const auto stats = a.merge(b);
  EXPECT_EQ(stats.stimuli_added, 1u);
  EXPECT_EQ(stats.records_added, 2u);
  EXPECT_EQ(stats.duplicates_agreeing, 1u);
  EXPECT_EQ(stats.conflicts_skipped, 1u);
  EXPECT_EQ(a.num_stimuli(), 3u);
  EXPECT_EQ(a.num_records(), 7u);  // 3 (stim0) + 2 (stim1) + 2 added
  // The conflict kept the existing record.
  EXPECT_EQ(a.lookup(1, 1)->output_l1, 3.0);
  // Merged pairs landed under the existing stimulus index.
  EXPECT_TRUE(a.lookup(1, 2)->detected);
  EXPECT_TRUE(a.lookup(2, 2)->detected);
}

TEST(Dictionary, MergeIncompatibleThrows) {
  FaultDictionary a = synthetic_dict(3, {{0}}, {5});
  FaultDictionary b = synthetic_dict(3, {{0}}, {5});
  b.model_fingerprint ^= 1;  // retrained model
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  FaultDictionary c = synthetic_dict(4, {{0}}, {5});  // different universe size
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

// --- incremental campaigns -------------------------------------------------

TEST(Incremental, WarmRerunIsLookupOnlyAndBitIdenticalAcrossLaneWidths) {
  auto net = make_net();
  const auto faults = sampled_universe(net);
  const std::vector<tensor::Tensor> stimuli = {busy_input(20, 8, 5), busy_input(20, 8, 6),
                                               busy_input(20, 8, 7)};
  for (const size_t lane_width : {size_t{1}, size_t{4}, size_t{8}}) {
    campaign::EngineConfig engine;
    engine.num_threads = 2;
    engine.lane_width = lane_width;

    // Cold: plain engine runs (the ground truth) and a dictionary build.
    FaultDictionary dict = make_dictionary(net, faults);
    std::vector<std::vector<fault::DetectionResult>> cold;
    for (size_t i = 0; i < stimuli.size(); ++i) {
      cold.push_back(campaign::run_campaign(net, stimuli[i], faults, engine).results);
      IncrementalConfig config;
      config.engine = engine;
      auto out = run_incremental_campaign(net, stimuli[i], faults, dict, config);
      EXPECT_FALSE(out.coverage.dictionary_rejected);
      EXPECT_EQ(out.coverage.pairs_reused, 0u);
      EXPECT_EQ(out.coverage.pairs_recorded, faults.size());
      ASSERT_EQ(out.campaign.results.size(), cold[i].size());
      for (size_t j = 0; j < faults.size(); ++j) {
        EXPECT_TRUE(results_identical(cold[i][j], out.campaign.results[j]))
            << "lane_width " << lane_width << " stimulus " << i << " fault " << j;
      }
    }

    // Disk round trip, then warm re-runs: zero simulations, identical bits.
    const std::string path = temp_path("dict_warm.snfd");
    dict.save(path);
    auto reloaded = FaultDictionary::load(path);
    ASSERT_TRUE(reloaded.has_value());
    for (size_t i = 0; i < stimuli.size(); ++i) {
      IncrementalConfig config;
      config.engine = engine;
      const auto out = run_incremental_campaign(net, stimuli[i], faults, *reloaded, config);
      EXPECT_EQ(out.coverage.pairs_reused, faults.size());
      EXPECT_EQ(out.campaign.stats.pairs_reused, faults.size());
      EXPECT_EQ(out.campaign.stats.faults_simulated, 0u);
      EXPECT_EQ(out.coverage.pairs_recorded, 0u);
      EXPECT_TRUE(out.campaign.completed);
      for (size_t j = 0; j < faults.size(); ++j) {
        EXPECT_TRUE(results_identical(cold[i][j], out.campaign.results[j]))
            << "warm lane_width " << lane_width << " stimulus " << i << " fault " << j;
      }
    }
    std::remove(path.c_str());
  }
}

TEST(Incremental, RejectsDictionaryOfRetrainedModel) {
  auto net = make_net(11);
  auto retrained = make_net(99);  // same topology, different parameters
  const auto faults = sampled_universe(net);
  const auto input = busy_input();

  FaultDictionary dict = make_dictionary(net, faults);
  IncrementalConfig config;
  config.engine.num_threads = 1;
  run_incremental_campaign(net, input, faults, dict, config);
  const size_t records_before = dict.num_records();
  EXPECT_EQ(records_before, faults.size());

  // Same fault list, same settings — but the parameters changed, so the
  // model fingerprint differs and the dictionary must be rejected softly.
  const auto out = run_incremental_campaign(retrained, input, faults, dict, config);
  EXPECT_TRUE(out.coverage.dictionary_rejected);
  EXPECT_EQ(out.coverage.pairs_reused, 0u);
  EXPECT_EQ(dict.num_records(), records_before);  // untouched
  EXPECT_TRUE(out.campaign.completed);

  // The cold results are still correct (match a plain engine run).
  const auto plain = campaign::run_campaign(retrained, input, faults, config.engine);
  for (size_t j = 0; j < faults.size(); ++j) {
    EXPECT_TRUE(results_identical(plain.results[j], out.campaign.results[j])) << j;
  }
}

TEST(Incremental, DetectionSettingsChangeRejectsDictionary) {
  auto net = make_net();
  const auto faults = sampled_universe(net, 20);
  FaultDictionary dict = make_dictionary(net, faults, /*detection_threshold=*/0.0);
  IncrementalConfig config;
  config.engine.num_threads = 1;
  config.engine.detection_threshold = 2.0;  // differs from the dictionary's
  const auto out = run_incremental_campaign(net, busy_input(), faults, dict, config);
  EXPECT_TRUE(out.coverage.dictionary_rejected);
  EXPECT_EQ(dict.num_records(), 0u);
}

TEST(Incremental, CancelledRunResumesFromDictionary) {
  // The one resume path: a cancelled incremental campaign has recorded every
  // pair it finished; committing the dictionary with save, reloading
  // it and rerunning simulates only the rest and joins to the oracle, to a
  // cold run and to a cold build's exact file bytes. The rerun regroups the
  // pending faults into fresh lane batches that need not align with the
  // cancelled run's, and the frontier walk must compose with it too.
  auto net = make_net();
  const auto input = busy_input();
  const auto faults = sampled_universe(net, 96, 63);
  const auto oracle = test_support::naive_reference(net, input, faults);
  std::vector<fault::FaultClassification> labels(faults.size());
  for (size_t j = 0; j < labels.size(); ++j) labels[j].critical = j % 2 == 0;

  for (const size_t lane_width : {size_t{1}, size_t{8}}) {
    for (const bool frontier : {false, true}) {
      SCOPED_TRACE("lane_width " + std::to_string(lane_width) + " frontier " +
                   std::to_string(frontier));
      IncrementalConfig config;
      config.engine.num_threads = 2;
      config.engine.lane_width = lane_width;
      config.engine.frontier = frontier;

      FaultDictionary cold_dict = make_dictionary(net, faults);
      const auto cold = run_incremental_campaign(net, input, faults, cold_dict, config);
      ASSERT_TRUE(cold.campaign.completed);

      // Cancellation is polled once per work item (a lane batch or a single
      // fault), so the budget counts items.
      std::atomic<long> budget{lane_width == 1 ? 30 : 4};
      IncrementalConfig cancelled = config;
      cancelled.engine.cancel = [&budget] { return budget.fetch_sub(1) <= 0; };
      FaultDictionary dict = make_dictionary(net, faults);
      const auto first = run_incremental_campaign(net, input, faults, dict, cancelled);
      EXPECT_FALSE(first.campaign.completed);
      const size_t finished = first.campaign.stats.faults_simulated;
      EXPECT_GT(finished, 0u);
      EXPECT_LT(finished, faults.size());
      EXPECT_EQ(first.coverage.pairs_recorded, finished);

      const std::string path = temp_path("dict_cancelled.snfd");
      dict.save(path);
      FaultDictionary::LoadStats stats;
      auto reloaded = FaultDictionary::load(path, &stats);
      ASSERT_TRUE(reloaded.has_value());
      EXPECT_EQ(stats.records_skipped, 0u);
      EXPECT_EQ(reloaded->num_records(), finished);

      const auto resumed = run_incremental_campaign(net, input, faults, *reloaded, config);
      EXPECT_TRUE(resumed.campaign.completed);
      EXPECT_FALSE(resumed.coverage.dictionary_rejected);
      EXPECT_EQ(resumed.coverage.pairs_reused, finished);
      EXPECT_EQ(resumed.campaign.stats.faults_simulated, faults.size() - finished);
      for (size_t j = 0; j < faults.size(); ++j) {
        EXPECT_TRUE(results_identical(resumed.campaign.results[j], oracle[j])) << "fault " << j;
        EXPECT_TRUE(results_identical(resumed.campaign.results[j], cold.campaign.results[j]))
            << "fault " << j;
      }
      EXPECT_EQ(fault::build_coverage_report(faults, resumed.campaign.results, labels).to_string(),
                fault::build_coverage_report(faults, cold.campaign.results, labels).to_string());
      EXPECT_EQ(reloaded->serialize(), cold_dict.serialize());
      std::remove(path.c_str());
    }
  }
}

// --- minimum-time minimizer ------------------------------------------------

TEST(Minimize, TieBreaksRatioThenGainThenIndex) {
  // stim0 {f0}/10 and stim1 {f0,f1}/20 tie on ratio 0.1 — the larger gain
  // must win. stim2 {f2}/5 and stim3 {f3}/5 tie on ratio AND gain — the
  // smaller index must come first. Best ratios overall: stim2/stim3 (0.2).
  FaultDictionary dict = synthetic_dict(4, {{0}, {0, 1}, {2}, {3}}, {10, 20, 5, 5});
  const TestSchedule schedule = minimize_schedule(dict);
  ASSERT_EQ(schedule.steps.size(), 3u);
  EXPECT_EQ(schedule.steps[0].stimulus, 2u);
  EXPECT_EQ(schedule.steps[1].stimulus, 3u);
  EXPECT_EQ(schedule.steps[2].stimulus, 1u);  // gain 2 beats stim0's gain 1
  EXPECT_TRUE(schedule.complete());
  EXPECT_EQ(schedule.covered_faults, 4u);
  EXPECT_EQ(schedule.scheduled_frames, 30u);
  EXPECT_EQ(schedule.all_stimuli_frames, 40u);
  // Cumulative curve is monotone in both axes.
  for (size_t i = 1; i < schedule.steps.size(); ++i) {
    EXPECT_GT(schedule.steps[i].cumulative_detected, schedule.steps[i - 1].cumulative_detected);
    EXPECT_GT(schedule.steps[i].cumulative_frames, schedule.steps[i - 1].cumulative_frames);
  }
}

TEST(Minimize, ShadowedAndZeroDetectionStimuliNeverScheduled) {
  // Equal costs, so stim0's gain of 3 is picked first; stim1 detects
  // nothing and stim2's set is then fully shadowed by stim0.
  FaultDictionary dict = synthetic_dict(3, {{0, 1, 2}, {}, {1}}, {1, 1, 1});
  const TestSchedule schedule = minimize_schedule(dict);
  ASSERT_EQ(schedule.steps.size(), 1u);
  EXPECT_EQ(schedule.steps[0].stimulus, 0u);
  EXPECT_TRUE(schedule.complete());
  EXPECT_EQ(schedule.detectable_faults, 3u);
}

TEST(Minimize, DeterministicOnRealCampaignData) {
  auto net = make_net();
  const auto faults = sampled_universe(net);
  FaultDictionary dict = make_dictionary(net, faults);
  IncrementalConfig config;
  config.engine.num_threads = 2;
  for (uint64_t seed : {5, 6, 7, 8}) {
    config.stimulus_name = std::to_string(seed);
    config.stimulus_name.insert(0, 1, 's');
    run_incremental_campaign(net, busy_input(20, 8, seed), faults, dict, config);
  }
  const TestSchedule a = minimize_schedule(dict);
  const TestSchedule b = minimize_schedule(dict);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].stimulus, b.steps[i].stimulus);
    EXPECT_EQ(a.steps[i].new_faults, b.steps[i].new_faults);
    EXPECT_EQ(a.steps[i].cumulative_frames, b.steps[i].cumulative_frames);
  }
  EXPECT_TRUE(a.complete());
  EXPECT_EQ(a.coverage_of_detectable(), 1.0);
  EXPECT_LE(a.scheduled_frames, a.all_stimuli_frames);
  for (const auto& step : a.steps) EXPECT_GT(step.new_faults, 0u);
}

TEST(Minimize, ScheduleAsDictionaryIsOrderedAndSelfContained) {
  FaultDictionary dict = synthetic_dict(4, {{0}, {0, 1}, {2}, {3}}, {10, 20, 5, 5});
  for (size_t s = 0; s < dict.num_stimuli(); ++s) {
    const_cast<StimulusEntry&>(dict.stimulus(s)).data = busy_input(8, 4, s);
  }
  const TestSchedule schedule = minimize_schedule(dict);
  const FaultDictionary sub = schedule_as_dictionary(dict, schedule);
  EXPECT_TRUE(sub.schedule_ordered);
  EXPECT_TRUE(sub.compatible_with(dict));
  ASSERT_EQ(sub.num_stimuli(), schedule.steps.size());
  for (size_t i = 0; i < schedule.steps.size(); ++i) {
    // File order IS execution order, stimuli keep their embedded data.
    EXPECT_EQ(sub.stimulus(i).fingerprint, dict.stimulus(schedule.steps[i].stimulus).fingerprint);
    EXPECT_TRUE(sub.stimulus(i).has_data());
  }
  // The sub-dictionary alone still certifies the same detectable coverage.
  EXPECT_EQ(sub.detectable_count(), schedule.covered_faults);
  // And it survives a disk round trip with the flag intact.
  const std::string path = temp_path("dict_schedule.snfd");
  sub.save(path);
  auto loaded = FaultDictionary::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->schedule_ordered);
  expect_dicts_equal(sub, *loaded);
  std::remove(path.c_str());
}

// --- first_detection_frame semantics ---------------------------------------

TEST(FirstDetectionFrame, FrameIffDetectedAndWithinStimulus) {
  auto net = make_net();
  const auto input = busy_input();
  const auto faults = sampled_universe(net);
  campaign::EngineConfig engine;
  engine.num_threads = 2;
  const auto full = campaign::run_campaign(net, input, faults, engine);
  const auto T = static_cast<int64_t>(input.shape().dim(0));
  size_t detected = 0;
  for (const auto& r : full.results) {
    if (r.detected) {
      ++detected;
      EXPECT_GE(r.first_detection_frame, 0);
      EXPECT_LT(r.first_detection_frame, T);
    } else {
      EXPECT_EQ(r.first_detection_frame, -1);
    }
  }
  ASSERT_GT(detected, 0u) << "test needs at least one detected fault to be meaningful";

  // The detect-only path accumulates the same per-frame L1 mass, so it must
  // agree on the crossing frame (and on detected) for every fault.
  engine.detect_only = true;
  const auto fast = campaign::run_campaign(net, input, faults, engine);
  for (size_t j = 0; j < faults.size(); ++j) {
    EXPECT_EQ(full.results[j].detected, fast.results[j].detected) << j;
    EXPECT_EQ(full.results[j].first_detection_frame, fast.results[j].first_detection_frame) << j;
  }
}

// --- shard-merge fuzz ------------------------------------------------------
//
// The orchestrator's merge step consumes shard files written by worker
// processes that may have been SIGKILLed mid-write or corrupted on disk.
// The fuzz drives randomized overlapping / truncated / bit-flipped shard
// files through load+merge and pins the failure contract: loads either fail
// cleanly (nullopt) or account every written record as loaded XOR skipped,
// merges never crash, and no damaged or conflicting record is ever
// silently accepted into the merged matrix.

/// A shard dictionary holding records for faults [begin, end) of a shared
/// synthetic universe. The result of pair (0, f) is a fixed function of f,
/// so any two honest shards agree on every overlapping pair.
FaultDictionary synthetic_shard(size_t num_faults, size_t begin, size_t end, bool conflicting) {
  FaultDictionary shard(test_support::synthetic_faults(num_faults));
  shard.model_fingerprint = 0xABCD;
  shard.add_stimulus(make_entry("stim0", 777, 20));
  for (size_t f = begin; f < end; ++f) {
    const bool hit = f % 3 == 0;
    const double l1 = conflicting ? 99.0 : (hit ? 2.0 + static_cast<double>(f) : 0.0);
    shard.record(0, f, make_result(hit, l1, hit ? static_cast<int64_t>(f % 7) : -1));
  }
  return shard;
}

TEST(ShardMergeFuzz, DamagedShardFilesFailSoftAndAccountExactly) {
  util::Rng rng(20260809);
  const size_t num_faults = 24;
  size_t loads_failed = 0, records_skipped_total = 0;
  for (size_t trial = 0; trial < 60; ++trial) {
    FaultDictionary merged(test_support::synthetic_faults(num_faults));
    merged.model_fingerprint = 0xABCD;

    for (size_t k = 0; k < 3; ++k) {
      // Random, deliberately overlapping range of the shared universe.
      const size_t begin = static_cast<size_t>(rng.uniform_index(num_faults));
      const size_t end =
          begin + 1 + static_cast<size_t>(rng.uniform_index(num_faults - begin));
      const FaultDictionary shard = synthetic_shard(num_faults, begin, end, false);
      const size_t written = shard.num_records();
      const std::string path = temp_path("fuzz_shard.snfd");
      shard.save(path);

      // Byte offset where the per-record region begins (just past the u64
      // record count). Everything before it — magic, header, stimulus
      // table, fault universe, count — is the file's identity; damage there may lose the
      // whole file or the count, so the exact per-record accounting
      // contract only binds for damage at or past this offset.
      const size_t records_at = synthetic_shard(num_faults, begin, begin, false).serialize().size();

      // Mutation: 0 = pristine, 1 = truncated tail (the kill-mid-write
      // artifact), 2 = one flipped byte anywhere in the file.
      std::string bytes = slurp(path);
      const uint64_t mutation = rng.uniform_index(3);
      size_t damage_at = bytes.size();  // pristine: "damaged" past the end
      if (mutation == 1) {
        damage_at = static_cast<size_t>(rng.uniform_index(bytes.size()));
        bytes.resize(damage_at);
        spit(path, bytes);
      } else if (mutation == 2) {
        damage_at = static_cast<size_t>(rng.uniform_index(bytes.size()));
        bytes[damage_at] = static_cast<char>(bytes[damage_at] ^ (1 << rng.uniform_index(8)));
        spit(path, bytes);
      }

      FaultDictionary::LoadStats stats;
      const auto loaded = FaultDictionary::load(path, &stats);
      std::remove(path.c_str());
      if (!loaded) {
        ++loads_failed;  // mangled magic/header/table/universe: clean refusal
        continue;
      }
      if (damage_at >= records_at) {
        // Exact accounting: every record the shard wrote is either loaded
        // or counted skipped — nothing vanishes without a trace.
        EXPECT_EQ(stats.records_loaded + stats.records_skipped, written)
            << "trial " << trial << " shard " << k << " mutation " << mutation;
      }
      EXPECT_EQ(loaded->num_records(), stats.records_loaded);
      records_skipped_total += stats.records_skipped;

      ASSERT_TRUE(loaded->compatible_with(merged));
      const auto merge_stats = merged.merge(*loaded);
      // Honest shards agree on every overlapping pair, and a CRC-guarded
      // load admits no damaged record — so a conflict here would mean the
      // fuzz smuggled a corrupted result past the checksum.
      EXPECT_EQ(merge_stats.conflicts_skipped, 0u)
          << "trial " << trial << " shard " << k << " mutation " << mutation;
    }

    // Every surviving record must hold exactly the value its writer
    // recorded (no silent acceptance of mutated payloads).
    for (size_t f = 0; f < num_faults; ++f) {
      if (!merged.has(0, f)) continue;
      const bool hit = f % 3 == 0;
      const auto expected =
          make_result(hit, hit ? 2.0 + static_cast<double>(f) : 0.0,
                      hit ? static_cast<int64_t>(f % 7) : -1);
      EXPECT_TRUE(results_identical(*merged.lookup(0, f), expected)) << "fault " << f;
    }
  }
  // The mutation mix must actually exercise both failure paths: whole-file
  // refusals (header damage) and per-record skips (record damage).
  EXPECT_GT(loads_failed, 0u);
  EXPECT_GT(records_skipped_total, 0u);
}

TEST(ShardMergeFuzz, ConflictingShardIsSurfacedPerOverlappingPair) {
  const size_t num_faults = 12;
  FaultDictionary merged = synthetic_shard(num_faults, 0, 8, false);
  // A dishonest shard disagreeing on every overlapping pair (it reports
  // l1 = 99.0 everywhere): each of the 4 overlap pairs must be counted as
  // a conflict, kept-first, and never silently absorbed.
  const FaultDictionary liar = synthetic_shard(num_faults, 4, 12, true);
  const auto stats = merged.merge(liar);
  EXPECT_EQ(stats.conflicts_skipped, 4u);  // faults 4..7, the overlap
  EXPECT_EQ(stats.records_added, 4u);      // faults 8..11, the non-overlapping tail
  for (size_t f = 0; f < 8; ++f) {
    const bool hit = f % 3 == 0;
    EXPECT_EQ(merged.lookup(0, f)->output_l1, hit ? 2.0 + static_cast<double>(f) : 0.0)
        << "conflict did not keep the existing record for fault " << f;
  }
}

TEST(ShardMergeFuzz, SaveAtomicNeverExposesATornFile) {
  // save commits by rename: after any number of overwrites the file
  // on disk is always one complete, loadable dictionary with the newest
  // contents (the shard worker's partial-snapshot protocol relies on this).
  const std::string path = temp_path("atomic_roundtrip.snfd");
  for (size_t n = 1; n <= 5; ++n) {
    const FaultDictionary shard = synthetic_shard(20, 0, 4 * n, false);
    shard.save(path);
    FaultDictionary::LoadStats stats;
    const auto loaded = FaultDictionary::load(path, &stats);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(stats.records_skipped, 0u);
    EXPECT_EQ(loaded->num_records(), 4 * n);
    expect_dicts_equal(shard, *loaded);
  }
  std::remove(path.c_str());
}

TEST(ShardMergeFuzz, SerializeMatchesSavedFileBytes) {
  const FaultDictionary shard = synthetic_shard(16, 2, 14, false);
  const std::string path = temp_path("serialize_bytes.snfd");
  shard.save(path);
  EXPECT_EQ(shard.serialize(), slurp(path));
  std::remove(path.c_str());
}

// --- minimized-schedule replay ----------------------------------------------

TEST(Replay, ScheduleReplayAccumulatesCoverageWithMonotoneShrinkingWork) {
  auto net = make_net();
  const auto faults = sampled_universe(net);
  campaign::EngineConfig engine;
  engine.num_threads = 2;

  // Build a recorded dictionary over four stimuli (with embedded data),
  // minimize it, and export the schedule-ordered sub-dictionary.
  FaultDictionary dict = make_dictionary(net, faults);
  IncrementalConfig config;
  config.engine = engine;
  for (uint64_t seed : {5, 6, 7, 8}) {
    config.stimulus_name = "s" + std::to_string(seed);
    run_incremental_campaign(net, busy_input(20, 8, seed), faults, dict, config);
  }
  const TestSchedule schedule = minimize_schedule(dict);
  ASSERT_GE(schedule.steps.size(), 2u) << "test needs a multi-step schedule to be meaningful";
  const FaultDictionary sub = schedule_as_dictionary(dict, schedule);
  // The schedule carries the universe it was built over.
  ASSERT_EQ(sub.num_faults(), faults.size());
  for (size_t j = 0; j < faults.size(); ++j) {
    EXPECT_EQ(sub.faults()[j].to_string(), faults[j].to_string()) << j;
  }

  ScheduleReplayConfig replay_config;
  replay_config.engine = engine;
  const ScheduleReplayResult replay = replay_schedule(net, sub, faults, replay_config);

  // The replay certifies exactly the coverage the minimizer promised.
  EXPECT_EQ(replay.total_detected, schedule.covered_faults);
  EXPECT_EQ(replay.total_frames, schedule.scheduled_frames);
  ASSERT_EQ(replay.steps.size(), schedule.steps.size());
  size_t prev_cumulative = 0;
  for (size_t i = 0; i < replay.steps.size(); ++i) {
    const auto& step = replay.steps[i];
    EXPECT_EQ(step.stimulus, i);  // schedule dictionaries replay in file order
    EXPECT_EQ(step.newly_detected, schedule.steps[i].new_faults) << i;
    EXPECT_EQ(step.cumulative_detected, schedule.steps[i].cumulative_detected) << i;
    EXPECT_EQ(step.cumulative_frames, schedule.steps[i].cumulative_frames) << i;
    // The minimum-time shortcut: each step drops exactly the faults all
    // earlier steps detected, so simulated work shrinks as coverage grows.
    EXPECT_EQ(step.faults_dropped, prev_cumulative) << i;
    EXPECT_EQ(step.faults_simulated, faults.size() - prev_cumulative) << i;
    prev_cumulative = step.cumulative_detected;
  }
  // The detected mask matches the dictionary's ground truth.
  const std::vector<char> truth = sub.detectable_mask();
  ASSERT_EQ(replay.detected.size(), truth.size());
  for (size_t j = 0; j < truth.size(); ++j) {
    EXPECT_EQ(replay.detected[j] != 0, truth[j] != 0) << j;
  }

  // The frontier engine composes with replay: identical coverage decisions.
  replay_config.engine.frontier = true;
  const ScheduleReplayResult frontier = replay_schedule(net, sub, faults, replay_config);
  EXPECT_EQ(frontier.total_detected, replay.total_detected);
  ASSERT_EQ(frontier.detected.size(), replay.detected.size());
  for (size_t j = 0; j < replay.detected.size(); ++j) {
    EXPECT_EQ(frontier.detected[j], replay.detected[j]) << j;
  }
}

TEST(Replay, MismatchedOrDataFreeScheduleThrows) {
  auto net = make_net();
  const auto faults = sampled_universe(net, 20);
  FaultDictionary dict = make_dictionary(net, faults);
  IncrementalConfig config;
  config.engine.num_threads = 1;
  run_incremental_campaign(net, busy_input(), faults, dict, config);

  // Detection settings differ from the schedule dictionary's.
  ScheduleReplayConfig replay_config;
  replay_config.engine.num_threads = 1;
  replay_config.engine.detection_threshold = 2.0;
  EXPECT_THROW(replay_schedule(net, dict, faults, replay_config), std::invalid_argument);

  // A stimulus without embedded data cannot be replayed.
  replay_config.engine.detection_threshold = 0.0;
  const_cast<StimulusEntry&>(dict.stimulus(0)).data = tensor::Tensor();
  EXPECT_THROW(replay_schedule(net, dict, faults, replay_config), std::invalid_argument);
}

}  // namespace
}  // namespace snntest::coverage
