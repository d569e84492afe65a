// Sharded multi-process orchestration tests: deterministic shard planning,
// the job files (model.snnt + job.snfd) round trip, merged-vs-unsharded
// byte identity across shard counts, crash-injection recovery (a SIGKILLed
// worker's retry resumes from its partial snapshot and the merged result is
// unchanged), watchdog kills of hung workers, retry exhaustion,
// resume-from-committed-shards, reruns in a reused work dir with another
// shard count or stimulus, and the on-disk progress read behind
// `coverage_tool status`.
//
// The suite provides its own main(): when re-exec'd with
// `run-shard-worker` as argv[1] the binary becomes a shard worker process,
// so the crash/hang drills spawn REAL processes (fork+exec of this very
// binary) with no dependence on any other build artifact's path.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/fingerprint.hpp"
#include "campaign/orchestrator.hpp"
#include "campaign/shard.hpp"
#include "campaign/shard_worker.hpp"
#include "coverage/incremental.hpp"
#include "fault/registry.hpp"
#include "obs/metrics.hpp"
#include "snn/dense_layer.hpp"
#include "snn/serialization.hpp"
#include "snn/spike_train.hpp"
#include "util/rng.hpp"
#include "util/subprocess.hpp"

namespace snntest::campaign {
namespace {

snn::Network make_net(uint64_t seed = 11) {
  util::Rng rng(seed);
  snn::LifParams lif;
  snn::Network net("orchestrator-test");
  auto l1 = std::make_unique<snn::DenseLayer>(8, 12, lif);
  l1->init_weights(rng, 1.3f);
  net.add_layer(std::move(l1));
  auto l2 = std::make_unique<snn::DenseLayer>(12, 4, lif);
  l2->init_weights(rng, 1.3f);
  net.add_layer(std::move(l2));
  return net;
}

tensor::Tensor busy_input(size_t T = 16, size_t n = 8, uint64_t seed = 5) {
  util::Rng rng(seed);
  return snn::random_spike_train(T, n, 0.5, rng);
}

std::vector<fault::FaultDescriptor> sampled_universe(snn::Network& net, size_t k = 40,
                                                     uint64_t seed = 17) {
  auto universe = fault::enumerate_faults(net);
  util::Rng rng(seed);
  return fault::sample_faults(universe, k, rng);
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// A dictionary entry for `stimulus`, spike train embedded.
coverage::StimulusEntry entry_for(const tensor::Tensor& stimulus, const std::string& name) {
  return {name, coverage::stimulus_fingerprint(stimulus), stimulus.shape().dim(0), stimulus};
}

/// The job of a sharded campaign: a record-less dictionary for `net` over
/// `num_faults` sampled faults, holding one embedded stimulus.
coverage::FaultDictionary make_job(snn::Network& net, size_t num_faults = 40,
                                   const tensor::Tensor& stimulus = busy_input()) {
  coverage::FaultDictionary job =
      coverage::make_dictionary(net, sampled_universe(net, num_faults));
  job.add_stimulus(entry_for(stimulus, "stim0"));
  return job;
}

/// The single-process ground truth: one incremental campaign into a fresh
/// dictionary, serialized.
std::string unsharded_bytes(const snn::Network& net, const coverage::FaultDictionary& job) {
  coverage::FaultDictionary dict =
      coverage::make_dictionary(net, job.faults(), job.detection_threshold, job.detect_only);
  coverage::IncrementalConfig config;
  config.engine.num_threads = 1;
  config.stimulus_name = job.stimulus(0).name;
  const auto out =
      coverage::run_incremental_campaign(net, job.stimulus(0).data, job.faults(), dict, config);
  EXPECT_TRUE(out.campaign.completed);
  return dict.serialize();
}

/// This test binary's worker argv for one launch, on one engine thread.
std::vector<std::string> worker_argv(const ShardLaunch& launch) {
  return {util::current_executable_path(),
          "run-shard-worker",
          "--work-dir",
          launch.work_dir,
          "--shard",
          std::to_string(launch.shard_index),
          "--num-shards",
          std::to_string(launch.num_shards),
          "--flush-every",
          std::to_string(launch.flush_every),
          "--threads",
          "1"};
}

/// Worker argv builder re-execing this test binary. crash_first/hang_first
/// sabotage ONLY each shard's first attempt, so retries run clean.
OrchestratorConfig test_config(const std::string& work_dir, size_t num_shards,
                               size_t crash_first = 0, size_t hang_first = 0) {
  OrchestratorConfig config;
  config.work_dir = work_dir;
  config.num_shards = num_shards;
  config.flush_every = 1;  // commit every record: a kill loses nothing committed
  config.heartbeat_timeout_seconds = 2.0;
  config.worker_command = [crash_first, hang_first](const ShardLaunch& launch) {
    std::vector<std::string> cmd = worker_argv(launch);
    if (launch.attempt == 0 && crash_first > 0) {
      cmd.push_back("--crash-after");
      cmd.push_back(std::to_string(crash_first));
    }
    if (launch.attempt == 0 && hang_first > 0) {
      cmd.push_back("--hang-after");
      cmd.push_back(std::to_string(hang_first));
    }
    return cmd;
  };
  return config;
}

TEST(PlanShards, PartitionsExactlyAndEvenly) {
  for (size_t faults : {0u, 1u, 7u, 40u, 41u, 100u}) {
    for (size_t shards : {1u, 2u, 3u, 4u, 7u}) {
      const auto plan = plan_shards(faults, shards);
      ASSERT_EQ(plan.size(), shards);
      size_t covered = 0, min_size = faults + 1, max_size = 0;
      for (size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(plan[i].begin, covered) << "shard " << i << " not contiguous";
        EXPECT_LE(plan[i].begin, plan[i].end);
        covered = plan[i].end;
        min_size = std::min(min_size, plan[i].size());
        max_size = std::max(max_size, plan[i].size());
      }
      EXPECT_EQ(covered, faults) << faults << " faults over " << shards << " shards";
      EXPECT_LE(max_size - min_size, 1u) << "unbalanced plan";
    }
  }
}

TEST(PlanShards, MoreShardsThanFaultsYieldsEmptyTails) {
  const auto plan = plan_shards(2, 4);
  EXPECT_EQ(plan[0].size(), 1u);
  EXPECT_EQ(plan[1].size(), 1u);
  EXPECT_EQ(plan[2].size(), 0u);
  EXPECT_EQ(plan[3].size(), 0u);
}

TEST(PlanShards, ZeroShardsTreatedAsOne) {
  const auto plan = plan_shards(5, 0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].size(), 5u);
}

/// Write `job`'s files into `work_dir` the way a campaign does, through a
/// run whose only worker exits at once (an unknown flag).
void write_job_files(const snn::Network& net, const coverage::FaultDictionary& job,
                     const std::string& work_dir) {
  OrchestratorConfig config = test_config(work_dir, 1);
  config.max_retries = 0;
  config.worker_command = [](const ShardLaunch&) {
    return std::vector<std::string>{util::current_executable_path(), "run-shard-worker",
                                    "--no-such-flag", "1"};
  };
  ASSERT_FALSE(run_sharded_campaign(net, job, config).completed);
}

TEST(ShardJobFile, RoundTripIsExact) {
  // The job travels as model.snnt + job.snfd: a worker reads back the same
  // network, fault universe, detection settings and stimulus.
  auto net = make_net();
  coverage::FaultDictionary job =
      coverage::make_dictionary(net, sampled_universe(net), /*detection_threshold=*/0.5,
                                /*detect_only=*/true);
  job.add_stimulus(entry_for(busy_input(), "stim0"));
  const std::string work_dir = fresh_dir("orch_job_files");
  write_job_files(net, job, work_dir);

  const JobPaths files = job_paths(work_dir);
  EXPECT_EQ(model_fingerprint(snn::load_network(files.model)), model_fingerprint(net));
  const auto loaded = coverage::FaultDictionary::load(files.dictionary);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->serialize(), job.serialize());
  ASSERT_EQ(loaded->num_faults(), job.num_faults());
  for (size_t j = 0; j < job.num_faults(); ++j) {
    EXPECT_EQ(loaded->faults()[j].to_string(), job.faults()[j].to_string()) << "fault " << j;
    EXPECT_EQ(loaded->faults()[j].magnitude, job.faults()[j].magnitude) << "fault " << j;
  }
  EXPECT_EQ(loaded->detection_threshold, 0.5);
  EXPECT_TRUE(loaded->detect_only);
  ASSERT_EQ(loaded->num_stimuli(), 1u);
  EXPECT_EQ(loaded->stimulus(0).name, "stim0");
  ASSERT_EQ(loaded->stimulus(0).data.numel(), job.stimulus(0).data.numel());
  for (size_t i = 0; i < job.stimulus(0).data.numel(); ++i) {
    EXPECT_EQ(loaded->stimulus(0).data[i], job.stimulus(0).data[i]);
  }
  EXPECT_EQ(loaded->num_records(), 0u);
}

TEST(ShardJobFile, MissingFileThrows) {
  // With no job in the work dir, status throws and a worker exits 3.
  const std::string work_dir = fresh_dir("orch_no_job");
  std::filesystem::create_directories(work_dir);
  EXPECT_THROW(read_shard_progress(work_dir), std::runtime_error);
  ShardWorkerOptions options;
  options.work_dir = work_dir;
  EXPECT_EQ(run_shard_worker(options), 3);
}

TEST(ShardJobFile, OutOfRangeFaultKindIsRejected) {
  // A raw kind the u8 enum would wrap or misread must fail the job's load,
  // not come back as some other fault.
  auto net = make_net();
  auto faults = sampled_universe(net, 4);
  faults[2].kind = static_cast<fault::FaultKind>(200);
  coverage::FaultDictionary job = coverage::make_dictionary(net, faults);
  job.add_stimulus(entry_for(busy_input(), "stim0"));
  const std::string work_dir = fresh_dir("orch_bad_kind");
  write_job_files(net, job, work_dir);
  EXPECT_FALSE(coverage::FaultDictionary::load(job_paths(work_dir).dictionary).has_value());
  EXPECT_THROW(read_shard_progress(work_dir), std::runtime_error);
  ShardWorkerOptions options;
  options.work_dir = work_dir;
  EXPECT_EQ(run_shard_worker(options), 3);
}

TEST(Orchestrator, RejectsUnusableConfig) {
  auto net = make_net();
  const coverage::FaultDictionary job = make_job(net, 8);
  OrchestratorConfig no_dir = test_config("", 2);
  EXPECT_THROW(run_sharded_campaign(net, job, no_dir), std::invalid_argument);
  OrchestratorConfig no_cmd;
  no_cmd.work_dir = fresh_dir("orch_nocmd");
  EXPECT_THROW(run_sharded_campaign(net, job, no_cmd), std::invalid_argument);
}

TEST(Orchestrator, RejectsAJobThatIsNotOneShardableCampaign) {
  auto net = make_net();
  const OrchestratorConfig config = test_config(fresh_dir("orch_badjob"), 2);
  const auto expect_rejected = [&](const snn::Network& n, const coverage::FaultDictionary& job,
                                   const char* problem) {
    try {
      run_sharded_campaign(n, job, config);
      ADD_FAILURE() << "accepted a job that " << problem;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(problem), std::string::npos) << e.what();
    }
  };
  const coverage::FaultDictionary job = make_job(net, 8);

  coverage::FaultDictionary two = job;
  two.add_stimulus(entry_for(busy_input(16, 8, 6), "stim1"));
  expect_rejected(net, two, "exactly one stimulus");
  expect_rejected(net, coverage::make_dictionary(net, job.faults()), "exactly one stimulus");

  coverage::FaultDictionary no_data = coverage::make_dictionary(net, job.faults());
  coverage::StimulusEntry entry = job.stimulus(0);
  entry.data = tensor::Tensor();
  no_data.add_stimulus(entry);
  expect_rejected(net, no_data, "no spike data");

  coverage::FaultDictionary recorded = job;
  recorded.record(0, 0, fault::DetectionResult{});
  expect_rejected(net, recorded, "no records");

  expect_rejected(make_net(12), job, "another model");
  EXPECT_FALSE(std::filesystem::exists(job_paths(config.work_dir).dictionary));
}

TEST(Orchestrator, ShardedMatchesUnshardedByteForByte) {
  auto net = make_net();
  const coverage::FaultDictionary job = make_job(net);
  const std::string reference = unsharded_bytes(net, job);
  for (size_t shards : {1u, 2u, 4u}) {
    const auto config =
        test_config(fresh_dir("orch_identity_" + std::to_string(shards)), shards);
    const auto run = run_sharded_campaign(net, job, config);
    ASSERT_TRUE(run.completed) << shards << " shards";
    EXPECT_EQ(run.total_attempts(), shards);
    EXPECT_EQ(run.merge_stats.conflicts_skipped, 0u);
    EXPECT_EQ(run.merged.num_records(), job.num_faults());
    EXPECT_EQ(run.merged.serialize(), reference)
        << shards << "-shard merge is not byte-identical to the unsharded dictionary";
  }
}

TEST(Orchestrator, KilledWorkerIsRetriedWithoutLosingCommittedPairs) {
  auto net = make_net();
  const coverage::FaultDictionary job = make_job(net);
  const std::string reference = unsharded_bytes(net, job);

  // Every shard's first attempt SIGKILLs itself after 5 fresh records; with
  // flush_every=1 at least 4 of those are committed to the partial snapshot.
  auto config = test_config(fresh_dir("orch_crash"), 2, /*crash_first=*/5);
  const auto run = run_sharded_campaign(net, job, config);
  ASSERT_TRUE(run.completed);

  uint64_t reused = 0;
  for (const auto& shard : run.shards) {
    EXPECT_EQ(shard.attempts, 2u) << "shard " << shard.shard_index;
    EXPECT_EQ(shard.failed_attempts, 1u) << "shard " << shard.shard_index;
    EXPECT_TRUE(shard.completed);
    reused += shard.stats.pairs_reused;
  }
  // The retries resumed from the snapshots instead of restarting: committed
  // pairs were served as lookups, not re-simulated.
  EXPECT_GT(reused, 0u);
  EXPECT_EQ(run.merged.serialize(), reference)
      << "crash recovery changed the merged dictionary bytes";
}

TEST(Orchestrator, HungWorkerIsKilledByWatchdogAndRetried) {
  auto net = make_net();
  const coverage::FaultDictionary job = make_job(net, 24);
  const std::string reference = unsharded_bytes(net, job);

  // First attempts stop making progress after 2 records; their partial
  // snapshots stop growing and the 2s watchdog must SIGKILL them.
  auto config = test_config(fresh_dir("orch_hang"), 2, 0, /*hang_first=*/2);
  const auto run = run_sharded_campaign(net, job, config);
  ASSERT_TRUE(run.completed);

  size_t hung = 0;
  for (const auto& shard : run.shards) {
    hung += shard.hung_kills;
    EXPECT_TRUE(shard.completed);
  }
  EXPECT_GT(hung, 0u) << "watchdog never fired";
  EXPECT_EQ(run.merged.serialize(), reference);
}

TEST(Orchestrator, RetryExhaustionReportsFailure) {
  auto net = make_net();
  const coverage::FaultDictionary job = make_job(net, 16);
  auto config = test_config(fresh_dir("orch_exhaust"), 2);
  config.max_retries = 1;
  // Sabotage EVERY attempt (not just the first): the shard can never finish.
  config.worker_command = [](const ShardLaunch& launch) {
    std::vector<std::string> cmd = worker_argv(launch);
    cmd.insert(cmd.end(), {"--crash-after", "1"});
    return cmd;
  };
  const auto run = run_sharded_campaign(net, job, config);
  EXPECT_FALSE(run.completed);
  bool some_exhausted = false;
  for (const auto& shard : run.shards) {
    some_exhausted |= !shard.completed && shard.attempts == config.max_retries + 1;
  }
  EXPECT_TRUE(some_exhausted);
}

TEST(Orchestrator, ResumeSkipsAlreadyCommittedShards) {
  auto net = make_net();
  const coverage::FaultDictionary job = make_job(net);
  const std::string reference = unsharded_bytes(net, job);
  const std::string work_dir = fresh_dir("orch_resume");

  const auto first = run_sharded_campaign(net, job, test_config(work_dir, 4));
  ASSERT_TRUE(first.completed);

  // Same work dir, same job: every shard's final file is already committed,
  // so the rerun must launch zero workers and still merge identically.
  const auto second = run_sharded_campaign(net, job, test_config(work_dir, 4));
  ASSERT_TRUE(second.completed);
  EXPECT_EQ(second.total_attempts(), 0u);
  for (const auto& shard : second.shards) {
    EXPECT_TRUE(shard.reused_existing) << "shard " << shard.shard_index;
  }
  EXPECT_EQ(second.merged.serialize(), reference);
}

TEST(Orchestrator, RerunWithFewerShardsRecomputesStaleRanges) {
  // A 3-shard run leaves shard files whose ranges differ from a 2-shard
  // plan's: none of them may count as committed for the rerun, and the
  // third shard's files must go, so status sees two shards.
  auto net = make_net();
  const coverage::FaultDictionary job = make_job(net);
  const std::string work_dir = fresh_dir("orch_reshard");
  ASSERT_TRUE(run_sharded_campaign(net, job, test_config(work_dir, 3)).completed);

  const auto rerun = run_sharded_campaign(net, job, test_config(work_dir, 2));
  ASSERT_TRUE(rerun.completed);
  EXPECT_EQ(rerun.total_attempts(), 2u);
  EXPECT_EQ(rerun.merged.num_records(), job.num_faults());
  EXPECT_EQ(rerun.merged.serialize(), unsharded_bytes(net, job));
  EXPECT_FALSE(std::filesystem::exists(shard_paths(work_dir, 2).final));
  EXPECT_FALSE(std::filesystem::exists(shard_paths(work_dir, 2).log));
  EXPECT_EQ(read_shard_progress(work_dir).size(), 2u);
}

TEST(Orchestrator, RerunWithAnotherStimulusIgnoresStaleShards) {
  // Shard files of another stimulus in the same work dir are results of a
  // different campaign: every shard reruns, and the merge holds only the
  // new stimulus.
  auto net = make_net();
  const std::string work_dir = fresh_dir("orch_restimulus");
  ASSERT_TRUE(run_sharded_campaign(net, make_job(net), test_config(work_dir, 2)).completed);

  // While the new campaign has not committed, status shows none of the
  // old files as its shards.
  const coverage::FaultDictionary job = make_job(net, 40, busy_input(16, 8, 6));
  OrchestratorConfig failing = test_config(work_dir, 2, /*crash_first=*/1);
  failing.max_retries = 0;
  ASSERT_FALSE(run_sharded_campaign(net, job, failing).completed);
  for (const ShardProgress& p : read_shard_progress(work_dir)) {
    EXPECT_EQ(p.state, ShardProgress::State::kNotStarted);
  }

  const auto rerun = run_sharded_campaign(net, job, test_config(work_dir, 2));
  ASSERT_TRUE(rerun.completed);
  EXPECT_EQ(rerun.total_attempts(), 2u);
  ASSERT_EQ(rerun.merged.num_stimuli(), 1u);
  EXPECT_EQ(rerun.merged.serialize(), unsharded_bytes(net, job));
}

TEST(Orchestrator, TelemetryOnIdentityUnderChaos) {
  auto net = make_net();
  const coverage::FaultDictionary job = make_job(net);
  const std::string reference = unsharded_bytes(net, job);

  // Telemetry ON in the supervisor and, through the inherited environment,
  // in every worker, plus first-attempt SIGKILL chaos on both shards.
  // Telemetry must not leak into the results: the merged dictionary stays
  // byte-identical to the single-process telemetry-off reference.
  const bool was_enabled = obs::telemetry_enabled();
  obs::set_telemetry_enabled(true);
  ::setenv("SNNTEST_TRACE", (testing::TempDir() + "orch_worker_trace.json").c_str(), 1);
  const auto run = run_sharded_campaign(
      net, job, test_config(fresh_dir("orch_telemetry"), 2, /*crash_first=*/5));
  ::unsetenv("SNNTEST_TRACE");
  obs::set_telemetry_enabled(was_enabled);

  ASSERT_TRUE(run.completed);
  for (const auto& shard : run.shards) {
    EXPECT_EQ(shard.attempts, 2u) << "shard " << shard.shard_index;
  }
  EXPECT_EQ(run.merged.serialize(), reference)
      << "telemetry changed the merged dictionary bytes";
}

TEST(Orchestrator, MoreShardsThanFaultsLaunchesOneWorkerPerFault) {
  auto net = make_net();
  const coverage::FaultDictionary job = make_job(net, 3);
  const std::string reference = unsharded_bytes(net, job);
  const auto run = run_sharded_campaign(net, job, test_config(fresh_dir("orch_clamp"), 6));
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.total_attempts(), 3u) << "workers were launched for empty shards";
  EXPECT_EQ(run.merged.serialize(), reference);
}

TEST(Orchestrator, FinishedCampaignIsInspectableFromItsWorkDir) {
  auto net = make_net();
  const coverage::FaultDictionary job = make_job(net);
  const std::string work_dir = fresh_dir("orch_postmortem");
  const auto run = run_sharded_campaign(net, job, test_config(work_dir, 2));
  ASSERT_TRUE(run.completed);

  // `coverage_tool status` goes through exactly this path: shard count from
  // the logs, ranges from job.snfd's fault count, state from the shard files.
  const auto progress = read_shard_progress(work_dir);
  ASSERT_EQ(progress.size(), 2u);
  size_t done = 0;
  for (const ShardProgress& p : progress) {
    EXPECT_EQ(p.state, ShardProgress::State::kCommitted);
    EXPECT_EQ(p.done, p.faults);
    done += p.done;
  }
  EXPECT_EQ(done, job.num_faults());
}

TEST(Orchestrator, InterruptedCampaignShowsPartialAndUnstartedShards) {
  auto net = make_net();
  const coverage::FaultDictionary job = make_job(net, 16);
  const std::string work_dir = fresh_dir("orch_interrupted");
  // The only attempt flushes one record; the second kills it before its
  // flush.
  auto config = test_config(work_dir, 1, /*crash_first=*/2);
  config.max_retries = 0;
  ASSERT_FALSE(run_sharded_campaign(net, job, config).completed);

  auto progress = read_shard_progress(work_dir);
  ASSERT_EQ(progress.size(), 1u);
  EXPECT_EQ(progress[0].state, ShardProgress::State::kPartial);
  EXPECT_EQ(progress[0].done, 1u);
  EXPECT_EQ(progress[0].faults, 16u);

  // A second log widens the plan to two shards; the new one has no files.
  std::ofstream(shard_paths(work_dir, 1).log).put('\n');
  progress = read_shard_progress(work_dir);
  ASSERT_EQ(progress.size(), 2u);
  EXPECT_EQ(progress[0].state, ShardProgress::State::kPartial);
  EXPECT_EQ(progress[0].faults, 8u);
  EXPECT_EQ(progress[1].state, ShardProgress::State::kNotStarted);
  EXPECT_EQ(progress[1].done, 0u);
}

TEST(Orchestrator, DefaultWorkerCommandCarriesTheFullContract) {
  ShardLaunch launch;
  launch.shard_index = 3;
  launch.num_shards = 8;
  launch.work_dir = "/w";
  launch.flush_every = 5;
  const auto cmd = default_worker_command(launch, "/bin/tool");
  const std::vector<std::string> expected = {"/bin/tool",    "run-shard", "--work-dir",
                                             "/w",           "--shard",   "3",
                                             "--num-shards", "8",         "--flush-every",
                                             "5"};
  EXPECT_EQ(cmd, expected);
}

}  // namespace
}  // namespace snntest::campaign

/// Custom main: `test_orchestrator run-shard-worker --work-dir ...` turns
/// this process into a shard worker (the orchestration tests spawn these);
/// anything else runs the gtest suite.
int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "run-shard-worker") {
    snntest::campaign::ShardWorkerOptions opts;
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--work-dir") {
        opts.work_dir = value;
      } else if (flag == "--threads") {
        opts.num_threads = std::stoul(value);
      } else if (flag == "--shard") {
        opts.shard_index = std::stoul(value);
      } else if (flag == "--num-shards") {
        opts.num_shards = std::stoul(value);
      } else if (flag == "--flush-every") {
        opts.flush_every = std::stoul(value);
      } else if (flag == "--crash-after") {
        opts.crash_after = std::stoul(value);
      } else if (flag == "--hang-after") {
        opts.hang_after = std::stoul(value);
      } else {
        std::fprintf(stderr, "run-shard-worker: unknown flag %s\n", flag.c_str());
        return 2;
      }
    }
    return snntest::campaign::run_shard_worker(opts);
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
