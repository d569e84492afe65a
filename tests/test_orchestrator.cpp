// Sharded multi-process orchestration tests: deterministic shard planning,
// job-file round trip, merged-vs-unsharded byte identity across shard
// counts, crash-injection recovery (a SIGKILLed worker's retry resumes from
// its partial snapshot and the merged result is unchanged), watchdog kills
// of hung workers, retry exhaustion, resume-from-committed-shards, and the
// on-disk progress read behind `coverage_tool status`.
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

#include "campaign/orchestrator.hpp"
#include "campaign/shard.hpp"
#include "campaign/shard_worker.hpp"
#include "coverage/incremental.hpp"
#include "fault/registry.hpp"
#include "obs/metrics.hpp"
#include "snn/dense_layer.hpp"
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

ShardJob make_job(snn::Network& net, size_t num_faults = 40) {
  ShardJob job;
  job.net = net;
  job.stimulus = busy_input();
  job.faults = sampled_universe(net, num_faults);
  job.engine.num_threads = 1;
  job.stimulus_name = "stim0";
  return job;
}

/// The single-process ground truth: one incremental campaign into a fresh
/// dictionary, serialized.
std::string unsharded_bytes(const ShardJob& job) {
  coverage::FaultDictionary dict = coverage::make_dictionary(
      job.net, job.faults, job.engine.detection_threshold, job.engine.detect_only);
  coverage::IncrementalConfig config;
  config.engine = job.engine;
  config.stimulus_name = job.stimulus_name;
  config.store_stimulus_data = job.store_stimulus_data;
  snn::Network net(job.net);
  const auto out = coverage::run_incremental_campaign(net, job.stimulus, job.faults, dict, config);
  EXPECT_TRUE(out.campaign.completed);
  return dict.serialize();
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
    std::vector<std::string> cmd = {util::current_executable_path(),
                                    "run-shard-worker",
                                    "--job",
                                    launch.job_path,
                                    "--work-dir",
                                    launch.work_dir,
                                    "--shard",
                                    std::to_string(launch.shard_index),
                                    "--num-shards",
                                    std::to_string(launch.num_shards),
                                    "--flush-every",
                                    std::to_string(launch.flush_every)};
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

TEST(ShardJobFile, RoundTripIsExact) {
  auto net = make_net();
  ShardJob job = make_job(net);
  job.engine.lane_width = 4;
  job.engine.detection_threshold = 0.5;
  job.engine.detect_only = true;
  job.engine.kernel_mode = snn::KernelMode::kDense;
  job.store_stimulus_data = false;

  const std::string path = testing::TempDir() + "orchestrator_job.bin";
  save_job(job, path);
  const ShardJob loaded = load_job(path);

  EXPECT_EQ(loaded.stimulus_name, job.stimulus_name);
  EXPECT_EQ(loaded.store_stimulus_data, job.store_stimulus_data);
  ASSERT_EQ(loaded.stimulus.numel(), job.stimulus.numel());
  for (size_t i = 0; i < job.stimulus.numel(); ++i) {
    EXPECT_EQ(loaded.stimulus[i], job.stimulus[i]);
  }
  ASSERT_EQ(loaded.faults.size(), job.faults.size());
  for (size_t j = 0; j < job.faults.size(); ++j) {
    EXPECT_EQ(loaded.faults[j].to_string(), job.faults[j].to_string()) << "fault " << j;
    EXPECT_EQ(loaded.faults[j].magnitude, job.faults[j].magnitude) << "fault " << j;
  }
  EXPECT_EQ(loaded.engine.lane_width, job.engine.lane_width);
  EXPECT_EQ(loaded.engine.detection_threshold, job.engine.detection_threshold);
  EXPECT_EQ(loaded.engine.detect_only, job.engine.detect_only);
  EXPECT_EQ(loaded.engine.kernel_mode, job.engine.kernel_mode);
  // Identical campaign identity: same model + universe fingerprints.
  const auto a = coverage::make_dictionary(job.net, job.faults);
  const auto b = coverage::make_dictionary(loaded.net, loaded.faults);
  EXPECT_TRUE(a.compatible_with(b));
}

TEST(ShardJobFile, MissingFileThrows) {
  EXPECT_THROW(load_job(testing::TempDir() + "no_such_job.bin"), std::runtime_error);
}

TEST(ShardJobFile, OutOfRangeFaultKindIsRejected) {
  auto net = make_net();
  ShardJob job = make_job(net, 4);
  // A raw kind the u8 enum would wrap or misread must fail the load, not
  // come back as some other fault.
  job.faults[2].kind = static_cast<fault::FaultKind>(200);
  const std::string path = testing::TempDir() + "orchestrator_bad_kind.bin";
  save_job(job, path);
  try {
    load_job(path);
    FAIL() << "load_job accepted fault kind 200";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fault kind"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(Orchestrator, RejectsUnusableConfig) {
  auto net = make_net();
  const ShardJob job = make_job(net, 8);
  OrchestratorConfig no_dir = test_config("", 2);
  EXPECT_THROW(run_sharded_campaign(job, no_dir), std::invalid_argument);
  OrchestratorConfig no_cmd;
  no_cmd.work_dir = fresh_dir("orch_nocmd");
  EXPECT_THROW(run_sharded_campaign(job, no_cmd), std::invalid_argument);
}

TEST(Orchestrator, ShardedMatchesUnshardedByteForByte) {
  auto net = make_net();
  const ShardJob job = make_job(net);
  const std::string reference = unsharded_bytes(job);
  for (size_t shards : {1u, 2u, 4u}) {
    const auto config =
        test_config(fresh_dir("orch_identity_" + std::to_string(shards)), shards);
    const auto run = run_sharded_campaign(job, config);
    ASSERT_TRUE(run.completed) << shards << " shards";
    EXPECT_EQ(run.total_attempts(), shards);
    EXPECT_EQ(run.merge_stats.conflicts_skipped, 0u);
    EXPECT_EQ(run.merged.num_records(), job.faults.size());
    EXPECT_EQ(run.merged.serialize(), reference)
        << shards << "-shard merge is not byte-identical to the unsharded dictionary";
  }
}

TEST(Orchestrator, KilledWorkerIsRetriedWithoutLosingCommittedPairs) {
  auto net = make_net();
  const ShardJob job = make_job(net);
  const std::string reference = unsharded_bytes(job);

  // Every shard's first attempt SIGKILLs itself after 5 fresh records; with
  // flush_every=1 at least 4 of those are committed to the partial snapshot.
  auto config = test_config(fresh_dir("orch_crash"), 2, /*crash_first=*/5);
  const auto run = run_sharded_campaign(job, config);
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
  const ShardJob job = make_job(net, 24);
  const std::string reference = unsharded_bytes(job);

  // First attempts stop making progress after 2 records; their partial
  // snapshots stop growing and the 2s watchdog must SIGKILL them.
  auto config = test_config(fresh_dir("orch_hang"), 2, 0, /*hang_first=*/2);
  const auto run = run_sharded_campaign(job, config);
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
  const ShardJob job = make_job(net, 16);
  auto config = test_config(fresh_dir("orch_exhaust"), 2);
  config.max_retries = 1;
  // Sabotage EVERY attempt (not just the first): the shard can never finish.
  config.worker_command = [](const ShardLaunch& launch) {
    return std::vector<std::string>{util::current_executable_path(),
                                    "run-shard-worker",
                                    "--job",
                                    launch.job_path,
                                    "--work-dir",
                                    launch.work_dir,
                                    "--shard",
                                    std::to_string(launch.shard_index),
                                    "--num-shards",
                                    std::to_string(launch.num_shards),
                                    "--flush-every",
                                    "1",
                                    "--crash-after",
                                    "1"};
  };
  const auto run = run_sharded_campaign(job, config);
  EXPECT_FALSE(run.completed);
  bool some_exhausted = false;
  for (const auto& shard : run.shards) {
    some_exhausted |= !shard.completed && shard.attempts == config.max_retries + 1;
  }
  EXPECT_TRUE(some_exhausted);
}

TEST(Orchestrator, ResumeSkipsAlreadyCommittedShards) {
  auto net = make_net();
  const ShardJob job = make_job(net);
  const std::string reference = unsharded_bytes(job);
  const std::string work_dir = fresh_dir("orch_resume");

  const auto first = run_sharded_campaign(job, test_config(work_dir, 4));
  ASSERT_TRUE(first.completed);

  // Same work dir, same job: every shard's final file is already committed,
  // so the rerun must launch zero workers and still merge identically.
  const auto second = run_sharded_campaign(job, test_config(work_dir, 4));
  ASSERT_TRUE(second.completed);
  EXPECT_EQ(second.total_attempts(), 0u);
  for (const auto& shard : second.shards) {
    EXPECT_TRUE(shard.reused_existing) << "shard " << shard.shard_index;
  }
  EXPECT_EQ(second.merged.serialize(), reference);
}

TEST(Orchestrator, TelemetryOnIdentityUnderChaos) {
  auto net = make_net();
  const ShardJob job = make_job(net);
  const std::string reference = unsharded_bytes(job);

  // Telemetry ON in the supervisor and, through the inherited environment,
  // in every worker, plus first-attempt SIGKILL chaos on both shards.
  // Telemetry must not leak into the results: the merged dictionary stays
  // byte-identical to the single-process telemetry-off reference.
  const bool was_enabled = obs::telemetry_enabled();
  obs::set_telemetry_enabled(true);
  ::setenv("SNNTEST_TRACE", (testing::TempDir() + "orch_worker_trace.json").c_str(), 1);
  const auto run =
      run_sharded_campaign(job, test_config(fresh_dir("orch_telemetry"), 2, /*crash_first=*/5));
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
  const ShardJob job = make_job(net, 3);
  const std::string reference = unsharded_bytes(job);
  const auto run = run_sharded_campaign(job, test_config(fresh_dir("orch_clamp"), 6));
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.total_attempts(), 3u) << "workers were launched for empty shards";
  EXPECT_EQ(run.merged.serialize(), reference);
}

TEST(Orchestrator, FinishedCampaignIsInspectableFromItsWorkDir) {
  auto net = make_net();
  const ShardJob job = make_job(net);
  const std::string work_dir = fresh_dir("orch_postmortem");
  const auto run = run_sharded_campaign(job, test_config(work_dir, 2));
  ASSERT_TRUE(run.completed);

  // `coverage_tool status` goes through exactly this path: shard count from
  // the logs, ranges from job.bin, state from the shard files.
  const auto progress = read_shard_progress(work_dir);
  ASSERT_EQ(progress.size(), 2u);
  size_t done = 0;
  for (const ShardProgress& p : progress) {
    EXPECT_EQ(p.state, ShardProgress::State::kCommitted);
    EXPECT_EQ(p.done, p.faults);
    done += p.done;
  }
  EXPECT_EQ(done, job.faults.size());
}

TEST(Orchestrator, InterruptedCampaignShowsPartialAndUnstartedShards) {
  auto net = make_net();
  const ShardJob job = make_job(net, 16);
  const std::string work_dir = fresh_dir("orch_interrupted");
  // The only attempt flushes one record; the second kills it before its
  // flush.
  auto config = test_config(work_dir, 1, /*crash_first=*/2);
  config.max_retries = 0;
  ASSERT_FALSE(run_sharded_campaign(job, config).completed);

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
  launch.job_path = "/w/job.bin";
  launch.work_dir = "/w";
  launch.flush_every = 5;
  const auto cmd = default_worker_command(launch, "/bin/tool");
  const std::vector<std::string> expected = {"/bin/tool", "run-shard", "--job",     "/w/job.bin",
                                             "--work-dir", "/w",       "--shard",   "3",
                                             "--num-shards", "8",      "--flush-every", "5"};
  EXPECT_EQ(cmd, expected);
}

}  // namespace
}  // namespace snntest::campaign

/// Custom main: `test_orchestrator run-shard-worker --job ...` turns this
/// process into a shard worker (the orchestration tests spawn these);
/// anything else runs the gtest suite.
int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "run-shard-worker") {
    snntest::campaign::ShardWorkerOptions opts;
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--job") {
        opts.job_path = value;
      } else if (flag == "--work-dir") {
        opts.work_dir = value;
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
