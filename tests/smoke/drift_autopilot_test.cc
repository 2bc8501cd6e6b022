// The §5.3 closing loop, live: a word_count whose workload drifts
// mid-run (sentences shrink from 10 words to 3 — the splitter's
// selectivity and cost collapse). The Job autopilot observes the
// drift from engine counters, re-optimizes with RLAS, and applies the
// migration to the running engine. The test asserts the adaptation
// happened AND that it was harmless: exact conservation across every
// edge and dense per-word count sequences at the sink (zero tuple
// loss or duplication, keyed state preserved).
//
// The throughput half of the acceptance gate — post-migration
// steady-state ≥ 1.2× the stale static plan — is hardware-sensitive,
// so it runs only when BRISK_DRIFT_GATE is set in the environment
// (see the `drift-gate` CI job).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/dsl.h"
#include "api/job.h"
#include "apps/word_count.h"
#include "common/logging.h"
#include "engine/observed_profiles.h"
#include "optimizer/dynamic.h"

namespace brisk {
namespace {

struct TapLog {
  std::mutex mu;
  std::vector<std::pair<std::string, int64_t>> entries;
};

constexpr int kLongWords = 10;
constexpr int kShortWords = 3;

/// apps::BuildDriftingWordCountDsl with a tap recording every
/// (word, count) pair the sink sees.
dsl::Pipeline MakeDriftingWc(std::shared_ptr<SinkTelemetry> telemetry,
                             std::shared_ptr<TapLog> log, uint64_t drift_at,
                             uint64_t total) {
  apps::DriftingWordCountParams params;
  params.drift_at = drift_at;
  params.total_per_replica = total;
  params.long_words = kLongWords;
  params.short_words = kShortWords;
  dsl::SinkFn tap;
  if (log) {
    tap = [log](const Tuple& in) {
      std::lock_guard<std::mutex> lock(log->mu);
      log->entries.emplace_back(std::string(in.GetString(0)), in.GetInt(1));
    };
  }
  return apps::BuildDriftingWordCountDsl(std::move(telemetry), params,
                                         std::move(tap));
}

/// A worker per core of DriftMachine. The autopilot re-plans under the
/// budget the pool runs, and the migrating tests need the headroom of
/// dedicated cores for a re-plan of this drift to pay; the default
/// budget of a 4-core host (2 per socket) is pinned separately by
/// AutopilotKeepsTheRunningPlanAtTwoWorkersPerSocket.
constexpr int kWorkerPerCore = 8;

engine::EngineConfig DriftConfig(double rate_tps,
                                 int workers_per_socket = kWorkerPerCore) {
  engine::EngineConfig config;  // Brisk defaults, worker pool
  config.workers_per_socket = workers_per_socket;
  config.spout_rate_tps = rate_tps;
  config.seed = 0x00d21f7;
  config.batch_size = 32;
  config.drain_timeout_s = 5.0;
  return config;
}

/// A machine with enough replica headroom that re-optimization can
/// actually restructure the plan (on a cores-starved spec RLAS
/// exhausts the replica budget and every workload gets the same
/// cramped plan).
hw::MachineSpec DriftMachine() {
  return hw::MachineSpec::Symmetric(2, 8, 2.0, 100, 300, 40, 12);
}

opt::RlasOptions DriftRlas() {
  opt::RlasOptions options;
  options.placement.compress_ratio = 2;
  return options;
}

/// Profiles the *pre-drift* workload with the engine's own observed
/// counters, so the planner baseline and the autopilot's runtime
/// observations share one measurement context (and one reference
/// clock) — exactly the self-consistent loop §5.3 describes.
model::ProfileSet CalibratePreDriftProfiles(
    int workers_per_socket = kWorkerPerCore) {
  auto telemetry = std::make_shared<SinkTelemetry>();
  auto deployment =
      Job::Of(MakeDriftingWc(telemetry, nullptr, /*drift_at=*/~0ULL,
                             /*total=*/0))
          .WithProfiles(apps::WordCountProfiles())  // seed plan: any
          .WithMachine(DriftMachine())
          .WithPlannerOptions(DriftRlas())
          .WithConfig(DriftConfig(/*rate_tps=*/20000, workers_per_socket))
          .WithTelemetry(telemetry)
          .Deploy();
  BRISK_CHECK(deployment.ok()) << deployment.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  engine::RunStats window = (*deployment)->runtime().SnapshotStats();
  const JobReport& report = (*deployment)->report();
  auto observed = engine::ObserveProfiles(*report.topology, report.plan,
                                          window, report.profiles);
  BRISK_CHECK(observed.ok()) << observed.status().ToString();
  (*deployment)->Stop();
  return std::move(observed).value();
}

TEST(DriftAutopilotTest, AutopilotMigratesOnDriftWithoutLosingTuples) {
  const model::ProfileSet planned = CalibratePreDriftProfiles();

  auto telemetry = std::make_shared<SinkTelemetry>();
  auto log = std::make_shared<TapLog>();
  constexpr uint64_t kDriftAt = 6000;
  constexpr uint64_t kTotal = 40000;
  opt::DynamicOptions dyn;
  dyn.drift_threshold = 0.2;
  dyn.min_gain = 0.01;
  dyn.rlas = DriftRlas();
  auto deployment =
      Job::Of(MakeDriftingWc(telemetry, log, kDriftAt, kTotal))
          .WithProfiles(planned)
          .WithMachine(DriftMachine())
          .WithPlannerOptions(DriftRlas())
          .WithConfig(DriftConfig(/*rate_tps=*/20000))
          .WithTelemetry(telemetry)
          .WithAutopilot(/*interval_s=*/0.15, dyn)
          .Deploy();
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();

  // Wait for the autopilot to notice the drift and migrate, then for
  // the bounded source to finish.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while ((*deployment)->migrations_applied() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  uint64_t last_count = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const uint64_t count = telemetry->count();
    if (count > 0 && count == last_count) break;  // plateaued: drained
    last_count = count;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const JobReport& report = (*deployment)->Stop();

  ASSERT_GE(report.migrations.size(), 1u) << report.ToString();
  EXPECT_TRUE(report.migrations[0].applied) << report.migrations[0].error;
  EXPECT_GE(report.migrations[0].drift, dyn.drift_threshold);
  EXPECT_GE(report.stats.migrations, 1);

  // Zero loss / zero duplication, across every migration the autopilot
  // performed: exact conservation per edge...
  const auto& ot = report.stats.op_totals;
  ASSERT_EQ(ot.size(), 5u);
  EXPECT_EQ(ot[1].tuples_in, ot[0].tuples_out);   // spout -> parser
  EXPECT_EQ(ot[1].tuples_out, ot[1].tuples_in);   // parser sel 1
  EXPECT_EQ(ot[2].tuples_in, ot[1].tuples_out);   // parser -> splitter
  EXPECT_EQ(ot[3].tuples_in, ot[2].tuples_out);   // splitter -> counter
  EXPECT_EQ(ot[3].tuples_out, ot[3].tuples_in);   // counter sel 1
  EXPECT_EQ(ot[4].tuples_in, ot[3].tuples_out);   // counter -> sink
  EXPECT_EQ(report.sink_tuples, ot[4].tuples_in);
  // ... and the closed-form expectation: exactly kDriftAt long
  // sentences exist in the whole feed (the phase counter is global),
  // so the word total is a pure function of how many sentences the
  // spout replicas produced — however many replicas the autopilot ran.
  const uint64_t sentences = ot[0].tuples_in;
  ASSERT_GE(sentences, kDriftAt);
  EXPECT_EQ(report.sink_tuples,
            kDriftAt * kLongWords + (sentences - kDriftAt) * kShortWords);
  // Dense per-word count multisets: every word's counts are exactly
  // {1..n} — a lost tuple leaves a gap, a duplicate repeats a count,
  // lost counter state restarts at 1. (RLAS typically replicates the
  // sink here, so arrival order interleaves across sink replicas;
  // strict per-key monotonicity is asserted in engine_migration_test,
  // which pins the sink to one replica.)
  std::map<std::string, std::vector<int64_t>> by_word;
  uint64_t total = 0;
  for (const auto& [word, count] : log->entries) {
    by_word[word].push_back(count);
    ++total;
  }
  for (auto& [word, counts] : by_word) {
    std::sort(counts.begin(), counts.end());
    for (size_t i = 0; i < counts.size(); ++i) {
      ASSERT_EQ(counts[i], static_cast<int64_t>(i) + 1)
          << "word '" << word << "'";
    }
  }
  EXPECT_EQ(total, report.sink_tuples);
}

// At two workers per socket (the pool's default on a 4-core host) the
// sockets pace every plan of this job: RLAS under that budget gives the
// drifted workload the plan it gave the old one, so the autopilot sees
// the drift, finds no re-plan worth its gain threshold and keeps
// running, without losing a tuple.
TEST(DriftAutopilotTest, AutopilotKeepsTheRunningPlanAtTwoWorkersPerSocket) {
  constexpr int kWorkers = 2;
  const model::ProfileSet planned = CalibratePreDriftProfiles(kWorkers);

  auto telemetry = std::make_shared<SinkTelemetry>();
  constexpr uint64_t kDriftAt = 6000;
  constexpr uint64_t kTotal = 40000;
  opt::DynamicOptions dyn;
  dyn.drift_threshold = 0.2;
  dyn.min_gain = 0.01;
  dyn.rlas = DriftRlas();
  auto deployment =
      Job::Of(MakeDriftingWc(telemetry, nullptr, kDriftAt, kTotal))
          .WithProfiles(planned)
          .WithMachine(DriftMachine())
          .WithPlannerOptions(DriftRlas())
          .WithConfig(DriftConfig(/*rate_tps=*/20000, kWorkers))
          .WithTelemetry(telemetry)
          .WithAutopilot(/*interval_s=*/0.15, dyn)
          .Deploy();
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();

  // The bounded source runs ~2 s at its rate: wait until it drained,
  // past at least as many short sentences as long ones.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  uint64_t last_count = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const uint64_t count = telemetry->count();
    if (count >= kDriftAt * (kLongWords + kShortWords) &&
        count == last_count) {
      break;
    }
    last_count = count;
  }
  const JobReport& report = (*deployment)->Stop();
  EXPECT_TRUE(report.migrations.empty()) << report.ToString();
  EXPECT_EQ(report.stats.migrations, 0);

  const auto& ot = report.stats.op_totals;
  ASSERT_EQ(ot.size(), 5u);
  EXPECT_EQ(ot[1].tuples_in, ot[0].tuples_out);
  EXPECT_EQ(ot[2].tuples_in, ot[1].tuples_out);
  EXPECT_EQ(ot[3].tuples_in, ot[2].tuples_out);
  EXPECT_EQ(ot[4].tuples_in, ot[3].tuples_out);
  EXPECT_EQ(report.sink_tuples, ot[4].tuples_in);
  const uint64_t sentences = ot[0].tuples_in;
  ASSERT_GE(sentences, kDriftAt);
  EXPECT_EQ(report.sink_tuples,
            kDriftAt * kLongWords + (sentences - kDriftAt) * kShortWords);

  // Why: the run's observed profiles drifted past the threshold, and
  // the plan RLAS makes for them under the same budget scores below
  // the gain threshold against the running plan.
  auto observed = engine::ObserveProfiles(*report.topology, report.plan,
                                          report.stats, report.profiles);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  dyn.rlas.workers_per_socket = kWorkers;
  const hw::MachineSpec machine = DriftMachine();
  const opt::DynamicReoptimizer reopt(&machine, dyn);
  auto decision = reopt.Check(*report.topology, report.plan, planned,
                              *observed);
  ASSERT_TRUE(decision.ok()) << decision.status().ToString();
  EXPECT_GE(decision->drift, dyn.drift_threshold);
  EXPECT_FALSE(decision->reoptimized)
      << "gain " << decision->expected_gain << "\n"
      << decision->new_plan.ToString();
}

/// The acceptance gate: with the drifted workload running from the
/// start on a plan optimized for the old workload, the autopilot's
/// migration must buy ≥ 1.2× steady-state sink throughput over
/// staying on the stale plan.
///
/// Gated behind BRISK_DRIFT_GATE because the margin is physical: the
/// re-optimized plan wins by giving the now-hot operators replicas on
/// more cores, so the host must have several real cores for the
/// modeled gain to materialize (on a 1-core CI box every plan
/// multiplexes one CPU and replication differences only add scheduling
/// overhead). Run it where the engine is meant to live.
TEST(DriftAutopilotTest, PostMigrationThroughputBeatsStalePlan) {
  if (std::getenv("BRISK_DRIFT_GATE") == nullptr) {
    GTEST_SKIP() << "set BRISK_DRIFT_GATE=1 to run the throughput gate "
                    "(needs a multi-core host)";
  }
  const model::ProfileSet stale = CalibratePreDriftProfiles();

  // Both runs: short sentences from the first tuple, saturated spout,
  // NUMA emulation on so placement quality is physical.
  auto config = DriftConfig(/*rate_tps=*/0);
  config.numa_emulation = true;

  auto measure = [&](bool autopilot) {
    auto telemetry = std::make_shared<SinkTelemetry>();
    Job job = Job::Of(MakeDriftingWc(telemetry, nullptr, /*drift_at=*/0,
                                     /*total=*/0))
                  .WithProfiles(stale)
                  .WithMachine(DriftMachine())
                  .WithPlannerOptions(DriftRlas())
                  .WithConfig(config)
                  .WithTelemetry(telemetry);
    opt::DynamicOptions dyn;
    dyn.drift_threshold = 0.2;
    dyn.min_gain = 0.01;
    dyn.rlas = DriftRlas();
    if (autopilot) job.WithAutopilot(0.2, dyn);
    auto deployment = job.Deploy();
    BRISK_CHECK(deployment.ok()) << deployment.status().ToString();
    if (autopilot) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while ((*deployment)->migrations_applied() < 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      EXPECT_GE((*deployment)->migrations_applied(), 1);
    } else {
      std::this_thread::sleep_for(std::chrono::seconds(2));
    }
    // Steady-state window.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const uint64_t t0_count = telemetry->count();
    const auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    const uint64_t t1_count = telemetry->count();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    (*deployment)->Stop();
    return static_cast<double>(t1_count - t0_count) / seconds;
  };

  const double stale_tps = measure(/*autopilot=*/false);
  const double adapted_tps = measure(/*autopilot=*/true);
  std::printf("drift gate: stale %.0f tuples/s, adapted %.0f tuples/s "
              "(%.2fx)\n",
              stale_tps, adapted_tps, adapted_tps / stale_tps);
  EXPECT_GE(adapted_tps, 1.2 * stale_tps)
      << "stale " << stale_tps << " tuples/s vs adapted " << adapted_tps;
}

}  // namespace
}  // namespace brisk
