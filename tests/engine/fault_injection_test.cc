// Deterministic fault injection (engine/fault.h) and its containment:
//   - a crash/throw escaping an operator becomes a recorded *task*
//     failure (operator name + replica in the message), never process
//     death, and the rest of the graph keeps streaming;
//   - an injected stall / wedged channel push is invisible to the
//     engine's own counters but caught by the supervisor's progress
//     probes — within the documented detection bound;
//   - a drain that outruns its budget is surfaced as
//     RunStats::drain_timed_out (and Job-level as
//     JobReport::drain_status) instead of being swallowed.
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/job.h"
#include "apps/word_count.h"
#include "common/logging.h"
#include "engine/fault.h"
#include "engine/runtime.h"
#include "engine/supervisor.h"
#include "model/execution_plan.h"
#include "sanitizer_pacing.h"

namespace brisk::engine {
namespace {

using apps::WordCountParams;
using model::ExecutionPlan;

// Operator ids in the WC DSL topology, in declaration order.
constexpr int kSpout = 0;
constexpr int kSplitter = 2;
constexpr int kCounter = 3;

struct Rig {
  std::shared_ptr<SinkTelemetry> telemetry;
  std::shared_ptr<const api::Topology> topo;
  std::unique_ptr<BriskRuntime> rt;
};

Rig MakeWcRig(std::vector<int> replication, EngineConfig config,
              WordCountParams params = {}) {
  Rig rig;
  rig.telemetry = std::make_shared<SinkTelemetry>();
  auto topo = apps::BuildWordCountDsl(rig.telemetry, params);
  BRISK_CHECK(topo.ok()) << topo.status().ToString();
  rig.topo = std::make_shared<const api::Topology>(std::move(topo).value());
  auto plan_or = ExecutionPlan::Create(rig.topo.get(), std::move(replication));
  BRISK_CHECK(plan_or.ok()) << plan_or.status().ToString();
  ExecutionPlan plan = std::move(plan_or).value();
  for (int i = 0; i < plan.num_instances(); ++i) plan.SetSocket(i, i % 2);
  auto rt = BriskRuntime::Create(rig.topo.get(), plan, config);
  BRISK_CHECK(rt.ok()) << rt.status().ToString();
  rig.rt = std::move(rt).value();
  return rig;
}

EngineConfig BaseConfig() {
  EngineConfig config;
  config.batch_size = 16;
  config.spout_rate_tps = SanitizerPacedRate(30000);
  config.seed = 11;
  config.drain_timeout_s = 0.3;  // faulty graphs never drain; stay fast
  return config;
}

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Polls ProbeHealth until some task reports failed (or deadline).
bool WaitForTaskFailure(BriskRuntime* rt, TaskHealth* out,
                        int deadline_ms = 5000) {
  for (int waited = 0; waited < deadline_ms; waited += 10) {
    HealthReport health = rt->ProbeHealth();
    for (const TaskHealth& t : health.tasks) {
      if (t.failed) {
        *out = t;
        return true;
      }
    }
    SleepMs(10);
  }
  return false;
}

TEST(FaultInjectionTest, CrashIsContainedAsTaskFailure) {
  EngineConfig config = BaseConfig();
  config.faults.Crash(kCounter, /*replica=*/1, /*after_tuples=*/500);
  Rig rig = MakeWcRig({1, 1, 1, 2, 1}, config);
  ASSERT_TRUE(rig.rt->Start().ok());

  TaskHealth failed;
  ASSERT_TRUE(WaitForTaskFailure(rig.rt.get(), &failed));
  // Containment records *where* it happened...
  EXPECT_EQ(failed.op, kCounter);
  EXPECT_EQ(failed.replica, 1);
  EXPECT_EQ(failed.op_name, "counter");
  EXPECT_NE(failed.failure_message.find("counter"), std::string::npos);
  EXPECT_NE(failed.failure_message.find("replica 1"), std::string::npos);
  EXPECT_NE(failed.failure_message.find("injected crash"), std::string::npos);
  EXPECT_GE(failed.tuples_in, 500u);

  // ...contained: the process and the engine survive (back-pressure
  // eventually parks the producers behind the dead replica — that is
  // flow control, not loss), no other task is failed, and the input
  // the dead replica stops consuming shows up as backlog — the signal
  // the supervisor's watchdog keys on.
  SleepMs(200);
  HealthReport health = rig.rt->ProbeHealth();
  EXPECT_TRUE(health.running);
  EXPECT_FALSE(health.dead);
  for (const TaskHealth& t : health.tasks) {
    if (t.op == kCounter && t.replica == 1) {
      EXPECT_GT(t.backlog + t.pending_live, 0u);
    } else {
      EXPECT_FALSE(t.failed) << t.op_name;
    }
  }

  RunStats stats = rig.rt->Stop();
  EXPECT_GT(stats.op_totals[4].tuples_in, 0u);
  EXPECT_GT(rig.telemetry->count(), 0u);
}

TEST(FaultInjectionTest, ThrowRecordsOperatorAndReplica) {
  EngineConfig config = BaseConfig();
  config.faults.Throw(kSplitter, /*replica=*/0, /*after_tuples=*/200);
  Rig rig = MakeWcRig({1, 1, 1, 1, 1}, config);
  ASSERT_TRUE(rig.rt->Start().ok());

  TaskHealth failed;
  ASSERT_TRUE(WaitForTaskFailure(rig.rt.get(), &failed));
  EXPECT_EQ(failed.op, kSplitter);
  EXPECT_EQ(failed.replica, 0);
  EXPECT_NE(failed.failure_message.find("operator 'splitter'"),
            std::string::npos);
  EXPECT_NE(failed.failure_message.find("replica 0"), std::string::npos);
  EXPECT_NE(failed.failure_message.find("injected throw"), std::string::npos);
  (void)rig.rt->Stop();
}

// The same spec targets the same replica on every run: fault points are
// expressed in operator progress counters, not wall-clock.
TEST(FaultInjectionTest, FaultTargetingIsDeterministic) {
  for (int run = 0; run < 2; ++run) {
    EngineConfig config = BaseConfig();
    config.faults.Crash(kCounter, /*replica=*/0, /*after_tuples=*/1000);
    Rig rig = MakeWcRig({1, 1, 1, 2, 1}, config);
    ASSERT_TRUE(rig.rt->Start().ok());
    TaskHealth failed;
    ASSERT_TRUE(WaitForTaskFailure(rig.rt.get(), &failed));
    EXPECT_EQ(failed.op, kCounter) << "run " << run;
    EXPECT_EQ(failed.replica, 0) << "run " << run;
    EXPECT_GE(failed.tuples_in, 1000u) << "run " << run;
    (void)rig.rt->Stop();
  }
}

/// Waits until the supervisor has detected >= `n` failures; returns the
/// wall seconds it took.
double WaitForDetections(const Supervisor& sup, int n,
                         int deadline_ms = 8000) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int waited = 0; waited < deadline_ms; waited += 10) {
    if (sup.Snapshot().failures_detected >= n) break;
    SleepMs(10);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(FaultInjectionTest, StallDetectedWithinHeartbeatBound) {
  EngineConfig config = BaseConfig();
  config.faults.Stall(kCounter, /*replica=*/0, /*after_tuples=*/300);
  Rig rig = MakeWcRig({1, 1, 1, 1, 1}, config);
  ASSERT_TRUE(rig.rt->Start().ok());

  SupervisorOptions opts;
  opts.heartbeat_interval_s = 0.2;
  opts.stall_probes = 2;
  Supervisor sup(rig.rt.get(), opts);
  ASSERT_TRUE(sup.Start().ok());

  // The stall fires within the first few ms of the run (300 tuples at
  // 30k tps); detection needs stall_probes consecutive no-progress
  // probes on top of the baseline one — nominally 2 x heartbeat after
  // the stall, plus scheduler slack.
  const double detect_s = WaitForDetections(sup, 1);
  ASSERT_GE(sup.Snapshot().failures_detected, 1);
  EXPECT_LE(detect_s, 2 * opts.heartbeat_interval_s * opts.stall_probes + 0.5);

  // Recovery rebuilds the graph from the initial checkpoint; the job
  // streams again (the stall spec fired once and is not re-armed).
  for (int waited = 0; waited < 5000 && sup.Snapshot().restarts < 1;
       waited += 10) {
    SleepMs(10);
  }
  SupervisionReport report = sup.Snapshot();
  ASSERT_GE(report.restarts, 1);
  ASSERT_FALSE(report.recoveries.empty());
  EXPECT_NE(report.recoveries[0].cause.find("stalled"), std::string::npos);
  EXPECT_NE(report.recoveries[0].cause.find("counter"), std::string::npos);
  const uint64_t before = rig.telemetry->count();
  SleepMs(300);
  EXPECT_GT(rig.telemetry->count(), before);

  SupervisionReport final_report = sup.Stop();
  EXPECT_TRUE(final_report.final_status.ok())
      << final_report.final_status.ToString();
  (void)rig.rt->Stop();
}

// A wedged channel push parks one envelope forever: pending_live never
// returns to zero, the producer stops consuming once its pending queue
// backs up, and a graceful drain can never converge. The supervisor's
// no-progress-while-holding-work rule is exactly what catches it.
TEST(FaultInjectionTest, WedgedPushDetectedAsDrainDeadlock) {
  EngineConfig config = BaseConfig();
  config.queue_capacity = 8;  // small rings so the wedge bites fast
  config.faults.WedgePush(kSplitter, /*replica=*/0, /*after_tuples=*/100);
  Rig rig = MakeWcRig({1, 1, 1, 1, 1}, config);
  ASSERT_TRUE(rig.rt->Start().ok());

  SupervisorOptions opts;
  opts.heartbeat_interval_s = 0.1;
  Supervisor sup(rig.rt.get(), opts);
  ASSERT_TRUE(sup.Start().ok());

  const double detect_s = WaitForDetections(sup, 1);
  ASSERT_GE(sup.Snapshot().failures_detected, 1);
  EXPECT_LE(detect_s, 5.0);

  // Recovery discards the wedged graph and resumes from the initial
  // checkpoint; the spec fired once, so the rebuilt splitter flows.
  for (int waited = 0; waited < 5000 && sup.Snapshot().restarts < 1;
       waited += 10) {
    SleepMs(10);
  }
  SupervisionReport report = sup.Snapshot();
  ASSERT_GE(report.restarts, 1);
  ASSERT_FALSE(report.recoveries.empty());
  EXPECT_NE(report.recoveries[0].cause.find("stalled"), std::string::npos);
  const uint64_t before = rig.telemetry->count();
  SleepMs(300);
  EXPECT_GT(rig.telemetry->count(), before);

  (void)sup.Stop();
  (void)rig.rt->Stop();
}

TEST(FaultInjectionTest, DrainTimeoutSurfacedInStats) {
  // Saturated ingress + tiny rings + zero drain budget: the stop-time
  // quiesce always has in-flight work left when the budget expires.
  EngineConfig config = BaseConfig();
  config.spout_rate_tps = 0.0;
  config.queue_capacity = 4;
  config.drain_timeout_s = 0.0;
  Rig rig = MakeWcRig({1, 1, 1, 1, 1}, config);
  ASSERT_TRUE(rig.rt->Start().ok());
  SleepMs(100);
  RunStats stats = rig.rt->Stop();
  EXPECT_TRUE(stats.drain_timed_out);

  // Control: a generous budget on a paced run drains cleanly.
  EngineConfig calm = BaseConfig();
  calm.drain_timeout_s = 5.0;
  Rig rig2 = MakeWcRig({1, 1, 1, 1, 1}, calm);
  ASSERT_TRUE(rig2.rt->Start().ok());
  SleepMs(100);
  RunStats stats2 = rig2.rt->Stop();
  EXPECT_FALSE(stats2.drain_timed_out);
}

TEST(FaultInjectionTest, JobSurfacesDrainStatus) {
  auto telemetry = std::make_shared<SinkTelemetry>();
  EngineConfig config = EngineConfig::Brisk();
  config.spout_rate_tps = 0.0;
  config.queue_capacity = 4;
  config.drain_timeout_s = 0.0;
  config.seed = 3;
  auto report = Job::Of(apps::BuildWordCountDsl(telemetry).value())
                    .WithTelemetry(telemetry)
                    .WithProfiles(apps::WordCountProfiles())
                    .WithConfig(config)
                    .Run(0.3);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->stats.drain_timed_out);
  EXPECT_FALSE(report->drain_status.ok());
  EXPECT_NE(report->drain_status.ToString().find("drain"), std::string::npos);
}

}  // namespace
}  // namespace brisk::engine
