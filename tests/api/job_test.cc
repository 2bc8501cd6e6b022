// Tests for the brisk::Job facade: the one-call
// profile→optimize→deploy driver and its planner strategies.
#include "api/job.h"

#include <chrono>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "api/dsl.h"
#include "apps/apps.h"
#include "apps/common_ops.h"  // apps::NowNs for origin timestamps
#include "engine/executor.h"
#include "optimizer/rlas.h"

namespace brisk {
namespace {

/// A tiny bounded-rate pipeline: int source -> pass -> counting sink.
dsl::Pipeline TinyPipeline(std::shared_ptr<SinkTelemetry> telemetry) {
  dsl::Pipeline p("tiny");
  p.Source("src",
           dsl::SourceFn([](size_t max_tuples, dsl::Collector& out) {
             const int64_t now = apps::NowNs();
             for (size_t i = 0; i < max_tuples; ++i) {
               Tuple t;
               t.fields = {Field(static_cast<int64_t>(i))};
               t.origin_ts_ns = now;
               out.Emit(std::move(t));
             }
             return max_tuples;
           }))
      .FlatMap("pass",
               [](const Tuple& in, dsl::Collector& out) { out.Emit(in); })
      .Sink("sink", [telemetry](const Tuple& in) {
        telemetry->RecordTuple(in.origin_ts_ns, apps::NowNs());
      });
  return p;
}

model::ProfileSet TinyProfiles() {
  model::ProfileSet profiles;
  profiles.Set("src", model::OperatorProfile::Simple(400, 32, 16));
  profiles.Set("pass", model::OperatorProfile::Simple(300, 32, 16));
  profiles.Set("sink", model::OperatorProfile::Simple(120, 16, 8, 0.0));
  return profiles;
}

engine::EngineConfig BoundedConfig() {
  engine::EngineConfig config = engine::EngineConfig::Brisk();
  config.spout_rate_tps = 50000;  // bounded load for CI machines
  return config;
}

TEST(JobTest, RunWithSuppliedProfilesSkipsProfilerAndReports) {
  auto telemetry = std::make_shared<apps::SinkTelemetry>();
  auto report = Job::Of(TinyPipeline(telemetry))
                    .WithProfiles(TinyProfiles())
                    .WithConfig(BoundedConfig())
                    .WithTelemetry(telemetry)
                    .Run(0.15);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->profiled);
  EXPECT_EQ(report->planner, Planner::kRlas);
  EXPECT_GT(report->model.throughput, 0.0);
  EXPECT_TRUE(report->plan.FullyPlaced());
  EXPECT_GT(report->stats.duration_s, 0.0);
  EXPECT_GT(report->sink_tuples, 0u);
  EXPECT_EQ(report->stats.tasks.size(),
            static_cast<size_t>(report->plan.num_instances()));
  EXPECT_NE(report->ToString().find("RLAS"), std::string::npos);
}

TEST(JobTest, BaselinePlannersProduceRunnablePlans) {
  for (const Planner planner :
       {Planner::kRoundRobin, Planner::kFirstFit, Planner::kOsDefault}) {
    auto telemetry = std::make_shared<apps::SinkTelemetry>();
    auto report = Job::Of(TinyPipeline(telemetry))
                      .WithProfiles(TinyProfiles())
                      .WithConfig(BoundedConfig())
                      .WithPlanner(planner)
                      .WithTelemetry(telemetry)
                      .Run(0.1);
    ASSERT_TRUE(report.ok()) << PlannerName(planner) << ": "
                             << report.status();
    EXPECT_EQ(report->planner, planner);
    EXPECT_EQ(report->scaling_iterations, 0);  // baselines do not scale
    EXPECT_TRUE(report->plan.FullyPlaced());
    EXPECT_GT(report->sink_tuples, 0u) << PlannerName(planner);
  }
}

TEST(JobTest, DeployGivesARunningHandleAndStopIsIdempotent) {
  auto telemetry = std::make_shared<apps::SinkTelemetry>();
  auto deployment = Job::Of(TinyPipeline(telemetry))
                        .WithProfiles(TinyProfiles())
                        .WithConfig(BoundedConfig())
                        .WithTelemetry(telemetry)
                        .Deploy();
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  EXPECT_EQ((*deployment)->runtime().num_tasks(),
            (*deployment)->report().plan.num_instances());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const JobReport& report = (*deployment)->Stop();
  EXPECT_GT(report.sink_tuples, 0u);
  const uint64_t first_count = report.sink_tuples;
  EXPECT_EQ((*deployment)->Stop().sink_tuples, first_count);
}

// Job::Deploy plans for the workers the pool runs per socket: with
// fewer workers than cores the plan is the budgeted RLAS plan, whose
// replica chains the engine wires one-to-one; with a worker per core
// it is the paper's plan, unchanged.
TEST(JobTest, PlansForThePoolsWorkers) {
  const hw::MachineSpec small =
      hw::MachineSpec::Symmetric(2, 4, 2.0, 100, 300, 40, 12);
  for (const int workers : {2, 4}) {
    auto app = apps::MakeApp(apps::AppId::kWordCount);
    ASSERT_TRUE(app.ok());
    engine::EngineConfig config = BoundedConfig();
    config.workers_per_socket = workers;
    auto deployment = Job::Of(app->topology_ptr)
                          .WithMachine(small)
                          .WithConfig(config)
                          .WithProfiles(app->profiles)
                          .WithTelemetry(app->telemetry)
                          .Deploy();
    ASSERT_TRUE(deployment.ok()) << deployment.status();
    const JobReport& report = (*deployment)->report();

    opt::RlasOptions options;
    options.workers_per_socket = workers;
    auto expected = opt::RlasOptimizer(&small, &app->profiles, options)
                        .Optimize(app->topology());
    ASSERT_TRUE(expected.ok()) << expected.status();
    EXPECT_EQ(report.plan.ToString(), expected->plan.ToString()) << workers;
    EXPECT_EQ(report.model.throughput, expected->model.throughput);

    int one_to_one = 0;
    int all_to_all = 0;
    for (const auto& e : app->topology().edges()) {
      const int producers = report.plan.replication(e.producer_op);
      if (model::WiredOneToOne(report.plan, e)) {
        one_to_one += producers;
      } else {
        all_to_all += producers * report.plan.replication(e.consumer_op);
      }
    }
    EXPECT_EQ((*deployment)->runtime().num_channels(),
              one_to_one + all_to_all);
    if (workers == 2) {
      EXPECT_GT(one_to_one, 0);
      for (const auto& e : app->topology().edges()) {
        if (!app->topology().IsChainEdge(e)) continue;
        EXPECT_TRUE(model::WiredOneToOne(report.plan, e))
            << report.plan.ToString();
      }
    } else {
      // A worker per core: the dedicated-core plan RLAS always made.
      auto paper = opt::RlasOptimizer(&small, &app->profiles)
                       .Optimize(app->topology());
      ASSERT_TRUE(paper.ok());
      EXPECT_EQ(report.plan.ToString(), paper->plan.ToString());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_GT((*deployment)->Stop().sink_tuples, 0u) << workers;
  }
}

// The pool runs the W workers per socket the plan was made for, on
// every socket the plan uses, also when the plan leaves sockets empty
// (then a per-used-socket share of the host would be larger than W).
TEST(JobTest, PoolRunsThePlannedWorkersPerUsedSocket) {
  const hw::MachineSpec small =
      hw::MachineSpec::Symmetric(2, 4, 2.0, 100, 300, 40, 12);
  auto telemetry = std::make_shared<apps::SinkTelemetry>();
  const engine::EngineConfig config = BoundedConfig();
  opt::RlasOptions options;
  options.placement.input_rate_tps = 10000;  // met on one socket
  auto report = Job::Of(TinyPipeline(telemetry))
                    .WithMachine(small)
                    .WithPlannerOptions(options)
                    .WithProfiles(TinyProfiles())
                    .WithConfig(config)
                    .WithTelemetry(telemetry)
                    .Run(0.1);
  ASSERT_TRUE(report.ok()) << report.status();
  int sockets_used = 0;
  for (int s = 0; s < small.num_sockets(); ++s) {
    if (report->plan.InstancesOnSocket(s) > 0) ++sockets_used;
  }
  const int planned =
      engine::WorkersPerSocketFor(config, &small, small.num_sockets());
  EXPECT_EQ(sockets_used, 1) << report->plan.ToString();
  EXPECT_EQ(report->stats.executor.threads, planned * sockets_used);
}

TEST(JobTest, PipelineLoweringErrorSurfacesFromRun) {
  dsl::Pipeline p("broken");
  dsl::Stream src = p.Source(
      "src", dsl::SourceFn([](size_t, dsl::Collector&) { return size_t{0}; }));
  src.FlatMap("dup", [](const Tuple&, dsl::Collector&) {});
  src.FlatMap("dup", [](const Tuple&, dsl::Collector&) {});
  auto report = Job::Of(std::move(p)).Run(0.05);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kAlreadyExists);
}

TEST(JobTest, NullTopologyIsRejected) {
  auto report = Job::Of(std::shared_ptr<const api::Topology>()).Run(0.05);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(JobTest, PlannerNamesAreStable) {
  EXPECT_STREQ(PlannerName(Planner::kRlas), "RLAS");
  EXPECT_STREQ(PlannerName(Planner::kFirstFit), "FF");
  EXPECT_STREQ(PlannerName(Planner::kRoundRobin), "RR");
  EXPECT_STREQ(PlannerName(Planner::kOsDefault), "OS");
}

}  // namespace
}  // namespace brisk
