// Tier-1 smoke test: the full paper pipeline, end to end, once —
// driven through the brisk::Job facade.
//
// Job::Of(word_count).Run(s) internally performs what this test used
// to hand-wire: MakeApp -> ProfileTopology -> RlasOptimizer::Optimize ->
// BriskRuntime Create/Start/Stop with NUMA emulation. The assertions
// are the same: the optimizer produced a feasible plan with a positive
// prediction, the engine ran every planned instance, and the sink
// observed real traffic. This is the one test that touches every layer
// (apps, profiling, model, optimizer, engine, hardware) and fails
// loudly if any seam between them breaks.
#include <gtest/gtest.h>

#include <string>

#include "api/job.h"
#include "apps/apps.h"
#include "hardware/machine_spec.h"

namespace brisk {
namespace {

TEST(PipelineSmokeTest, WordCountProfilesOptimizesAndRuns) {
  // 1. Application (built by the DSL under MakeApp).
  auto app = apps::MakeApp(apps::AppId::kWordCount);
  ASSERT_TRUE(app.ok()) << app.status();

  // 2–4. Profile (reduced sample count: smoke, not calibration),
  // RLAS on a small symmetric machine so the optimized plan stays
  // runnable on a CI-sized host, deploy under NUMA emulation.
  engine::ProfilerConfig pcfg;
  pcfg.samples = 2000;
  pcfg.warmup_samples = 200;
  engine::EngineConfig ecfg = engine::EngineConfig::Brisk();
  ecfg.numa_emulation = true;
  ecfg.spout_rate_tps = 20000;  // bounded load for CI machines

  auto report = Job::Of(app->topology_ptr)
                    .WithMachine(hw::MachineSpec::Symmetric(2, 4, 2.0, 100,
                                                            300, 40, 12))
                    .WithProfiler(pcfg)
                    .WithConfig(ecfg)
                    .WithTelemetry(app->telemetry)
                    .Run(0.4);
  ASSERT_TRUE(report.ok()) << report.status();

  // The profiling run happened and the optimizer scaled the plan.
  EXPECT_TRUE(report->profiled);
  EXPECT_GT(report->model.throughput, 0.0);
  EXPECT_GE(report->scaling_iterations, 1);

  // The engine ran one task per planned instance.
  EXPECT_EQ(static_cast<int>(report->stats.tasks.size()),
            report->plan.num_instances());

  // 5. The run produced real telemetry at the sink.
  EXPECT_GT(report->stats.duration_s, 0.0);
  EXPECT_GT(report->stats.total_emitted, 0u);
  EXPECT_GT(report->sink_tuples, 0u);
  EXPECT_GT(app->telemetry->count(), 0u);

  // The emulated stall is a share of pool-worker time, printed when
  // the plan made any consumer fetch across sockets.
  const double stall = report->numa_stall_share();
  EXPECT_GE(stall, 0.0);
  EXPECT_LT(stall, 1.0);
  EXPECT_EQ(report->ToString().find("emulated NUMA stall") !=
                std::string::npos,
            stall > 0.0);
}

}  // namespace
}  // namespace brisk
