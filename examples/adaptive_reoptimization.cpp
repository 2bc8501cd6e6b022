// Adaptive re-optimization, live (§5.3): a word-count deployment whose
// workload drifts at runtime — sentences shrink from ten words to
// three, so the splitter's selectivity and cost collapse and the plan
// optimized for the old workload over-provisions it. The Job autopilot
// observes the drift from engine counters, re-plans with RLAS, and
// applies the migration to the RUNNING engine (pause-and-migrate: no
// tuple lost, keyed counts preserved across the re-partitioning).
// It re-plans under the worker budget the pool runs: where that budget
// is a few workers per socket (a small host), the sockets pace every
// plan of this job alike and the autopilot keeps the running one.
//
//   $ ./examples/adaptive_reoptimization
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "api/dsl.h"
#include "api/job.h"
#include "apps/word_count.h"
#include "engine/observed_profiles.h"

using namespace brisk;

namespace {

constexpr uint64_t kDriftAt = 8000;   // sentences before the feed changes
constexpr uint64_t kTotal = 60000;    // bounded source, per replica

/// apps::BuildDriftingWordCountDsl with this demo's phase knobs: the
/// first `drift_at` sentences of the whole feed have ten words, the
/// rest three (the upstream feed switched from documents to search
/// queries); each replica is bounded at `total`.
dsl::Pipeline MakeDriftingWc(std::shared_ptr<SinkTelemetry> telemetry,
                             uint64_t drift_at, uint64_t total) {
  apps::DriftingWordCountParams params;
  params.drift_at = drift_at;
  params.total_per_replica = total;
  return apps::BuildDriftingWordCountDsl(std::move(telemetry), params);
}

engine::EngineConfig Config() {
  engine::EngineConfig config;
  config.spout_rate_tps = 20000;
  config.seed = 0xada9717;
  config.batch_size = 32;
  return config;
}

hw::MachineSpec Machine() {
  return hw::MachineSpec::Symmetric(2, 8, 2.0, 100, 300, 40, 12);
}

opt::RlasOptions Rlas() {
  opt::RlasOptions options;
  options.placement.compress_ratio = 2;
  return options;
}

}  // namespace

int main() {
  // Day 0: profile the pre-drift workload with the engine's own
  // observed counters — the same measurement context (and reference
  // clock) the autopilot will use at runtime.
  std::printf("calibrating pre-drift profiles on the live engine...\n");
  model::ProfileSet planned;
  {
    auto telemetry = std::make_shared<SinkTelemetry>();
    auto deployment =
        Job::Of(MakeDriftingWc(telemetry, /*drift_at=*/~0ULL, /*total=*/0))
            .WithProfiles(apps::WordCountProfiles())  // seed plan only
            .WithMachine(Machine())
            .WithPlannerOptions(Rlas())
            .WithConfig(Config())
            .WithTelemetry(telemetry)
            .Deploy();
    if (!deployment.ok()) {
      std::fprintf(stderr, "%s\n", deployment.status().ToString().c_str());
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const engine::RunStats window = (*deployment)->runtime().SnapshotStats();
    const JobReport& report = (*deployment)->report();
    auto observed = engine::ObserveProfiles(*report.topology, report.plan,
                                            window, report.profiles);
    (*deployment)->Stop();
    if (!observed.ok()) {
      std::fprintf(stderr, "%s\n", observed.status().ToString().c_str());
      return 1;
    }
    planned = std::move(observed).value();
  }

  // Day 1: deploy on the plan RLAS builds for that workload, with the
  // autopilot closing the loop; mid-run the feed drifts.
  auto telemetry = std::make_shared<SinkTelemetry>();
  opt::DynamicOptions dynamic;
  dynamic.drift_threshold = 0.2;
  dynamic.min_gain = 0.01;
  dynamic.rlas = Rlas();
  auto deployment = Job::Of(MakeDriftingWc(telemetry, kDriftAt, kTotal))
                        .WithProfiles(planned)
                        .WithMachine(Machine())
                        .WithPlannerOptions(Rlas())
                        .WithConfig(Config())
                        .WithTelemetry(telemetry)
                        .WithAutopilot(/*interval_s=*/0.2, dynamic)
                        .Deploy();
  if (!deployment.ok()) {
    std::fprintf(stderr, "%s\n", deployment.status().ToString().c_str());
    return 1;
  }
  std::printf("deployed:\n%s", (*deployment)->report().plan.ToString().c_str());
  std::printf("streaming; sentences shrink 10 -> 3 words after %llu...\n",
              static_cast<unsigned long long>(kDriftAt));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  uint64_t last_count = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const uint64_t count = telemetry->count();
    if (count > 0 && count == last_count &&
        (*deployment)->migrations_applied() > 0) {
      break;  // source done and drained, migration observed
    }
    last_count = count;
  }

  const JobReport& report = (*deployment)->Stop();
  std::printf("\n%s", report.ToString().c_str());
  std::printf("final plan (after %d live migrations):\n%s",
              report.stats.migrations,
              (*deployment)->runtime().plan().ToString().c_str());

  // Zero-loss audit: exact conservation across every edge of the run,
  // all plan epochs included.
  const auto& ot = report.stats.op_totals;
  const bool conserved = ot.size() == 5 &&
                         ot[1].tuples_in == ot[0].tuples_out &&
                         ot[2].tuples_in == ot[1].tuples_out &&
                         ot[3].tuples_in == ot[2].tuples_out &&
                         ot[4].tuples_in == ot[3].tuples_out &&
                         report.sink_tuples == ot[4].tuples_in;
  std::printf("tuple conservation across migrations: %s\n",
              conserved ? "exact" : "VIOLATED");
  if (!conserved) return 1;
  if (report.stats.migrations == 0) {
    std::printf(
        "note: autopilot saw no profitable re-plan this run (it plans for "
        "the pool's workers per socket; set "
        "EngineConfig::workers_per_socket = 8 to plan for every core).\n");
  }
  return 0;
}
