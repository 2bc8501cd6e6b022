// Fraud detection as a live deployment scenario: a rate-limited
// transaction feed (the bank's ingest), RLAS-planned capacity, and a
// comparison against running the same plan the way a distributed DSPS
// would. Storm's per-tuple costs (serialization, duplicated headers,
// instruction footprint) are priced the way Fig. 6 prices them: by its
// operator profiles (apps::ProfilesFor(..., kStormLike)) through the
// performance model.
//
//   $ ./examples/fraud_detection_live [seconds]
#include <cstdio>
#include <cstdlib>

#include "apps/apps.h"
#include "engine/runtime.h"
#include "hardware/machine_spec.h"
#include "model/perf_model.h"
#include "optimizer/rlas.h"

using namespace brisk;

namespace {

StatusOr<double> RunLive(engine::EngineConfig config, double seconds) {
  BRISK_ASSIGN_OR_RETURN(apps::AppBundle app,
                         apps::MakeApp(apps::AppId::kFraudDetection));
  BRISK_ASSIGN_OR_RETURN(model::ExecutionPlan plan,
                         model::ExecutionPlan::CreateDefault(
                             app.topology_ptr.get()));
  plan.PlaceAllOn(0);
  BRISK_ASSIGN_OR_RETURN(
      std::unique_ptr<engine::BriskRuntime> runtime,
      engine::BriskRuntime::Create(app.topology_ptr.get(), plan, config));
  BRISK_ASSIGN_OR_RETURN(engine::RunStats stats, runtime->RunFor(seconds));
  return app.telemetry->count() / stats.duration_s;
}

/// Model throughput of `plan` under `system`'s operator profiles, at
/// saturating ingress.
StatusOr<double> ModelThroughput(const hw::MachineSpec& machine,
                                 const model::ExecutionPlan& plan,
                                 apps::SystemKind system) {
  BRISK_ASSIGN_OR_RETURN(
      model::ProfileSet profiles,
      apps::ProfilesFor(apps::AppId::kFraudDetection, system));
  const model::PerfModel model(&machine, &profiles);
  BRISK_ASSIGN_OR_RETURN(model::ModelResult r,
                         model.Evaluate(plan, /*input_rate_tps=*/1e12));
  return r.throughput;
}

}  // namespace

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 0.8;

  auto app = apps::MakeApp(apps::AppId::kFraudDetection);
  if (!app.ok()) return 1;
  std::printf("%s", app->topology().ToString().c_str());

  // Capacity planning: what would this need on the 8-socket target?
  const hw::MachineSpec machine = hw::MachineSpec::ServerB();
  opt::RlasOptimizer optimizer(&machine, &app->profiles);
  auto plan = optimizer.Optimize(app->topology());
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\ncapacity plan for %s: %d replicas total, predicted %.2f M "
      "transactions/s\n%s",
      machine.name().c_str(), plan->plan.num_instances(),
      plan->model.throughput / 1e6, plan->plan.ToString().c_str());

  // The same plan under BriskStream's and Storm's per-tuple costs.
  auto brisk_model =
      ModelThroughput(machine, plan->plan, apps::SystemKind::kBrisk);
  auto storm_model =
      ModelThroughput(machine, plan->plan, apps::SystemKind::kStormLike);
  if (!brisk_model.ok() || !storm_model.ok()) {
    std::fprintf(stderr, "model evaluation failed\n");
    return 1;
  }
  std::printf(
      "\nmodel, RLAS plan: BriskStream %.2f M txn/s, Storm-like "
      "(serialization + per-tuple headers) %.2f M txn/s, %.1fx\n",
      *brisk_model / 1e6, *storm_model / 1e6, *brisk_model / *storm_model);

  // Live local run at a fixed ingest rate.
  engine::EngineConfig brisk_cfg = engine::EngineConfig::Brisk();
  brisk_cfg.spout_rate_tps = 30000;
  auto brisk_rate = RunLive(brisk_cfg, seconds);
  if (!brisk_rate.ok()) {
    std::fprintf(stderr, "%s\n", brisk_rate.status().ToString().c_str());
    return 1;
  }
  std::printf("\nBriskStream runtime, 30 k txn/s feed: scored %.0f txn/s\n",
              *brisk_rate);
  if (*brisk_rate <= 0) return 1;
  std::printf(
      "\nTakeaway: on one plan, Storm's per-tuple overhead alone costs "
      "the factor above;\nbench_fig6_speedup also plans Storm its own "
      "way (no RLAS), as the paper's Fig. 6 does.\n");
  return 0;
}
