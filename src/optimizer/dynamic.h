// Dynamic re-optimization (§5.3): "In practical scenarios, stream rate
// as well as its characteristics can vary over time, and the
// application needs to be re-optimized in response to workload
// changes."
//
// This module provides the three pieces of that loop:
//   1. drift detection — compare the profiles the running plan was
//      optimized for against freshly observed statistics;
//   2. re-optimization — run RLAS against the observed profiles;
//   3. migration summary — count the instance moves / starts / stops
//      between the old and new plans, so a deployer can judge the
//      disruption before handing the new plan to the engine
//      (BriskRuntime::ApplyMigration).
#pragma once

#include "api/topology.h"
#include "model/execution_plan.h"
#include "model/operator_profile.h"
#include "optimizer/rlas.h"

namespace brisk::opt {

/// Relative drift between two profile sets: the maximum over operators
/// of the relative change in T_e and in first-stream selectivity.
/// Returns 0 when identical; operators missing on either side count as
/// full (1.0) drift.
double ProfileDrift(const model::ProfileSet& planned,
                    const model::ProfileSet& observed);

/// How much of the running job a plan switch disturbs: instance counts
/// of the difference between two plans over the same topology.
struct MigrationPlan {
  int moves = 0;    ///< relocated replicas (state must transfer)
  int starts = 0;   ///< newly created replicas
  int stops = 0;    ///< retired replicas
  int unchanged = 0;

  bool empty() const { return moves + starts + stops == 0; }
};

/// Counts the instance-level difference (replicas are matched by
/// (operator, replica index), the stable identity the engine uses).
StatusOr<MigrationPlan> DiffPlans(const model::ExecutionPlan& current,
                                  const model::ExecutionPlan& next);

/// Outcome of one reoptimization check.
struct ReoptDecision {
  bool reoptimized = false;
  double drift = 0.0;
  /// Valid when reoptimized: the new plan, its model result and the
  /// disruption of switching to it.
  model::ExecutionPlan new_plan;
  model::ModelResult new_model;
  MigrationPlan migration;
  /// Expected relative throughput gain of switching (>= 0).
  double expected_gain = 0.0;
};

/// Policy knobs for the controller.
struct DynamicOptions {
  /// Re-optimize only when drift exceeds this fraction.
  double drift_threshold = 0.15;
  /// Adopt the new plan only when its modeled throughput beats the
  /// current plan's (re-evaluated under observed profiles and the same
  /// rlas.workers_per_socket budget) by this fraction — switching has a cost (§5.3's motivation for cheap
  /// heuristics; we make the trade-off explicit instead).
  double min_gain = 0.05;

  // Damping for the closed observe → check → migrate loop (consumed by
  // the Job autopilot, not by Check itself, which is stateless).
  // Windowed T_e observations on a busy host jitter 20–30% while true
  // workload drift (selectivity, sustained cost shifts) persists
  // across windows; without damping the controller reads the noise as
  // drift and flaps — migrating every interval forever.

  /// Exponential smoothing factor for observed profiles across
  /// windows: smoothed = alpha * window + (1 - alpha) * smoothed.
  /// 1 = trust each raw window (no smoothing).
  double observation_ewma_alpha = 0.4;
  /// Observation windows to sit out after an applied migration before
  /// checking again, so the rebuilt engine's warm-up (fresh batch
  /// pools, repartitioned state, new worker assignment) is not read as
  /// fresh drift.
  int settle_windows = 2;

  RlasOptions rlas;
};

/// Decides whether to re-optimize `current` given freshly observed
/// profiles, and if so produces the new plan and its migration summary.
class DynamicReoptimizer {
 public:
  DynamicReoptimizer(const hw::MachineSpec* machine, DynamicOptions options)
      : machine_(machine), options_(std::move(options)) {}

  StatusOr<ReoptDecision> Check(const api::Topology& topo,
                                const model::ExecutionPlan& current,
                                const model::ProfileSet& planned_profiles,
                                const model::ProfileSet& observed_profiles)
      const;

 private:
  const hw::MachineSpec* machine_;
  DynamicOptions options_;
};

}  // namespace brisk::opt
