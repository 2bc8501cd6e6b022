// RLAS — Relative-Location Aware Scheduling (§4): joint optimization of
// operator replication (Algorithm 1) and placement (Algorithm 2).
#pragma once

#include <cstdint>

#include "api/topology.h"
#include "model/perf_model.h"
#include "optimizer/placement_bb.h"

namespace brisk::opt {

/// Options for the full RLAS optimization.
struct RlasOptions {
  PlacementOptions placement;

  /// Ceiling on Σ replication (defaults to the machine's core count —
  /// one instance per isolated core, §6.1).
  int max_total_replicas = -1;

  /// Safety cap on scaling iterations.
  int max_iterations = 64;

  /// Optional starting replication (empty = all ones). Appendix D's
  /// "start from a reasonably large DAG" accelerator.
  std::vector<int> initial_replication;
};

/// Output of Optimize(): the best plan found plus search statistics.
struct RlasResult {
  model::ExecutionPlan plan;
  model::ModelResult model;  ///< evaluated under the search fetch mode
  int scaling_iterations = 0;
  uint64_t nodes_explored = 0;
  double optimize_seconds = 0.0;
  int compress_ratio = 1;  ///< ratio of the placement search behind `plan`
};

/// RLAS optimizer bound to one machine + profile set.
class RlasOptimizer {
 public:
  RlasOptimizer(const hw::MachineSpec* machine,
                const model::ProfileSet* profiles, RlasOptions options = {})
      : machine_(machine),
        profiles_(profiles),
        model_(machine, profiles),
        options_(std::move(options)) {}

  /// Algorithm 1: iteratively optimize placement, then raise the
  /// replication of the bottleneck operator (reverse-topological scan)
  /// until placement fails, no bottleneck remains, or the replica
  /// ceiling is hit. Returns the best valid plan encountered.
  StatusOr<RlasResult> Optimize(const api::Topology& topo) const;

  /// Algorithm 2 only: placement under fixed replication.
  StatusOr<PlacementResult> OptimizePlacementOnly(
      model::ExecutionPlan plan) const {
    return OptimizePlacement(model_, std::move(plan), options_.placement);
  }

  const model::PerfModel& perf_model() const { return model_; }
  const RlasOptions& options() const { return options_; }

 private:
  const hw::MachineSpec* machine_;
  const model::ProfileSet* profiles_;
  model::PerfModel model_;
  RlasOptions options_;
};

}  // namespace brisk::opt
