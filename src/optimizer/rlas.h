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
  /// one instance per isolated core, §6.1; unbounded under a worker
  /// budget, see workers_per_socket).
  int max_total_replicas = -1;

  /// Safety cap on scaling iterations.
  int max_iterations = 64;

  /// Optional starting replication (empty = all ones). Appendix D's
  /// "start from a reasonably large DAG" accelerator.
  std::vector<int> initial_replication;

  /// Workers the engine runs per socket (model::PerfModel's budget);
  /// <= 0 plans for one core per instance, the paper's setting.
  /// Job::Deploy sets it to the worker pool's size. Below the cores
  /// per socket, instances share workers instead of owning cores, and
  /// the search plans each replica chain as one vertex (one
  /// replication, and one socket per replica index, so the engine
  /// wires it one-to-one). Scaling then grows the chains of the
  /// busiest socket, up to one replica per worker each, and stops once
  /// a step no longer raises the budget-scaled throughput.
  int workers_per_socket = 0;
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
        model_(machine, profiles, options.workers_per_socket),
        options_(std::move(options)) {}

  /// Algorithm 1: iteratively optimize placement, then raise the
  /// replication of the bottleneck operator (reverse-topological scan)
  /// until placement fails, no bottleneck remains, or the replica
  /// ceiling is hit (under a worker budget, also once a step stops
  /// paying). Returns the best valid plan encountered.
  StatusOr<RlasResult> Optimize(const api::Topology& topo) const;

  /// Algorithm 2 only: placement under fixed replication.
  StatusOr<PlacementResult> OptimizePlacementOnly(
      model::ExecutionPlan plan) const {
    return OptimizePlacement(model_, std::move(plan), options_.placement);
  }

  const model::PerfModel& perf_model() const { return model_; }
  const RlasOptions& options() const { return options_; }

 private:
  /// Algorithm 1 under a worker budget (RlasOptions::workers_per_socket).
  StatusOr<RlasResult> OptimizeUnderBudget(const api::Topology& topo,
                                           std::vector<int> replication,
                                           int max_replicas) const;

  /// Chain heads in the order Algorithm 1 tries to grow them under a
  /// budget: most CPU per ingress tuple on `plan`'s busiest socket
  /// first, then most CPU overall.
  StatusOr<std::vector<int>> GrowthCandidates(
      const model::ExecutionPlan& plan) const;

  const hw::MachineSpec* machine_;
  const model::ProfileSet* profiles_;
  model::PerfModel model_;
  RlasOptions options_;
};

}  // namespace brisk::opt
