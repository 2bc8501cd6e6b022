#include "optimizer/rlas.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace brisk::opt {

using model::ExecutionPlan;

StatusOr<RlasResult> RlasOptimizer::Optimize(const api::Topology& topo) const {
  const auto t_start = std::chrono::steady_clock::now();

  int max_replicas = options_.max_total_replicas;
  if (max_replicas <= 0) max_replicas = machine_->total_cores();

  // Line 1: replication starts at one per operator (or the caller's
  // warm start, Appendix D).
  std::vector<int> replication(topo.num_operators(), 1);
  if (!options_.initial_replication.empty()) {
    if (static_cast<int>(options_.initial_replication.size()) !=
        topo.num_operators()) {
      return Status::InvalidArgument("initial_replication size mismatch");
    }
    replication = options_.initial_replication;
  }

  RlasResult best;
  bool have_best = false;

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    BRISK_ASSIGN_OR_RETURN(ExecutionPlan plan,
                           ExecutionPlan::Create(&topo, replication));

    // Line 6: placement optimization under the current replication.
    auto placed = OptimizePlacement(model_, std::move(plan),
                                    options_.placement);
    if (!placed.ok()) {
      // Lines 9–10: no valid placement — stop and return the best so far.
      if (placed.status().IsResourceExhausted()) break;
      return placed.status();
    }
    best.nodes_explored += placed->nodes_explored;

    // Lines 7–8: keep the best plan seen.
    if (!have_best || placed->model.throughput > best.model.throughput) {
      best.plan = placed->plan;
      best.model = placed->model;
      best.compress_ratio = placed->compress_ratio;
      have_best = true;
    }
    best.scaling_iterations = iter + 1;

    // Lines 11–19: reverse-topological scan for the first bottleneck
    // operator; grow its replication by the over-supply ratio.
    const auto& order = topo.topological_order();
    int target_op = -1;
    double ratio = 1.0;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const int op = *it;
      double ri = 0.0, ro = 0.0;
      bool bottleneck = false;
      for (int r = 0; r < placed->plan.replication(op); ++r) {
        const auto& st =
            placed->model.instances[placed->plan.InstanceId(op, r)];
        ri += st.input_rate;
        ro += st.processed;
        bottleneck |= st.bottleneck;
      }
      if (bottleneck && ro > 0.0) {
        target_op = op;
        ratio = ri / ro;
        break;
      }
    }
    if (target_op < 0) break;  // nothing over-supplied: plan is balanced

    // Growth step ⌈r_i / r̄_o⌉ applied multiplicatively: the operator
    // needs `ratio` times its current capacity. Per-iteration growth is
    // clamped to 2x so a source operator facing an effectively infinite
    // ingress rate (§5.3's over-supplied setup) cannot swallow the whole
    // replica budget in one step — the reverse-topological rescan keeps
    // the pipeline balanced across iterations instead.
    const int total_now =
        std::accumulate(replication.begin(), replication.end(), 0);
    const int head_room = max_replicas - total_now;
    if (head_room <= 0) break;  // Line 19: scaling ceiling reached

    const int current = replication[target_op];
    int grown = static_cast<int>(
        std::ceil(static_cast<double>(current) * std::min(ratio, 2.0)));
    grown = std::max(grown, current + 1);
    grown = std::min(grown, current + head_room);
    if (grown <= current) break;
    replication[target_op] = grown;
  }

  if (!have_best) {
    return Status::ResourceExhausted(
        "RLAS found no feasible execution plan (even at replication 1)");
  }

  best.optimize_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_start)
          .count();
  return best;
}

}  // namespace brisk::opt
