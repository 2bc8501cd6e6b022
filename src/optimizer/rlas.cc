#include "optimizer/rlas.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace brisk::opt {

using model::ExecutionPlan;

namespace {

/// Relative throughput gain a scaling step must bring under a worker
/// budget. Replicas that do not spread load over more workers still
/// shift the model's fetch mix by hundredths of a percent; they are not
/// worth their channels and polling.
constexpr double kMinBudgetStepGain = 0.001;

}  // namespace

StatusOr<RlasResult> RlasOptimizer::Optimize(const api::Topology& topo) const {
  const auto t_start = std::chrono::steady_clock::now();

  const bool budgeted = model_.budgeted();
  int max_replicas = options_.max_total_replicas;
  if (max_replicas <= 0) {
    // One instance per core. Under a worker budget the per-chain cap
    // (one replica per worker) bounds the total instead.
    max_replicas = budgeted ? std::numeric_limits<int>::max()
                            : machine_->total_cores();
  }

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
  if (budgeted) return OptimizeUnderBudget(topo, replication, max_replicas);

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

StatusOr<std::vector<int>> RlasOptimizer::GrowthCandidates(
    const ExecutionPlan& plan) const {
  // At 1 tuple/s nothing saturates, so processed·T is each instance's
  // CPU per ingress tuple, the share of its socket's workers it takes.
  BRISK_ASSIGN_OR_RETURN(const model::ModelResult per_tuple,
                         model_.Evaluate(plan, 1.0));
  int busiest = 0;
  for (int s = 1; s < static_cast<int>(per_tuple.sockets.size()); ++s) {
    if (per_tuple.sockets[s].cpu_ns_per_sec >
        per_tuple.sockets[busiest].cpu_ns_per_sec) {
      busiest = s;
    }
  }
  const api::Topology& topo = plan.topology();
  std::vector<double> on_busiest(topo.num_operators(), 0.0);
  std::vector<double> total(topo.num_operators(), 0.0);
  for (int i = 0; i < plan.num_instances(); ++i) {
    const auto& st = per_tuple.instances[i];
    const int head = topo.ChainHead(plan.instance(i).op);
    total[head] += st.processed * st.t_ns;
    if (plan.SocketOf(i) == busiest) on_busiest[head] += st.processed * st.t_ns;
  }
  std::vector<int> heads;
  for (int op = 0; op < topo.num_operators(); ++op) {
    if (topo.ChainHead(op) == op) heads.push_back(op);
  }
  std::stable_sort(heads.begin(), heads.end(), [&](int a, int b) {
    return std::make_pair(on_busiest[a], total[a]) >
           std::make_pair(on_busiest[b], total[b]);
  });
  return heads;
}

StatusOr<RlasResult> RlasOptimizer::OptimizeUnderBudget(
    const api::Topology& topo, std::vector<int> replication,
    int max_replicas) const {
  const auto t_start = std::chrono::steady_clock::now();
  RlasResult best;
  auto place = [&](std::vector<int> repl) -> StatusOr<PlacementResult> {
    BRISK_ASSIGN_OR_RETURN(ExecutionPlan plan,
                           ExecutionPlan::Create(&topo, std::move(repl)));
    auto placed =
        OptimizePlacement(model_, std::move(plan), options_.placement);
    if (placed.ok()) best.nodes_explored += placed->nodes_explored;
    return placed;
  };

  // A replica chain is one vertex: its members share the head's
  // replication, and placement keeps each replica index on one socket.
  for (const int op : topo.topological_order()) {
    replication[op] = replication[topo.ChainHead(op)];
  }
  const int sockets = machine_->num_sockets();
  auto current = place(replication);
  if (!current.ok()) {
    if (!current.status().IsResourceExhausted()) return current.status();
    return Status::ResourceExhausted(
        "RLAS found no feasible execution plan (even at replication 1)");
  }
  best.scaling_iterations = 1;

  // Algorithm 1 with the budget's bottleneck: the busiest socket's
  // workers. Grow the chain with the most CPU there; when that step
  // does not raise the throughput, try the next chain, then every chain
  // at once (spreading a chain makes its unspread consumers fetch
  // remotely, so chains can pay only together), and stop once no step
  // does. A chain grows to the next multiple of the socket count, so
  // its replicas stripe evenly over the sockets, and never past one
  // replica per worker, beyond which they cannot run in parallel.
  const int max_chain = sockets * model_.workers_per_socket();
  for (int iter = 1; iter < options_.max_iterations; ++iter) {
    BRISK_ASSIGN_OR_RETURN(const std::vector<int> heads,
                           GrowthCandidates(current->plan));
    std::vector<int> growable;
    for (const int head : heads) {
      if (replication[head] < max_chain) growable.push_back(head);
    }
    std::vector<std::vector<int>> steps;
    for (const int head : growable) steps.push_back({head});
    if (growable.size() > 1) steps.push_back(growable);
    bool stepped = false;
    for (const std::vector<int>& step : steps) {
      std::vector<int> next = replication;
      for (int m = 0; m < topo.num_operators(); ++m) {
        const int head = topo.ChainHead(m);
        if (std::find(step.begin(), step.end(), head) != step.end()) {
          next[m] = std::min((replication[head] / sockets + 1) * sockets,
                             max_chain);
        }
      }
      if (std::accumulate(next.begin(), next.end(), 0) > max_replicas) {
        continue;  // Line 19: scaling ceiling reached
      }
      auto placed = place(next);
      if (!placed.ok()) {
        if (placed.status().IsResourceExhausted()) continue;
        return placed.status();
      }
      if (placed->model.throughput >
          current->model.throughput * (1.0 + kMinBudgetStepGain)) {
        replication = std::move(next);
        current = std::move(placed);
        stepped = true;
        break;
      }
    }
    if (!stepped) break;
    best.scaling_iterations = iter + 1;
  }

  best.plan = std::move(current->plan);
  best.model = std::move(current->model);
  best.compress_ratio = current->compress_ratio;
  best.optimize_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_start)
          .count();
  return best;
}

}  // namespace brisk::opt
