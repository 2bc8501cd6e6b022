#include "optimizer/dynamic.h"

#include <algorithm>
#include <cmath>

namespace brisk::opt {

double ProfileDrift(const model::ProfileSet& planned,
                    const model::ProfileSet& observed) {
  double drift = 0.0;
  auto relative = [](double a, double b) {
    if (a == 0.0 && b == 0.0) return 0.0;
    const double denom = std::max(std::abs(a), std::abs(b));
    return std::abs(a - b) / denom;
  };
  for (const auto& [name, p] : planned.all()) {
    auto o = observed.Get(name);
    if (!o.ok()) {
      drift = std::max(drift, 1.0);
      continue;
    }
    drift = std::max(drift, relative(p.te_cycles, o->te_cycles));
    const double ps = p.selectivity.empty() ? 1.0 : p.selectivity[0];
    const double os = o->selectivity.empty() ? 1.0 : o->selectivity[0];
    drift = std::max(drift, relative(ps, os));
  }
  for (const auto& [name, o] : observed.all()) {
    (void)o;
    if (!planned.Has(name)) drift = std::max(drift, 1.0);
  }
  return drift;
}

StatusOr<MigrationPlan> DiffPlans(const model::ExecutionPlan& current,
                                  const model::ExecutionPlan& next) {
  if (&current.topology() != &next.topology()) {
    return Status::InvalidArgument(
        "DiffPlans requires plans over the same topology object");
  }
  MigrationPlan out;
  const int n_ops = current.topology().num_operators();
  for (int op = 0; op < n_ops; ++op) {
    const int old_repl = current.replication(op);
    const int new_repl = next.replication(op);
    const int common = std::min(old_repl, new_repl);
    for (int r = 0; r < common; ++r) {
      if (current.SocketOf(current.InstanceId(op, r)) ==
          next.SocketOf(next.InstanceId(op, r))) {
        ++out.unchanged;
      } else {
        ++out.moves;
      }
    }
    out.starts += new_repl - common;
    out.stops += old_repl - common;
  }
  return out;
}

StatusOr<ReoptDecision> DynamicReoptimizer::Check(
    const api::Topology& topo, const model::ExecutionPlan& current,
    const model::ProfileSet& planned_profiles,
    const model::ProfileSet& observed_profiles) const {
  ReoptDecision decision;
  decision.drift = ProfileDrift(planned_profiles, observed_profiles);
  if (decision.drift < options_.drift_threshold) return decision;

  // How well would the *current* plan do under the observed workload,
  // on the same worker budget the re-optimization plans for?
  model::PerfModel observed_model(machine_, &observed_profiles,
                                  options_.rlas.workers_per_socket);
  BRISK_ASSIGN_OR_RETURN(
      model::ModelResult current_under_observed,
      observed_model.Evaluate(current, options_.rlas.placement.input_rate_tps));

  // Re-optimize for the observed workload.
  RlasOptimizer optimizer(machine_, &observed_profiles, options_.rlas);
  auto reopt = optimizer.Optimize(topo);
  if (!reopt.ok()) {
    if (reopt.status().IsResourceExhausted()) {
      return decision;  // keep running the current plan
    }
    return reopt.status();
  }

  const double base = current_under_observed.throughput;
  const double gain =
      base > 0 ? (reopt->model.throughput - base) / base : 1.0;
  if (gain < options_.min_gain) return decision;  // not worth switching

  decision.reoptimized = true;
  decision.expected_gain = gain;
  decision.new_plan = reopt->plan;
  decision.new_model = reopt->model;
  BRISK_ASSIGN_OR_RETURN(decision.migration,
                         DiffPlans(current, decision.new_plan));
  return decision;
}

}  // namespace brisk::opt
