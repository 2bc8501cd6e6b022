#include "optimizer/compressed_graph.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace brisk::opt {

namespace {

/// Operator whose units `op` shares: the producer's for a tied chain
/// edge, else `op` itself. Producers come first in topological order.
std::vector<int> ChainGroups(const model::ExecutionPlan& plan,
                             bool tie_chains) {
  const api::Topology& topo = plan.topology();
  std::vector<int> group(topo.num_operators());
  for (const int op : topo.topological_order()) {
    group[op] = op;
    if (!tie_chains) continue;
    const auto& in = topo.InEdges(op);
    if (in.size() == 1 && topo.IsChainEdge(in[0]) &&
        plan.replication(in[0].producer_op) == plan.replication(op)) {
      group[op] = group[in[0].producer_op];
    }
  }
  return group;
}

}  // namespace

int CompressedGraph::ExactUnitCount(const model::ExecutionPlan& plan,
                                    bool tie_chains) {
  const std::vector<int> group = ChainGroups(plan, tie_chains);
  int units = 0;
  for (int op = 0; op < plan.topology().num_operators(); ++op) {
    if (group[op] == op) units += plan.replication(op);
  }
  return units;
}

CompressedGraph CompressedGraph::Build(const model::ExecutionPlan& plan,
                                       int ratio, bool tie_chains,
                                       int sockets) {
  BRISK_CHECK(ratio >= 1) << "compress ratio must be >= 1";
  const api::Topology& topo = plan.topology();
  const std::vector<int> group = ChainGroups(plan, tie_chains);

  CompressedGraph g;
  g.units_of_op_.resize(topo.num_operators());
  g.producer_ops_.resize(topo.num_operators());

  // Members of each group, in topological order.
  std::vector<std::vector<int>> members(topo.num_operators());
  for (const int op : topo.topological_order()) {
    members[group[op]].push_back(op);
  }

  // Units, group by group in topological order so the decision list
  // later comes out producer-major.
  for (const int op : topo.topological_order()) {
    if (group[op] != op) continue;
    const int repl = plan.replication(op);
    auto add_unit = [&](auto&& replicas) {
      Unit u;
      u.id = static_cast<int>(g.units_.size());
      u.op = op;
      for (const int m : members[op]) {
        for (const int r : replicas) {
          u.instance_ids.push_back(plan.InstanceId(m, r));
        }
        g.units_of_op_[m].push_back(u.id);
      }
      g.units_.push_back(std::move(u));
    };
    if (!tie_chains) {
      for (int start = 0; start < repl; start += ratio) {
        std::vector<int> replicas;
        for (int r = start; r < std::min(start + ratio, repl); ++r) {
          replicas.push_back(r);
        }
        add_unit(replicas);
      }
      continue;
    }
    const int n_units = std::max((repl + ratio - 1) / ratio,
                                 std::min(repl, std::max(sockets, 1)));
    for (int j = 0; j < n_units; ++j) {
      std::vector<int> replicas;
      for (int r = j; r < repl; r += n_units) replicas.push_back(r);
      add_unit(replicas);
    }
  }

  // Unique producer ops per consumer.
  for (const auto& e : topo.edges()) {
    auto& v = g.producer_ops_[e.consumer_op];
    if (std::find(v.begin(), v.end(), e.producer_op) == v.end()) {
      v.push_back(e.producer_op);
    }
  }

  // Collocation decisions: one per (producer unit, consumer unit) pair
  // of each connected pair of groups, in topological producer order.
  // A tied chain's internal edges need none.
  std::set<std::pair<int, int>> seen_pairs;
  for (const int op : topo.topological_order()) {
    for (const auto& e : topo.OutEdges(op)) {
      const int pg = group[e.producer_op];
      const int cg = group[e.consumer_op];
      if (pg == cg || !seen_pairs.emplace(pg, cg).second) {
        continue;  // internal, or another stream between the same groups
      }
      for (const int pu : g.units_of_op_[e.producer_op]) {
        for (const int cu : g.units_of_op_[e.consumer_op]) {
          g.decisions_.push_back({pu, cu});
        }
      }
    }
  }
  return g;
}

}  // namespace brisk::opt
