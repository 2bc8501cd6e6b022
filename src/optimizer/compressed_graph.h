// Graph compression (heuristic 3, §4): replicas of one operator are
// grouped into "units" of at most `ratio` instances that are placed
// together. ratio = 1 gives instance-granular placement (finest, most
// expensive); the paper uses 5 as a good trade-off (Table 7).
// OptimizePlacement builds the graph at ratio 1 whenever the
// uncompressed search fits its node budget, so compression only ever
// shrinks searches that would otherwise be cut short.
#pragma once

#include <vector>

#include "model/execution_plan.h"

namespace brisk::opt {

/// A placement unit: one or more replicas of the same operator (or,
/// with tied chains, of every member of one replica chain) that the
/// B&B schedules as a block.
struct Unit {
  int id = -1;
  int op = -1;  ///< the operator, or the head of a tied chain
  std::vector<int> instance_ids;  ///< global instance ids in the plan

  int size() const { return static_cast<int>(instance_ids.size()); }
};

/// A collocation decision between a directly-connected producer unit
/// and consumer unit (heuristic 1: placement is considered per edge,
/// not per vertex).
struct Decision {
  int producer_unit = -1;
  int consumer_unit = -1;
};

/// The compressed placement problem for one ExecutionPlan.
class CompressedGraph {
 public:
  /// Groups each operator's replicas into ceil(replication/ratio) units
  /// and materializes the unit-level collocation decision list in
  /// topological producer order.
  ///
  /// With `tie_chains`, the members of a replica chain (chain edges,
  /// api::Topology::IsChainEdge, between operators of equal
  /// replication) form one vertex: a unit holds the same replica
  /// indices of every member, so the plan wires the chain one-to-one.
  /// Its units are striped (unit j holds replicas j, j+U, ...), and a
  /// chain keeps at least min(replication, sockets) units so the
  /// search can spread it over the machine.
  static CompressedGraph Build(const model::ExecutionPlan& plan, int ratio,
                               bool tie_chains = false, int sockets = 1);

  /// Units Build(plan, 1, tie_chains) makes: one per replica of every
  /// operator, or of every tied chain.
  static int ExactUnitCount(const model::ExecutionPlan& plan,
                            bool tie_chains);

  const std::vector<Unit>& units() const { return units_; }
  const std::vector<Decision>& decisions() const { return decisions_; }

  int num_units() const { return static_cast<int>(units_.size()); }

  /// Unit ids holding replicas of operator `op`.
  const std::vector<int>& UnitsOf(int op) const { return units_of_op_[op]; }

  /// Operator ids that feed `op` (unique, from the topology).
  const std::vector<int>& ProducersOf(int op) const {
    return producer_ops_[op];
  }

 private:
  std::vector<Unit> units_;
  std::vector<Decision> decisions_;
  std::vector<std::vector<int>> units_of_op_;
  std::vector<std::vector<int>> producer_ops_;
};

}  // namespace brisk::opt
