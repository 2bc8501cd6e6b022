// Streaming execution plan (§3): replication level per operator plus a
// placement of every replica ("instance") onto a CPU socket.
#pragma once

#include <string>
#include <vector>

#include "api/topology.h"
#include "common/status.h"

namespace brisk::model {

/// One replica of a logical operator.
struct PlanInstance {
  int op = -1;       ///< operator id in the topology
  int replica = 0;   ///< replica index within the operator
  int socket = -1;   ///< assigned socket, -1 while unplaced
};

/// Replication + placement for one topology. Cheap to copy (two flat
/// vectors), which the branch-and-bound search relies on.
class ExecutionPlan {
 public:
  ExecutionPlan() = default;

  /// Builds an unplaced plan with the given per-operator replication.
  static StatusOr<ExecutionPlan> Create(const api::Topology* topo,
                                        std::vector<int> replication);

  /// Builds an unplaced plan using each operator's base parallelism.
  static StatusOr<ExecutionPlan> CreateDefault(const api::Topology* topo);

  const api::Topology& topology() const { return *topo_; }

  int num_instances() const { return static_cast<int>(instances_.size()); }
  const PlanInstance& instance(int id) const { return instances_[id]; }
  const std::vector<PlanInstance>& instances() const { return instances_; }

  int replication(int op) const { return replication_[op]; }
  const std::vector<int>& replication() const { return replication_; }
  int total_replicas() const { return num_instances(); }

  /// Global instance id of (op, replica).
  int InstanceId(int op, int replica) const {
    return first_instance_[op] + replica;
  }

  /// Instance ids belonging to `op`: [first, first + replication).
  int FirstInstanceOf(int op) const { return first_instance_[op]; }

  void SetSocket(int instance_id, int socket) {
    instances_[instance_id].socket = socket;
  }
  int SocketOf(int instance_id) const {
    return instances_[instance_id].socket;
  }

  /// True when every instance has a socket.
  bool FullyPlaced() const;

  /// Number of instances currently assigned to `socket`.
  int InstancesOnSocket(int socket) const;

  /// Places every instance on socket 0 (the bounding-function seed and
  /// the trivial single-socket plan).
  void PlaceAllOn(int socket);

  /// Clears all placements back to -1.
  void ClearPlacement();

  /// This plan with `op` at `replication` replicas: surviving replicas
  /// keep their sockets, new ones go on `socket`.
  StatusOr<ExecutionPlan> Resized(int op, int replication, int socket) const;

  /// Same topology object, replication and socket of every instance.
  bool operator==(const ExecutionPlan& other) const;

  std::string ToString() const;

 private:
  const api::Topology* topo_ = nullptr;
  std::vector<int> replication_;     // per op
  std::vector<int> first_instance_;  // per op, prefix sum
  std::vector<PlanInstance> instances_;
};

/// True when `plan` wires `edge` replica k -> replica k: a chain edge
/// (api::Topology::IsChainEdge) whose producer and consumer have equal
/// replication and the same socket at every replica index. The engine
/// wires such an edge one channel per replica; every other edge is
/// wired all-to-all. The performance model delivers by the same rule.
bool WiredOneToOne(const ExecutionPlan& plan, const api::StreamEdge& edge);

}  // namespace brisk::model
