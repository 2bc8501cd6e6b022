#include "model/execution_plan.h"

#include <sstream>

namespace brisk::model {

StatusOr<ExecutionPlan> ExecutionPlan::Create(const api::Topology* topo,
                                              std::vector<int> replication) {
  if (topo == nullptr) {
    return Status::InvalidArgument("null topology");
  }
  if (static_cast<int>(replication.size()) != topo->num_operators()) {
    return Status::InvalidArgument(
        "replication size " + std::to_string(replication.size()) +
        " != operator count " + std::to_string(topo->num_operators()));
  }
  for (int i = 0; i < topo->num_operators(); ++i) {
    if (replication[i] < 1) {
      return Status::InvalidArgument("operator '" + topo->op(i).name +
                                     "' replication < 1");
    }
  }
  ExecutionPlan plan;
  plan.topo_ = topo;
  plan.replication_ = std::move(replication);
  plan.first_instance_.resize(plan.replication_.size());
  int next = 0;
  for (size_t op = 0; op < plan.replication_.size(); ++op) {
    plan.first_instance_[op] = next;
    for (int r = 0; r < plan.replication_[op]; ++r) {
      plan.instances_.push_back(
          {static_cast<int>(op), r, /*socket=*/-1});
    }
    next += plan.replication_[op];
  }
  return plan;
}

StatusOr<ExecutionPlan> ExecutionPlan::CreateDefault(
    const api::Topology* topo) {
  if (topo == nullptr) {
    return Status::InvalidArgument("null topology");
  }
  std::vector<int> repl;
  repl.reserve(topo->num_operators());
  for (const auto& op : topo->ops()) repl.push_back(op.base_parallelism);
  return Create(topo, std::move(repl));
}

bool ExecutionPlan::FullyPlaced() const {
  for (const auto& inst : instances_) {
    if (inst.socket < 0) return false;
  }
  return true;
}

int ExecutionPlan::InstancesOnSocket(int socket) const {
  int n = 0;
  for (const auto& inst : instances_) {
    if (inst.socket == socket) ++n;
  }
  return n;
}

void ExecutionPlan::PlaceAllOn(int socket) {
  for (auto& inst : instances_) inst.socket = socket;
}

void ExecutionPlan::ClearPlacement() {
  for (auto& inst : instances_) inst.socket = -1;
}

StatusOr<ExecutionPlan> ExecutionPlan::Resized(int op, int replication,
                                               int socket) const {
  std::vector<int> repl = replication_;
  repl[op] = replication;
  BRISK_ASSIGN_OR_RETURN(ExecutionPlan next, Create(topo_, std::move(repl)));
  for (auto& inst : next.instances_) {
    inst.socket = inst.replica < replication_[inst.op]
                      ? SocketOf(InstanceId(inst.op, inst.replica))
                      : socket;
  }
  return next;
}

bool ExecutionPlan::operator==(const ExecutionPlan& other) const {
  if (topo_ != other.topo_ || replication_ != other.replication_) {
    return false;
  }
  for (size_t i = 0; i < instances_.size(); ++i) {
    if (instances_[i].socket != other.instances_[i].socket) return false;
  }
  return true;
}

std::string ExecutionPlan::ToString() const {
  std::ostringstream os;
  os << "ExecutionPlan (" << instances_.size() << " instances)\n";
  for (const auto& op : topo_->ops()) {
    os << "  " << op.name << " x" << replication_[op.id] << " -> [";
    for (int r = 0; r < replication_[op.id]; ++r) {
      if (r) os << ",";
      const int s = instances_[InstanceId(op.id, r)].socket;
      if (s < 0) {
        os << "?";
      } else {
        os << "S" << s;
      }
    }
    os << "]\n";
  }
  return os.str();
}

bool WiredOneToOne(const ExecutionPlan& plan, const api::StreamEdge& edge) {
  if (!plan.topology().IsChainEdge(edge)) return false;
  const int repl = plan.replication(edge.producer_op);
  if (plan.replication(edge.consumer_op) != repl) return false;
  for (int r = 0; r < repl; ++r) {
    if (plan.SocketOf(plan.InstanceId(edge.producer_op, r)) !=
        plan.SocketOf(plan.InstanceId(edge.consumer_op, r))) {
      return false;
    }
  }
  return true;
}

}  // namespace brisk::model
