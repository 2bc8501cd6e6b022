#include "model/plan_io.h"

#include <sstream>

namespace brisk::model {

std::string SerializePlan(const ExecutionPlan& plan) {
  std::ostringstream os;
  os << "brisk-plan v1\n";
  const api::Topology& topo = plan.topology();
  for (const auto& op : topo.ops()) {
    os << "op " << op.name << " replication " << plan.replication(op.id)
       << " sockets";
    for (int r = 0; r < plan.replication(op.id); ++r) {
      os << " " << plan.SocketOf(plan.InstanceId(op.id, r));
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace brisk::model
