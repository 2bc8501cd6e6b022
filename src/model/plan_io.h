// Textual serialization of execution plans: what `briskadm plan
// --save` writes. A line-oriented format, stable and diff-friendly, so
// two plans (two machines, two optimizer versions) can be compared
// with ordinary text tools:
//
//   brisk-plan v1
//   op <name> replication <n> sockets <s0> <s1> ... <sn-1>
#pragma once

#include <string>

#include "model/execution_plan.h"

namespace brisk::model {

/// Serializes replication + placement, one line per operator in
/// topology order. Unplaced instances encode as -1.
std::string SerializePlan(const ExecutionPlan& plan);

}  // namespace brisk::model
