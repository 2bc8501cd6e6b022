// Helpers shared across the benchmark applications: the telemetry
// alias, the parser keep-predicate and the origin-timestamp clock.
#pragma once

#include <cstdint>

#include "common/telemetry.h"
#include "common/tuple.h"

namespace brisk::apps {

/// The apps historically named this apps::SinkTelemetry; the class now
/// lives in common/telemetry.h so the generic api layer (Job, DSL
/// examples) can use it without depending on the apps module.
using ::brisk::SinkTelemetry;

/// The parser keep-predicate every app's Filter("parser", ...) stage
/// uses: a tuple is valid unless its first field is an empty string.
/// Testing workloads generate no invalid tuples, so selectivity is one
/// (§2.2).
inline bool ParserKeeps(const Tuple& t) {
  return t.fields.empty() || !t.fields[0].is_string() ||
         !t.fields[0].AsString().empty();
}

/// Returns steady-clock now in ns (spouts stamp origin timestamps with
/// this; sinks diff against it).
int64_t NowNs();

}  // namespace brisk::apps
