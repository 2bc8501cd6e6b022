// Helpers shared across the benchmark applications: the telemetry
// alias, the parser keep-predicate, the origin-timestamp clock and the
// sliding-mean window keyed aggregates keep.
#pragma once

#include <cstdint>
#include <deque>

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

/// The last few readings of one key and their running sum (SD's
/// moving_avg, LR's avg_speed).
struct MeanWindow {
  std::deque<double> values;
  double sum = 0.0;

  /// Adds `v`, evicts the oldest reading beyond `size`, and returns the
  /// mean of the window.
  double Push(double v, int size) {
    values.push_back(v);
    sum += v;
    if (static_cast<int>(values.size()) > size) {
      sum -= values.front();
      values.pop_front();
    }
    return sum / static_cast<double>(values.size());
  }
};

/// Checkpoint codec [sum, v0..vn]. The running sum is stored, not
/// recomputed, so a restored window is bit-exact (floating-point
/// summation order preserved).
Tuple EncodeMeanWindow(const MeanWindow& w);
MeanWindow DecodeMeanWindow(const Tuple& t);

}  // namespace brisk::apps
