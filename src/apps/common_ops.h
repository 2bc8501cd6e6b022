// Operators shared across the benchmark applications: telemetry sinks
// and pass-through parsers.
#pragma once

#include <cstdint>
#include <memory>

#include "api/operator.h"
#include "common/telemetry.h"

namespace brisk::apps {

/// The apps historically named this apps::SinkTelemetry; the class now
/// lives in common/telemetry.h so the generic api layer (Job, DSL
/// examples) can use it without depending on the apps module.
using ::brisk::SinkTelemetry;

/// Terminal operator: counts tuples and samples end-to-end latency.
class CountingSink : public api::Operator {
 public:
  explicit CountingSink(std::shared_ptr<SinkTelemetry> telemetry)
      : telemetry_(std::move(telemetry)) {}

  void Process(const Tuple& in, api::OutputCollector* out) override;

 private:
  std::shared_ptr<SinkTelemetry> telemetry_;
};

/// The parser keep-predicate: a tuple is valid unless its first field
/// is an empty string. One source of truth for ValidatingParser and
/// the DSL programs' Filter("parser", ...) stages.
inline bool ParserKeeps(const Tuple& t) {
  return t.fields.empty() || !t.fields[0].is_string() ||
         !t.fields[0].AsString().empty();
}

/// Validating pass-through (the Parser every app starts with): drops
/// tuples whose first field is an empty string, forwards the rest.
/// Testing workloads generate no invalid tuples, so selectivity is one
/// (§2.2).
class ValidatingParser : public api::Operator {
 public:
  void Process(const Tuple& in, api::OutputCollector* out) override;

  uint64_t dropped() const { return dropped_; }

 private:
  uint64_t dropped_ = 0;
};

/// Returns steady-clock now in ns (spouts stamp origin timestamps with
/// this; sinks diff against it).
int64_t NowNs();

}  // namespace brisk::apps
