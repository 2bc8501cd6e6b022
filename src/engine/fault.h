// Deterministic fault injection — first-class failure scenarios for
// the fault-tolerance layer's tests and benches.
//
// A FaultPlan lives in EngineConfig and travels with the job, so the
// exact same failure fires at the exact same tuple on every run of a
// seeded job (EngineConfig::seed): crash/stall points are expressed in the
// operator's own progress counters, not wall-clock time. Faults are
// armed per (operator, replica) when the task graph is wired and fire
// at most once each — a restarted replica does not re-crash unless the
// plan says so (trigger_limit).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace brisk::engine {

/// One injected failure.
struct FaultSpec {
  enum class Kind : uint8_t {
    /// Replica throws from inside its operator call after processing
    /// `after_tuples` input tuples (spouts: after producing that many).
    /// Modeled as an unrecoverable replica death — the task enters the
    /// failed state and stops consuming.
    kCrash,
    /// Same injection point as kCrash but labeled as an application
    /// exception escaping Process — exercises the containment path's
    /// error capture rather than the death itself.
    kThrow,
    /// Replica silently stops making progress after `after_tuples`
    /// input tuples: it stays scheduled and joinable but consumes
    /// nothing, so backlog accumulates behind it. Detected only by the
    /// supervisor's progress probes.
    kStall,
    /// Replica parks one outbound envelope permanently at the injection
    /// point. pending_live never reaches zero again, so a graceful
    /// drain can never converge — the drain-deadlock scenario.
    kWedgePush,
    /// Fail the next ApplyMigration at phase `at_phase`:
    ///   0 = before quiesce (validation) — clean reject, job untouched;
    ///   1 = after quiesce, before rebuild — engine must roll back to
    ///       the old plan and resume with zero tuple loss;
    ///   2 = after the new graph is wired — too late to roll back; the
    ///       engine declares the job dead (the supervisor's recovery
    ///       path takes over from the last checkpoint).
    kFailMigration,
  };

  Kind kind = Kind::kCrash;
  /// Target logical operator id and replica index (ignored by
  /// kFailMigration, which targets the migration machinery itself).
  int op = -1;
  int replica = 0;
  /// Progress trigger: fire once the replica's processed-tuple count
  /// reaches this value.
  uint64_t after_tuples = 0;
  /// kFailMigration phase selector (see kind docs).
  int at_phase = 0;
  /// How many times this spec may fire across the job's lifetime
  /// (re-arming survives recovery rebuilds). Default: once.
  int trigger_limit = 1;
};

inline const char* FaultKindName(FaultSpec::Kind k) {
  switch (k) {
    case FaultSpec::Kind::kCrash:
      return "crash";
    case FaultSpec::Kind::kThrow:
      return "throw";
    case FaultSpec::Kind::kStall:
      return "stall";
    case FaultSpec::Kind::kWedgePush:
      return "wedge-push";
    case FaultSpec::Kind::kFailMigration:
      return "fail-migration";
  }
  return "unknown";
}

/// The job's failure scenario: an ordered list of FaultSpecs plus
/// fire-count bookkeeping. The plan object is shared by value through
/// EngineConfig; the engine tracks remaining triggers in its own armed
/// copies, so one FaultPlan literal describes one reproducible run.
struct FaultPlan {
  std::vector<FaultSpec> specs;

  bool empty() const { return specs.empty(); }

  FaultPlan& Crash(int op, int replica, uint64_t after_tuples) {
    specs.push_back({FaultSpec::Kind::kCrash, op, replica, after_tuples, 0, 1});
    return *this;
  }
  FaultPlan& Throw(int op, int replica, uint64_t after_tuples) {
    specs.push_back({FaultSpec::Kind::kThrow, op, replica, after_tuples, 0, 1});
    return *this;
  }
  FaultPlan& Stall(int op, int replica, uint64_t after_tuples) {
    specs.push_back({FaultSpec::Kind::kStall, op, replica, after_tuples, 0, 1});
    return *this;
  }
  FaultPlan& WedgePush(int op, int replica, uint64_t after_tuples) {
    specs.push_back(
        {FaultSpec::Kind::kWedgePush, op, replica, after_tuples, 0, 1});
    return *this;
  }
  FaultPlan& FailMigration(int at_phase) {
    specs.push_back({FaultSpec::Kind::kFailMigration, -1, 0, 0, at_phase, 1});
    return *this;
  }
};

}  // namespace brisk::engine
