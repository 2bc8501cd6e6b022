// Runtime statistics → operator profiles: the one place operator costs
// are measured. §3.1 instantiates the cost model from a profiling run
// (ProfileTopology: the topology on one worker, measured by the
// engine's own counters), and §5.3 closes the loop on the live job:
// "In practice, they can be periodically collected during runtime and
// the optimization needs to be re-performed accordingly."
//
// Both derive a ProfileSet from an engine run's TaskStats, so the
// profiles the planner starts from and the ones the DynamicReoptimizer
// (optimizer/dynamic.h) compares against them share one definition.
#pragma once

#include <vector>

#include "api/topology.h"
#include "common/status.h"
#include "engine/runtime.h"
#include "model/execution_plan.h"
#include "model/operator_profile.h"

namespace brisk::engine {

struct ObservationConfig {
  /// Clock used to express observed T_e in cycles (profiles are stored
  /// in cycles so they transfer across machines, §3.1). Defaults to a
  /// 1 GHz reference: observed ns == cycles.
  double reference_ghz = 1.0;
};

/// The counters accrued between two snapshots of the same plan epoch
/// (`base` taken first): per-task and per-operator TaskStats::Since,
/// the totals and the elapsed time. Both snapshots must cover the same
/// task list.
RunStats StatsWindow(const RunStats& base, const RunStats& now);

/// Aggregates per-task statistics into per-operator observed profiles,
/// summing each operator's replicas:
///   T_e          = Σ busy_ns / Σ tuples_in (converted to cycles),
///   selectivity  = Σ stream_tuples_out[s] / Σ tuples_in, per stream,
///   N            = Σ stream_bytes_out[s] / Σ stream_tuples_flushed[s],
///                  per stream that flushed tuples to a consumer,
///   M            = input + output bytes per processed tuple, the input
///                  size read off the producers' streams it subscribes
///                  to (0 for spouts).
/// N of a stream that flushed nothing keeps the planned entry (64
/// bytes without one). Operators whose tasks processed no tuples, or
/// were charged no busy time for them (a short window can split a
/// batch's busy time from its tuple count), keep their planned entry,
/// or are left out when `planned` has none.
StatusOr<model::ProfileSet> ObserveProfiles(
    const api::Topology& topo, const model::ExecutionPlan& plan,
    const RunStats& stats, const model::ProfileSet& planned,
    const ObservationConfig& config = {});

/// Knobs of the §3.1 profiling run (ProfileTopology).
struct ProfilerConfig {
  /// Spout tuples in the measured window.
  int samples = 20000;
  /// Reference clock used to convert measured ns to cycles (profiles
  /// store cycles so they transfer across machines, §3.1).
  double reference_ghz = 1.2;
  /// Spout tuples produced before the window opens (caches, allocator
  /// pools and operator state warm up).
  int warmup_samples = 2000;
};

/// §3.1 model instantiation: runs `topo` with every operator at
/// replication 1 on one worker of socket 0 — no NUMA emulation,
/// faults, pacing or pinning — and observes the window between the
/// snapshots after `warmup_samples` and after `warmup_samples +
/// samples` spout tuples. T_e is therefore the mean over the window
/// (what the autopilot observes too). The window stays open until
/// every operator has processed a tuple in it; past a fixed deadline
/// (5 s) the run fails with an error naming the operators that saw
/// none. When `windows` is non-null it receives the profiles of the
/// consecutive ~1 ms polling windows inside the measured one, each
/// holding the operators that processed tuples in it (Fig. 3's
/// distribution).
StatusOr<model::ProfileSet> ProfileTopology(
    const api::Topology& topo, const ProfilerConfig& config = {},
    std::vector<model::ProfileSet>* windows = nullptr);

/// Exponentially smooths a stream of windowed observations:
///   into = alpha * sample + (1 - alpha) * into
/// for T_e and each selectivity entry of every operator present in
/// both sets (operators only in `sample` are copied as-is). The §5.3
/// controller feeds per-interval ObserveProfiles results through this
/// so scheduling jitter in short windows does not read as workload
/// drift. alpha in (0, 1]; 1 replaces `into` with the raw sample.
void BlendProfiles(model::ProfileSet* into, const model::ProfileSet& sample,
                   double alpha);

}  // namespace brisk::engine
