// Discrete-event simulator of a placed execution plan.
//
// This is the measurement substrate that stands in for the paper's
// eight-socket servers (README, "Hardware substitution"): it executes a
// plan instance-by-instance with per-tuple service times from the
// profiles (T_e) plus relative-location fetch costs (Formula 2),
// jumbo-tuple batching, bounded queues with back-pressure, and spout rate control.
// Unlike the analytical model it captures queueing, batching and
// pipeline-stall effects, so simulated ("measured") throughput differs
// from the model's estimate the same way the paper's Table 4 does.
//
// The NUMA fetch cost is additionally modulated by a hardware-prefetch
// efficiency factor: multi-cache-line tuples fetch cheaper per line
// than Formula 2 predicts (the paper observes exactly this for the
// Splitter in Table 3), single-line tuples slightly dearer.
//
// Tuple-size convention: the per-tuple N feeding Formula 2 here (each
// edge's bytes_per_tuple, from the profiles' output_bytes, ultimately
// Tuple::SizeBytes()) is the *logical* payload size. It is invariant
// to the in-memory tuple layout — inline vs spilled fields report the
// same N — so the engine's zero-allocation representation
// (common/tuple.h) and this cost model cannot drift apart.
#pragma once

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "hardware/machine_spec.h"
#include "model/execution_plan.h"
#include "model/operator_profile.h"

namespace brisk::sim {

/// Simulation knobs.
struct SimConfig {
  /// Simulated steady-state measurement window (seconds).
  double duration_s = 0.25;
  /// Simulated warm-up excluded from all statistics.
  double warmup_s = 0.05;
  /// Jumbo-tuple size: tuples per batch (§5.2).
  int batch_size = 64;
  /// Queue capacity between two instances, in batches.
  int queue_capacity_batches = 64;
  /// External ingress rate I in tuples/sec; <= 0 means saturated
  /// (spouts always have input — the §6.1 max-capacity setup).
  double input_rate_tps = 0.0;
  /// Partially filled output buffers are flushed at this simulated
  /// interval so low-rate streams still make progress.
  double flush_interval_s = 0.0005;
  /// Apply the prefetch-efficiency adjustment to fetch costs (leave on;
  /// off makes "measured" equal the analytical estimate for Table 3's
  /// estimated column sanity checks).
  bool prefetch_adjust = true;

  /// Substitute every remote-fetch cost with zero — the Fig. 10
  /// "W/o rma" bound (same plan, RMA erased).
  bool zero_fetch = false;
};

/// Per-instance simulation statistics (measurement window only).
struct SimInstanceStats {
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  double busy_ns = 0.0;     ///< time spent processing
  double blocked_ns = 0.0;  ///< time stalled on full downstream queues
};

/// Simulation output.
struct SimResult {
  /// Sink tuples per second over the measurement window — the
  /// "measured" application throughput R.
  double throughput_tps = 0.0;
  /// End-to-end tuple latency (ns) sampled at sinks.
  Histogram latency_ns;
  std::vector<SimInstanceStats> instances;
  /// Inter-socket traffic in bytes/sec, row-major [from * n + to].
  std::vector<double> link_traffic_bps;
  /// Total simulated events processed (diagnostics).
  uint64_t events = 0;
};

/// Runs one simulation of `plan` (must be fully placed).
StatusOr<SimResult> Simulate(const hw::MachineSpec& machine,
                             const model::ProfileSet& profiles,
                             const model::ExecutionPlan& plan,
                             const SimConfig& config = {});

}  // namespace brisk::sim
