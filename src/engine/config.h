// Engine configuration (§5).
//
// BriskStream's runtime passes tuple references through bounded SPSC
// queues in jumbo-tuple batches, on a socket-aware worker pool
// (engine/executor.h) with cooperative back-pressure. The per-tuple
// costs of Storm and Flink that Fig. 6/7/9/16 and Table 5 compare
// against are priced by their operator profiles
// (apps::ProfilesFor(…, SystemKind::kStormLike/kFlinkLike)) through the
// model and simulator, not emulated here.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "engine/fault.h"

namespace brisk::engine {

/// Spout token-bucket burst capacity, shared by the real engine
/// (Task::PollSpout) and the simulator so the model never drifts from
/// the runtime it predicts: enough headroom to recover the budget
/// accrued across a scheduler stall (tens of ms on a loaded host),
/// never less than a few batches.
inline constexpr double kSpoutBurstBatches = 4.0;
inline constexpr double kSpoutBurstHeadroomSec = 0.1;

inline double SpoutBurstCap(int batch_size, double rate_tps) {
  return std::max(kSpoutBurstBatches * batch_size,
                  kSpoutBurstHeadroomSec * rate_tps);
}

struct EngineConfig {
  /// Tuples per jumbo tuple (§5.2); 1 disables batching.
  int batch_size = 64;

  /// Per-edge bound in batches: a channel admits at most this many
  /// undelivered envelopes, and a producer facing a full one parks the
  /// next batch (cooperative back-pressure). Keeping it short bounds the
  /// cold in-flight inventory, so batches are consumed cache-warm soon
  /// after production — with deep queues a single core accumulates
  /// megabytes of queued tuples and pays a capacity miss per batch.
  size_t queue_capacity = 16;

  /// Charge Formula-2 remote-fetch stalls (busy-wait) for batches that
  /// cross virtual sockets in the plan (README, "Hardware
  /// substitution").
  bool numa_emulation = false;

  /// Pin execution threads to physical cores, derived from the plan's
  /// socket assignment (socket × cores-per-socket + slot) so RLAS
  /// placement is honored by the OS too. Meaningful only when the host
  /// has enough cores; defaults off for CI-sized machines.
  bool pin_threads = false;

  /// External ingress rate per topology (tuples/sec), 0 = saturated.
  double spout_rate_tps = 0.0;

  /// Job-level determinism seed. Nonzero: every operator replica
  /// receives a stable per-replica seed in OperatorContext::seed
  /// (DeriveSeed(seed, op, replica)), so seed-honoring sources make
  /// the whole run reproducible — the determinism the differential
  /// test layer builds on. 0 = unseeded (sources use their own
  /// workload-parameter defaults).
  uint64_t seed = 0;

  /// Worker threads per socket group of the pool executor. 0 derives it
  /// from the deployed MachineSpec's cores-per-socket, capped by the
  /// host's real core count split across the plan's sockets (so an
  /// emulated 8-socket plan on a laptop never spawns 144 workers).
  /// Job::Deploy replaces 0 with the budget it planned with.
  int workers_per_socket = 0;

  /// Morsel-style work stealing between pool workers: a worker whose
  /// own run queue yields no progress steals the least-recently-polled
  /// task from the deepest sibling in its socket group, and only after
  /// a few consecutive failed intra-socket rounds reaches across
  /// sockets — RLAS placement stays an affinity, not a
  /// straitjacket. Off pins every task to the worker the round-robin
  /// distribution gave it (PR-4 behavior, kept for A/B benching).
  bool steal_work = true;

  /// Stop() stops spouts first and lets bolts drain in-flight
  /// envelopes for up to this long before halting, so a bounded
  /// source's tuples all reach the sink instead of being dropped with
  /// the queues. Migration and checkpoint pauses use the same budget.
  /// 0 skips the wait: Stop() halts right after stopping the spouts.
  double drain_timeout_s = 1.0;

  /// Injected failure scenario (engine/fault.h). Empty = no faults.
  /// Deterministic under `seed`: triggers are tuple-count based, so a
  /// seeded job fails identically on every run.
  FaultPlan faults;

  /// BriskStream's native configuration.
  static EngineConfig Brisk() { return EngineConfig{}; }
};

}  // namespace brisk::engine
