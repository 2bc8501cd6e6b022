// Engine execution modes (§5, §6.5).
//
// BriskStream's own runtime passes tuple references through SPSC queues
// in jumbo-tuple batches. The legacy toggles re-introduce, as *real
// work*, the overheads distributed DSPSs pay per tuple — serialization,
// duplicated per-tuple headers and temporary objects, extra condition
// checking — which is how the Fig. 6/8/16 comparisons are reproduced on
// one machine. Every mode runs on the same socket-aware worker pool
// (engine/executor.h) with cooperative back-pressure; the presets
// differ in batching, data-plane cost and stealing.
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

  /// Per-edge queue capacity in batches; full queues exert
  /// back-pressure on the producer.
  size_t queue_capacity = 128;

  /// Serialize every batch at the producer and deserialize at the
  /// consumer (what a cross-process runtime must do). Such a runtime
  /// also allocates a fresh message per transfer, so serializing
  /// configs bypass the channel's BatchPool; pass-by-reference configs
  /// always recycle drained batch shells through it.
  bool serialize_tuples = false;

  /// Allocate + fill a per-tuple header object (duplicate metadata a
  /// jumbo tuple would share; §5.2).
  bool duplicate_headers = false;

  /// Run the per-tuple guard/bookkeeping work whose instruction
  /// footprint §5.1 eliminates (exception scaffolding, config checks).
  bool extra_condition_checks = false;

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

  /// Worker-pool producers treat a channel already holding this many
  /// undelivered batches as full and park the next one (cooperative
  /// back-pressure) instead of filling the whole ring. This bounds the
  /// cold in-flight inventory so batches are consumed cache-warm soon
  /// after production — with deep rings a single core otherwise
  /// accumulates megabytes of queued tuples and pays a capacity miss
  /// per batch. Clamped to queue_capacity; <= 0 disables the cap.
  int pool_inflight_batches = 16;

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

  /// Producer-side in-flight bound per channel, in batches: the
  /// cooperative cap clamped to the queue capacity, or kUncapped when
  /// disabled (the ring's own capacity is then the only bound). The
  /// single source of truth for both the task's park threshold and the
  /// channel's producer wake threshold — they must agree, or producers
  /// park at one occupancy and only wake (by timeout) at another.
  static constexpr size_t kUncapped = ~size_t{0};
  size_t EffectiveInflightCap() const {
    if (pool_inflight_batches <= 0) return kUncapped;
    return std::min(queue_capacity,
                    static_cast<size_t>(pool_inflight_batches));
  }

  /// BriskStream's native configuration.
  static EngineConfig Brisk() { return EngineConfig{}; }

  /// Brisk minus jumbo tuples (Fig. 16's middle step).
  static EngineConfig BriskNoJumbo() {
    EngineConfig c;
    c.batch_size = 1;
    c.queue_capacity = 4096;
    return c;
  }

  /// Storm-like: per-tuple serialization, duplicated headers, extra
  /// condition checks, no jumbo batching.
  static EngineConfig StormLike() {
    EngineConfig c;
    c.batch_size = 4;  // Storm's small executor transfer batches
    c.queue_capacity = 1024;
    c.serialize_tuples = true;
    c.duplicate_headers = true;
    c.extra_condition_checks = true;
    c.steal_work = false;  // legacy schedulers hash-pin executors
    return c;
  }

  /// Flink-like: network-stack serialization with larger buffers but
  /// still per-tuple headers.
  static EngineConfig FlinkLike() {
    EngineConfig c;
    c.batch_size = 16;
    c.queue_capacity = 512;
    c.serialize_tuples = true;
    c.duplicate_headers = true;
    c.steal_work = false;  // legacy schedulers hash-pin executors
    return c;
  }
};

}  // namespace brisk::engine
