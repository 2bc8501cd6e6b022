// Supervisor: the watchdog + checkpoint controller that makes a
// BriskRuntime job fault-tolerant.
//
// A controller thread (same shape as the Job autopilot) wakes every
// heartbeat interval and
//   - takes periodic checkpoints (BriskRuntime::Checkpoint — the
//     pause-and-migrate quiesce reused as a consistent snapshot),
//     keeping the latest serialized payload as the recovery base;
//   - probes health (BriskRuntime::ProbeHealth): contained operator
//     failures (a bolt threw / an injected crash fired), a dead engine
//     (failed migration), and stalled tasks — no progress across
//     consecutive probes while holding queued input or parked output,
//     which also catches drain deadlocks (a wedged producer never
//     retires its parked envelope);
//   - recovers: bounded exponential backoff, then restore from the
//     last checkpoint (sources rewound, keyed state restored,
//     at-least-once replay of the window since the checkpoint);
//   - gives up cleanly: after max_restarts the circuit breaker opens
//     and the report carries Status::Unavailable instead of a retry
//     loop that can never converge.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/checkpoint.h"
#include "engine/runtime.h"

namespace brisk::engine {

struct SupervisorOptions {
  /// Watchdog probe cadence. Detection latency for a crash/stall is
  /// bounded by stall_probes + 1 intervals (≤ 2× with the defaults).
  double heartbeat_interval_s = 0.05;
  /// Periodic checkpoint cadence; <= 0 keeps only the initial
  /// checkpoint taken at Start().
  double checkpoint_interval_s = 0.0;
  /// Consecutive no-progress probes (while holding work) that flag a
  /// task as stalled.
  int stall_probes = 2;
  /// Circuit breaker: successful restarts allowed before the
  /// supervisor gives up with Status::Unavailable.
  int max_restarts = 3;
  /// Exponential backoff before each recovery attempt, reset by a
  /// healthy probe cycle.
  double backoff_initial_s = 0.02;
  double backoff_multiplier = 2.0;
  double backoff_max_s = 1.0;
};

/// One detected failure and the recovery attempt it triggered.
struct RecoveryRecord {
  double at_seconds = 0.0;  ///< offset from Supervisor::Start
  std::string cause;
  /// Detect → engine running again (includes the backoff wait).
  double recovery_seconds = 0.0;
  /// Source positions rolled back: the duplicate-emission window.
  uint64_t replayed_tuples = 0;
  bool succeeded = false;
  std::string error;
};

struct SupervisionReport {
  int checkpoints = 0;
  int failures_detected = 0;
  int restarts = 0;  ///< successful recoveries
  uint64_t replayed_tuples = 0;
  double checkpoint_pause_s = 0.0;  ///< total job pause for snapshots
  std::vector<RecoveryRecord> recoveries;
  /// OK while supervised; Unavailable once the circuit breaker opened.
  Status final_status;
};

class Supervisor {
 public:
  /// `runtime` must be started and must outlive the supervisor.
  Supervisor(BriskRuntime* runtime, SupervisorOptions options)
      : runtime_(runtime), options_(options) {}
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Takes the initial checkpoint (recovery always has a base) and
  /// spawns the controller thread.
  Status Start();

  /// Joins the controller (idempotent) and returns the final report.
  SupervisionReport Stop();

  /// Snapshot of the report so far, safe from any thread.
  SupervisionReport Snapshot() const;

 private:
  void Loop();
  /// Interruptible sleep; false when Stop was signaled.
  bool SleepFor(double seconds);
  /// Empty string = healthy. Maintains the per-task stall counters.
  std::string DetectFailure(const HealthReport& health);
  void Recover(const std::string& cause);
  Status TakeCheckpoint();

  BriskRuntime* runtime_;
  SupervisorOptions options_;

  // Last good checkpoint: serialized payload + its plan (plans are
  // engine objects, not wire data — DeserializeCheckpoint re-attaches
  // the one stored alongside the bytes). Controller thread only,
  // except the initial checkpoint written by Start().
  std::vector<uint8_t> checkpoint_bytes_;
  model::ExecutionPlan checkpoint_plan_;
  std::chrono::steady_clock::time_point last_checkpoint_;
  std::chrono::steady_clock::time_point started_at_;

  // Stall-detection state (controller thread only). Reset whenever
  // the plan epoch or instance space changes.
  std::vector<uint64_t> last_tuples_;
  std::vector<int> no_progress_;
  // Stuck-worker state: a pool worker whose scheduling heartbeat
  // freezes while its run queue still holds tasks is a wedged
  // scheduler thread, distinct from a stalled task.
  std::vector<uint64_t> last_heartbeats_;
  std::vector<int> worker_no_progress_;
  int tracked_epoch_ = -1;
  int backoff_step_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  SupervisionReport report_;  ///< guarded by mu_
  std::thread thread_;
};

}  // namespace brisk::engine
