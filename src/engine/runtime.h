// BriskRuntime: instantiates a placed execution plan into tasks +
// channels, executes them on the socket-aware worker pool, reports
// run statistics — and, closing the paper's §5.3 loop, applies live
// plan migrations (ApplyMigration) produced by the dynamic
// re-optimizer without dropping or duplicating a tuple.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/topology.h"
#include "common/status.h"
#include "engine/channel.h"
#include "engine/checkpoint.h"
#include "engine/config.h"
#include "engine/executor.h"
#include "engine/task.h"
#include "hardware/numa_emulator.h"
#include "hardware/topology.h"
#include "model/execution_plan.h"

namespace brisk::engine {

/// Statistics for one engine run.
struct RunStats {
  double duration_s = 0.0;
  std::vector<TaskStats> tasks;  ///< indexed by plan instance id
  uint64_t total_emitted = 0;
  uint64_t total_consumed = 0;
  /// Stop()'s drain reached quiescence before halting (always false
  /// when EngineConfig::drain_timeout_s is 0).
  bool drained = false;
  double drain_seconds = 0.0;
  ExecutorStats executor;

  /// Live migrations applied during the run (plan epochs - 1).
  int migrations = 0;
  /// Checkpoints taken and checkpoint restores performed.
  int checkpoints = 0;
  int restores = 0;
  /// Sticky: some quiesce drain (migration pause, checkpoint pause or
  /// graceful stop) ran past EngineConfig::drain_timeout_s. The engine
  /// recovered via the residual sweep, but the timeout budget was
  /// blown — surfaced so callers can treat it as a soft failure.
  bool drain_timed_out = false;
  /// Per-operator counters accumulated across migration epochs,
  /// indexed by topology operator id: surviving replicas carry their
  /// counters across epochs and retired replicas fold in here at
  /// migration time, so edge-conservation invariants (splitter out ==
  /// counter in, ...) hold for the whole run no matter how the plan
  /// changed mid-flight. Filled by Stop()/SnapshotStats().
  std::vector<TaskStats> op_totals;
};

/// Liveness/failure view of one task, as sampled by ProbeHealth().
struct TaskHealth {
  int op = -1;
  int replica = 0;
  std::string op_name;
  bool spout = false;
  /// Progress counter: tuples consumed (bolts) / emitted shells seen
  /// (spouts count via tuples_in too — batches are self-consumed).
  uint64_t tuples_in = 0;
  /// Approximate tuples queued on this task's input channels.
  uint64_t backlog = 0;
  /// Envelopes parked on back-pressure inside the task.
  size_t pending_live = 0;
  /// The task contained an operator failure (exception or injected
  /// crash) and retired itself; `failure_message` says which operator
  /// replica threw and why.
  bool failed = false;
  std::string failure_message;
};

/// One supervisor probe: per-task health plus executor liveness.
struct HealthReport {
  bool running = false;
  /// A migration/restore failed past its point of no return; the
  /// engine is down until Restore() revives it.
  bool dead = false;
  std::vector<TaskHealth> tasks;
  /// Per-worker scheduling-pass counters.
  std::vector<uint64_t> worker_heartbeats;
  /// Per-worker run-queue depths, sampled with the heartbeats: a
  /// frozen heartbeat is only a stuck *worker* if that worker still
  /// holds queued tasks.
  std::vector<size_t> worker_queue_depths;
};

/// Owns tasks, channels and the executor for one deployed application.
///
/// Lifecycle: Create() -> Start() -> (workload runs, ApplyMigration()
/// zero or more times) -> Stop(). Start/Stop/ApplyMigration/
/// SnapshotStats are serialized by an internal mutex, so a controller
/// thread (Job autopilot) can drive migrations while another thread
/// owns Start/Stop. Throughput/latency are observed through the
/// application's SinkTelemetry (common/telemetry.h), which sink
/// operators update.
class BriskRuntime {
 public:
  /// Builds the runtime: instantiates every operator replica via its
  /// factory, wires one SPSC channel per (producer instance, consumer
  /// instance) edge, and prepares operators. The plan must be fully
  /// placed; the topology must outlive the runtime. `numa` supplies the
  /// emulated machine's fetch costs, charged only when
  /// config.numa_emulation is set.
  static StatusOr<std::unique_ptr<BriskRuntime>> Create(
      const api::Topology* topo, const model::ExecutionPlan& plan,
      EngineConfig config, const hw::NumaEmulator* numa = nullptr);

  ~BriskRuntime();

  BriskRuntime(const BriskRuntime&) = delete;
  BriskRuntime& operator=(const BriskRuntime&) = delete;

  /// Stands up the socket-aware worker pool honoring the plan's
  /// placement. Idempotent-error: fails if running.
  Status Start();

  /// Stops the engine and returns run statistics. Stop pauses exactly
  /// like a migration or a checkpoint (spouts stop, bolts drain
  /// in-flight envelopes for up to drain_timeout_s, the pool halts and
  /// the residual sweep delivers what the halt caught), then flushes
  /// every operator in topological order: an operator flushes once
  /// everything upstream of it, finals included, has landed, and its
  /// own finals are swept on before the next operator flushes. Every
  /// tuple a spout emitted, and every final an operator emits, reaches
  /// its consumer, however short the drain budget or the rings.
  RunStats Stop();

  /// Convenience: Start, sleep `seconds` of wall-clock, Stop.
  StatusOr<RunStats> RunFor(double seconds);

  /// Live pause-and-migrate re-planning (§5.3): switches the running
  /// job to `next`, e.g. the plan DynamicReoptimizer::Check proposed.
  /// The protocol:
  ///
  ///   1. pause — spouts stop at a batch boundary, bolts drain
  ///      in-flight envelopes (parked workers idle), the executor
  ///      joins, and a residual sweep of
  ///      repeated topological Task::Drain passes pushes every
  ///      remaining staged/parked/queued tuple through to the sinks
  ///      (operators are NOT flushed: the job continues);
  ///   2. harvest — operator instances move out of their tasks,
  ///      keeping all internal state; replicas of operators whose
  ///      replication changes snapshot their keyed state
  ///      (api::Operator::SnapshotKeyedState, the checkpoint codec);
  ///   3. rebuild — tasks and channels are rewired against `next`;
  ///      surviving (op, replica) identities adopt their old operator
  ///      instance and cumulative stats, new replicas are constructed
  ///      and Prepared, retired replicas fold their stats into the
  ///      per-operator totals;
  ///   4. re-partition — snapshotted keyed state is re-bucketed with
  ///      ReplicaOfKey over the new replica count and restored into
  ///      every new replica, replacing what surviving replicas held
  ///      (exactly as Restore installs a checkpoint);
  ///   5. resume — a fresh worker pool starts, with thread pinning
  ///      derived from the *new* socket assignment.
  ///
  /// `next` is checked before the pause: a plan over another topology
  /// object or with unplaced instances is rejected and leaves the job
  /// running undisturbed, and a plan equal to the running one returns
  /// OK without pausing. Fails if the engine is not running.
  Status ApplyMigration(const model::ExecutionPlan& next);

  /// The plan currently executing (the migrated plan after
  /// ApplyMigration). Callers must not retain the reference across
  /// migrations.
  const model::ExecutionPlan& plan() const { return plan_; }

  /// Monotonic plan-epoch counter: 0 after Create, +1 per applied
  /// migration. A statistics observer uses it to notice that per-task
  /// indices changed under it.
  int epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Race-free snapshot of the running job's counters (tasks indexed
  /// by the *current* plan's instance ids, per-op totals across
  /// epochs) without stopping anything — the §5.3 "statistics are
  /// periodically collected during runtime" hook the autopilot feeds
  /// from.
  RunStats SnapshotStats();

  /// Takes a consistent snapshot of the running job: quiesces with the
  /// pause-and-migrate machinery (spouts stop at a batch boundary,
  /// in-flight envelopes drain/sweep to the sinks), captures every
  /// bolt's keyed state (api::Operator::SnapshotKeyedState — non-
  /// destructive) and every source's replay position, then resumes on
  /// a fresh executor. The pause cost is reported in
  /// JobCheckpoint::pause_seconds. Fails if the engine is not running.
  StatusOr<JobCheckpoint> Checkpoint();

  /// Recovers the job from `cp`: hard-halts whatever is left of the
  /// current graph (no drain — a failed graph may be wedged), folds
  /// its counters into the per-op totals, rebuilds tasks + channels to
  /// the checkpoint's plan with all-fresh operators, restores keyed
  /// state (re-bucketed by the fields-grouping hash), rewinds
  /// replayable sources to the captured positions and resumes.
  /// Delivery is at-least-once: tuples produced after the checkpoint
  /// replay. `replayed_tuples` (nullable) receives the total source
  /// positions rolled back — the duplicate-emission window. Valid from
  /// both a running (partially failed) and a dead engine.
  Status Restore(const JobCheckpoint& cp,
                 uint64_t* replayed_tuples = nullptr);

  /// Race-free liveness sample for the supervisor: per-task progress
  /// counters, input backlog, parked envelopes and contained-failure
  /// state, plus per-worker executor heartbeats.
  HealthReport ProbeHealth();

  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  /// Channels the current plan is wired with (model::WiredOneToOne
  /// chains get one per replica, every other edge one per pair).
  int num_channels() const { return static_cast<int>(channels_.size()); }

 private:
  BriskRuntime() = default;

  /// Instantiates tasks + channels for `plan` and prepares operators.
  /// `reuse` (nullable) supplies the surviving operator instance and
  /// cumulative stats for an (op, replica) identity; fresh instances
  /// come from the topology factories and get Prepared.
  struct Harvested {
    std::unique_ptr<api::Spout> spout;
    std::unique_ptr<api::Operator> bolt;
    TaskStats stats;
    bool valid = false;
  };
  Status WireGraph(const model::ExecutionPlan& plan,
                   const std::function<Harvested(int op, int replica)>& reuse);

  /// Binds tasks and stands up a fresh executor for the current graph.
  Status StartExecutor();

  /// Marks the job dead — executor down, graph unusable until a
  /// Restore, counters still reportable through Stop() — and returns
  /// `why`.
  Status Die(Status why);

  /// StartExecutor after a pause; a job that cannot resume dies.
  Status ResumeOrDie();

  /// Buckets bolt `op`'s keyed-state entries exactly like a fields
  /// grouping routes tuples (ReplicaOfKey over the current plan's
  /// replication) and restores every replica's bucket — empty ones
  /// too, so a surviving replica drops keys that now live elsewhere.
  /// The one keyed-state hand-off of ApplyMigration and Restore.
  void RestoreOperatorState(int op, std::vector<api::CheckpointEntry> entries);

  /// The one lossless pause of Stop, ApplyMigration and Checkpoint:
  /// stops spouts, waits for the drain (up to drain_timeout_s; its
  /// outcome and duration go to `stats` when non-null), halts and
  /// joins the executor, and sweeps the residuals. Returns whether the
  /// sweep reached quiescence; only a wedged push leaves it short.
  bool Pause(RunStats* stats = nullptr);

  /// Halts (stop_all), joins, and folds the executor's counters into
  /// the accumulated totals — the epilogue shared by every teardown.
  void JoinExecutorAndFold();

  /// Repeated topological Task::Drain passes until every channel is
  /// empty and nothing is parked (single-threaded; executor joined).
  /// Returns whether that state was reached; a pass that moves nothing
  /// ends the sweep short.
  bool SweepResiduals();

  /// Polls until every channel is empty and consumption has stopped
  /// advancing (or `timeout_s` elapses). Spouts must already be
  /// stopped. Returns true on quiescence.
  bool WaitForDrain(double timeout_s);

  /// Sums current task stats (plus retired-replica carry-overs) into
  /// per-operator totals.
  std::vector<TaskStats> OpTotals() const;

  /// Fills the run-level counters every reporting path shares:
  /// duration since Start, migration count, per-task snapshots,
  /// cross-epoch per-op totals and the emitted/consumed sums.
  /// (ExecutorStats are the caller's concern — they are only safely
  /// readable once the executor joined.)
  void CollectStats(RunStats* stats) const;

  const api::Topology* topo_ = nullptr;
  EngineConfig config_;
  const hw::NumaEmulator* numa_ = nullptr;
  /// The host's real NUMA layout, detected once at Create; the
  /// executor's node-aware pinning reads it.
  hw::HostTopology host_;
  model::ExecutionPlan plan_;  ///< the plan currently wired/running
  std::vector<int> instance_sockets_;
  std::vector<int> instance_op_;  ///< operator id per instance
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::unique_ptr<Executor> executor_;
  StopSignals signals_;
  bool running_ = false;
  /// A migration failed past its point of no return: the engine is
  /// down but its counters are still reportable through Stop().
  bool dead_ = false;
  std::chrono::steady_clock::time_point started_at_;

  /// Serializes Start/Stop/ApplyMigration/SnapshotStats.
  std::mutex lifecycle_mu_;
  std::atomic<int> epoch_{0};
  int migrations_ = 0;
  int checkpoints_ = 0;
  int restores_ = 0;
  /// Sticky drain-timeout flag (see RunStats::drain_timed_out).
  bool drain_timed_out_ = false;
  /// Fire count per EngineConfig::faults spec, accumulated across
  /// graph rebuilds (fresh tasks would otherwise re-arm and re-fire a
  /// one-shot fault after every recovery). Harvested from the old
  /// tasks at the top of WireGraph; arming honors trigger_limit.
  std::vector<int> fault_fires_;
  /// Stats of replicas retired by migrations, folded per operator.
  std::vector<TaskStats> retired_op_stats_;
  /// Park/wake counters of executors torn down by migrations.
  ExecutorStats retired_executor_;
};

}  // namespace brisk::engine
