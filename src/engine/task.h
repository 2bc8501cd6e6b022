// Task: the basic processing unit of BriskStream (Appendix A) — an
// executor wrapping one operator replica plus a partition controller
// that buffers output tuples into per-consumer jumbo tuples.
//
// The worker pool drives a task through Poll(budget), a resumable work
// quantum: a spout produces up to `budget` batches, a bolt drains up to
// `budget` envelopes, and a task blocked on back-pressure parks the
// un-pushable envelope and returns kBlocked instead of spinning, so one
// worker can round-robin many tasks without oversubscribing the core.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/operator.h"
#include "api/pipeline.h"
#include "api/topology.h"
#include "common/logging.h"
#include "common/relaxed_counter.h"
#include "engine/channel.h"
#include "engine/config.h"
#include "hardware/numa_emulator.h"

namespace brisk::engine {

/// One outgoing route of a task: a topology edge materialized against
/// the consumer's replicas.
struct OutRoute {
  uint16_t stream_id = 0;
  api::GroupingType grouping = api::GroupingType::kShuffle;
  size_t key_field = 0;
  /// One entry per consumer replica (kGlobal keeps only replica 0);
  /// parallel to `buffers` indices stored here.
  std::vector<Channel*> channels;
  std::vector<int> buffer_index;  ///< into Task::buffers_
  size_t rr_cursor = 0;
};

/// Counters a task exports. Written only by the owning executor
/// thread; other threads read them for monitoring (the §5.3
/// statistics-collection loop behind live re-optimization) — each
/// counter is a RelaxedCounter, so cross-thread snapshots are
/// race-free and approximately consistent.
struct TaskStats {
  RelaxedCounter tuples_in;
  RelaxedCounter tuples_out;
  RelaxedCounter batches_in;
  RelaxedCounter batches_out;
  /// Outbound batches whose shell came from the channel's recycle
  /// queue instead of the allocator (BatchPool hit rate).
  RelaxedCounter batches_recycled;
  /// Envelopes parked for cooperative retry because the consumer's
  /// queue was full (the Pending-reschedule path).
  RelaxedCounter backpressure_parks;
  /// Wall time spent inside operator Process()/NextBatch() calls, ns.
  RelaxedCounter busy_ns;
  /// Tuples that entered through the compiled-pipeline batch path
  /// (CompiledPipeline::RunBatch) instead of per-tuple Process. Equal
  /// to tuples_in when the bolt runs fully vectorized; 0 when it runs
  /// interpreted — the JobReport's execution-mode indicator.
  RelaxedCounter tuples_vec;
  /// Emulated remote-fetch stall charged in Consume before the operator
  /// runs, ns. Kept out of busy_ns so observed T_e stays the operator's.
  RelaxedCounter numa_stall_ns;
  /// Per declared output stream (index = stream id): tuples emitted,
  /// added when the batch that emitted them is added to tuples_in (so
  /// a snapshot never sees a batch's outputs without its inputs); and,
  /// once per batch flushed to a consumer, its tuple count and its
  /// bytes as the first tuple's SizeBytes() x that count (the size the
  /// NUMA emulator charges).
  /// Average tuple size is bytes / flushed: emitted tuples still staged
  /// at a snapshot would skew it on low-rate streams. Sized at wiring,
  /// before the task runs, so readers never see them resize.
  std::vector<RelaxedCounter> stream_tuples_out;
  std::vector<RelaxedCounter> stream_tuples_flushed;
  std::vector<RelaxedCounter> stream_bytes_out;

  /// Member-wise accumulation (per-operator totals across migration
  /// epochs). Caller-thread-only, like every other mutation.
  void Accumulate(const TaskStats& o);

  /// The counters accrued since `base`, an earlier snapshot of the same
  /// task: the windowed view every statistics observer reads.
  TaskStats Since(const TaskStats& base) const;
};

/// Stop protocol shared by every executor: `stop_spouts` halts
/// production first (graceful drain), `stop_all` halts everything.
/// Owned by the runtime; outlives tasks and executor threads.
struct StopSignals {
  std::atomic<bool> stop_all{false};
  std::atomic<bool> stop_spouts{false};
};

/// Outcome of one cooperative work quantum.
enum class PollResult {
  kProgress,  ///< did work; poll again soon
  kIdle,      ///< no input / rate-limited; ok to back off
  kBlocked,   ///< back-pressured: an envelope is parked awaiting space
  kDone,      ///< bounded source exhausted (or spout stopped + flushed)
};

/// The partition controller + executor for one placed instance.
///
/// Single-threaded by construction: the owning pool worker is the only
/// caller after start; all other methods are wiring performed
/// before start.
class Task : public api::OutputCollector, public api::PipelineSink {
 public:
  Task(int instance_id, int socket, EngineConfig config,
       const hw::NumaEmulator* numa)
      : instance_id_(instance_id),
        chain_head_(instance_id),
        socket_(socket),
        config_(config),
        numa_(numa) {}

  /// Wiring (pre-start).
  void SetSpout(std::unique_ptr<api::Spout> spout) {
    spout_ = std::move(spout);
  }
  void SetBolt(std::unique_ptr<api::Operator> bolt) {
    bolt_ = std::move(bolt);
  }
  void AddInput(Channel* channel) { inputs_.push_back(channel); }
  void AddOutRoute(OutRoute route);
  /// Registers one output buffer per channel; returns its index.
  int AddBuffer();
  /// Socket of every instance in the plan (for NUMA charging of
  /// inbound batches); owned by the runtime, outlives the task.
  void SetInstanceSockets(const std::vector<int>* sockets) {
    instance_sockets_ = sockets;
  }
  /// Per-instance ingress rate (the runtime splits the topology rate
  /// across spout replicas).
  void SetSpoutRate(double tuples_per_sec) {
    rate_per_instance_ = tuples_per_sec;
  }
  /// First instance of the one-to-one wired replica chain this task
  /// belongs to (its own id when none); the pool starts a chain's
  /// tasks on one worker.
  void SetChainHead(int instance_id) { chain_head_ = instance_id; }

  /// Records which logical replica this task wraps, for failure
  /// diagnostics and fault arming, and sizes the per-stream output
  /// counters to the operator's declared streams. Called by the
  /// runtime at wiring.
  void SetIdentity(int op, int replica, std::string op_name,
                   size_t num_streams = 1) {
    op_ = op;
    replica_ = replica;
    op_name_ = std::move(op_name);
    stats_.stream_tuples_out.resize(num_streams);
    stream_out_tally_.assign(num_streams, 0);
    stats_.stream_tuples_flushed.resize(num_streams);
    stats_.stream_bytes_out.resize(num_streams);
  }

  /// Arms an injected fault (engine/fault.h) against this replica.
  /// `index` keys the runtime's cross-rebuild fire accounting.
  void ArmFault(int index, const FaultSpec& spec) {
    faults_.push_back({index, spec, false});
  }

  /// Indices (into EngineConfig::faults.specs) of armed faults that
  /// fired during this run. Only read after the execution thread
  /// joined.
  std::vector<int> FiredFaultIndices() const {
    std::vector<int> out;
    for (const auto& f : faults_) {
      if (f.fired) out.push_back(f.index);
    }
    return out;
  }

  int instance_id() const { return instance_id_; }
  int chain_head() const { return chain_head_; }
  int socket() const { return socket_; }
  bool is_spout() const { return spout_ != nullptr; }
  api::Operator* bolt() { return bolt_.get(); }
  api::Spout* spout() { return spout_.get(); }
  int op() const { return op_; }
  int replica() const { return replica_; }
  const std::string& op_name() const { return op_name_; }

  /// True once an operator call threw (contained as a task failure
  /// instead of process death). After the acquire-load returns true,
  /// failure_message() is stable and safe to read from any thread.
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  const std::string& failure_message() const { return failure_message_; }

  /// True once an injected stall latched (the task stays scheduled but
  /// consumes nothing). For tests; the supervisor detects stalls from
  /// progress counters, not this flag.
  bool stall_injected() const {
    return stalled_.load(std::memory_order_relaxed);
  }

  /// Live-migration harvest: moves the operator instance (and its
  /// state) out of this task so a successor task for the same
  /// (operator, replica) in the next plan epoch can adopt it. The
  /// husk is destroyed afterwards.
  std::unique_ptr<api::Spout> TakeSpout() { return std::move(spout_); }
  std::unique_ptr<api::Operator> TakeBolt() { return std::move(bolt_); }

  /// Seeds this task's counters with a predecessor's, so per-replica
  /// stats stay cumulative across migration epochs.
  void SeedStats(const TaskStats& stats) { stats_ = stats; }

  Status Prepare(const api::OperatorContext& ctx);

  /// Arms the task for one run: stop protocol and compiled dispatch.
  void Bind(const StopSignals* signals);

  /// One cooperative quantum (see PollResult). Requires a prior Bind.
  PollResult Poll(int budget);

  /// Post-join drain: consumes everything still queued on the inputs,
  /// forces staged batches out and retries parked envelopes. Pushes
  /// keep the channel bound (what does not fit parks), and each pass
  /// frees room downstream, so repeated topological passes converge
  /// with zero tuple loss. With `flush_operator` (Stop, once per run)
  /// the operator's Flush runs after the inputs are consumed, so
  /// stateful bolts' finals propagate to the sinks; the residual sweep
  /// passes false, since a paused job keeps running. A failed replica
  /// drops what it pops and is not flushed. Single-threaded: only call
  /// after all execution threads joined, in topological operator
  /// order.
  void Drain(bool flush_operator);

  const TaskStats& stats() const { return stats_; }

  /// Envelopes currently parked on cooperative back-pressure. Written
  /// only by the owning worker; other threads read it for the drain
  /// monitor (relaxed, like TaskStats).
  size_t pending_live() const { return pending_live_; }

  /// Scheduler scratch: consecutive polls without progress, maintained
  /// by whichever pool worker currently runs this task (ownership
  /// transfers with the task on a steal, so this is single-writer like
  /// the rest of the task). Drives cross-socket repatriation.
  int sched_idle_streak() const { return sched_idle_streak_; }
  void set_sched_idle_streak(int n) { sched_idle_streak_ = n; }

  // OutputCollector (called by the wrapped operator during Process).
  void Emit(Tuple t) override { EmitTo(0, std::move(t)); }
  void EmitTo(uint16_t stream_id, Tuple t) override;

  // PipelineSink (called by the bolt's CompiledPipeline at the end of
  // RunBatch): routes each surviving tuple exactly as a Process-time
  // Emit would, so compiled and interpreted execution share the whole
  // partition-controller path (stats, grouping, batching).
  void ConsumeSelected(JumboTuple* batch, const SelectionVector& sel) override;

 private:
  PollResult PollSpout(int budget);
  PollResult PollBolt(int budget);

  /// Handles one inbound envelope (NUMA charge, process) and recycles the drained batch shell back through `from`.
  void Consume(Envelope env, Channel* from);

  /// Moves `t` into consumer `i`'s jumbo buffer on `route`, flushing
  /// when the batch fills. The single move is the whole routing cost.
  void AppendTuple(OutRoute& route, size_t i, Tuple&& t);

  /// Moves a full (or, with force, partial) buffer into its channel.
  /// Returns false when back-pressure parked the envelope.
  bool FlushBuffer(int buffer_idx, Channel* channel, bool force);
  bool FlushAll(bool force);

  /// BatchPool lookup for a flush into `channel`: its own recycle queue
  /// first, then those of this task's other output channels. This task
  /// is the only popper of every one of them, so each stays SPSC, and
  /// one channel's idle shells cover another's burst.
  bool TakeRecycledShell(Channel* channel, JumboTuplePtr* batch);

  /// Delivers one envelope, or parks it in `pending_` and returns
  /// false when the channel is full (or behind an earlier parked
  /// envelope).
  bool PushEnvelope(Envelope&& env, Channel* channel);

  /// Retries parked envelopes in FIFO order; false while any remain.
  bool TryDrainPending();

  /// Throws when an armed crash/throw fault crosses its progress
  /// trigger — always called from inside a containment region.
  void MaybeThrowInjected();

  /// Latches (and returns) the stalled state, firing armed stall
  /// faults that crossed their trigger.
  bool StallInjected();

  /// Confiscates `env` when an armed wedge-push fault fires: the
  /// envelope parks at the head of pending_ and is never retried, so
  /// pending_live() stays nonzero forever (the drain-deadlock
  /// scenario). Returns true when it fired.
  bool MaybeWedgePush(Envelope& env, Channel* channel);

  /// Publishes an operator failure: operator name + replica + cause,
  /// then the failed_ release-store.
  void RecordFailure(const std::string& what);

  /// Adds the emits tallied since the last call to
  /// stats_.stream_tuples_out.
  void FoldStreamTally();

  int instance_id_;
  int chain_head_;
  int socket_;
  EngineConfig config_;
  const hw::NumaEmulator* numa_;

  std::unique_ptr<api::Spout> spout_;
  std::unique_ptr<api::Operator> bolt_;
  /// Non-null when the bolt exposes a compiled pipeline (KernelBolt),
  /// which then runs every batch; owned by the bolt. Set at Bind.
  api::CompiledPipeline* pipe_ = nullptr;

  std::vector<Channel*> inputs_;
  const std::vector<int>* instance_sockets_ = nullptr;
  size_t in_cursor_ = 0;
  std::vector<OutRoute> routes_;
  /// Per-stream emits of the batch in progress (FoldStreamTally).
  std::vector<uint64_t> stream_out_tally_;
  /// routes_ index of the last route on each stream id (-1 = none):
  /// every earlier matching route copies the emitted tuple, the last
  /// one receives it by move.
  std::vector<int> last_route_for_stream_;
  std::vector<JumboTuple> buffers_;
  /// Per buffer: the stream whose output bytes its flushes count, or -1
  /// when another buffer already counts the same tuples (an earlier
  /// route on a multi-consumer stream, or a broadcast copy).
  std::vector<int> buffer_stream_;

  const StopSignals* signals_ = nullptr;
  bool source_done_ = false;
  /// Something may be staged in `buffers_` since the last successful
  /// force-flush — idle iterations skip the O(buffers) flush walk when
  /// clear (it matters: a 64-replica bolt owns hundreds of buffers).
  bool staged_dirty_ = false;

  /// Envelopes that could not be pushed under cooperative
  /// back-pressure, retried FIFO at the start of every Poll. While any
  /// are parked the task consumes no new input, so the list is bounded
  /// by one quantum's output fan-out.
  struct PendingPush {
    Envelope env;
    Channel* channel = nullptr;
  };
  std::vector<PendingPush> pending_;
  size_t pending_head_ = 0;
  /// pending_.size() - pending_head_, mirrored for cross-thread reads.
  RelaxedCounter pending_live_;

  // Replica identity + injected-fault state (engine/fault.h).
  int op_ = -1;
  int replica_ = 0;
  std::string op_name_;
  struct ArmedFault {
    int index = -1;  ///< spec index in EngineConfig::faults.specs
    FaultSpec spec;
    bool fired = false;
  };
  std::vector<ArmedFault> faults_;
  /// pending_ index a fired wedge-push parked its envelope at;
  /// TryDrainPending never advances past it.
  size_t wedged_slot_ = ~size_t{0};
  std::atomic<bool> stalled_{false};
  std::atomic<bool> failed_{false};
  std::string failure_message_;

  // Spout rate limiting.
  double tokens_ = 0.0;
  int64_t last_refill_ns_ = 0;
  double rate_per_instance_ = 0.0;

  /// See sched_idle_streak().
  int sched_idle_streak_ = 0;

  /// Single-poller invariant enforcement: the work-stealing scheduler
  /// promises every task is polled by at most one worker at a time (a
  /// task lives in exactly one deque or is checked out by one worker).
  /// The guard turns a violation — which would corrupt the task's
  /// single-threaded state silently — into a deterministic crash, which
  /// is what the randomized steal property test (and TSan) key on.
  std::atomic<bool> polling_{false};
  friend class PollGuard;

  TaskStats stats_;
};

/// RAII for the single-poller flag (see Task::polling_).
class PollGuard {
 public:
  explicit PollGuard(Task* t) : t_(t) {
    const bool was_polling =
        t->polling_.exchange(true, std::memory_order_acquire);
    BRISK_CHECK(!was_polling)
        << "task " << t->instance_id() << " (" << t->op_name()
        << " replica " << t->replica()
        << ") polled by two workers at once";
  }
  ~PollGuard() { t_->polling_.store(false, std::memory_order_release); }

  PollGuard(const PollGuard&) = delete;
  PollGuard& operator=(const PollGuard&) = delete;

 private:
  Task* t_;
};

}  // namespace brisk::engine
