// Public operator API — the Storm/Heron-compatible surface (§5, App. A).
//
// Applications implement Spout (source) and Operator (bolt) and wire
// them into a Topology with TopologyBuilder. The same Topology object
// drives the real engine, the discrete-event simulator, and the RLAS
// optimizer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"

namespace brisk::api {

/// Index of `stream` in a declared-output-streams list, -1 when absent
/// — the one stream-name→id lookup every layer shares.
inline int FindStreamId(const std::vector<std::string>& streams,
                        const std::string& stream) {
  const auto it = std::find(streams.begin(), streams.end(), stream);
  return it == streams.end() ? -1 : static_cast<int>(it - streams.begin());
}

/// FindStreamId with the uniform NotFound diagnostic naming the
/// stream's owner.
inline StatusOr<uint16_t> ResolveStreamId(
    const std::vector<std::string>& streams, const std::string& owner,
    const std::string& stream) {
  const int id = FindStreamId(streams, stream);
  if (id < 0) {
    return Status::NotFound("operator '" + owner + "' declares no stream '" +
                            stream + "'");
  }
  return static_cast<uint16_t>(id);
}

/// Runtime information handed to an operator instance at Prepare time.
struct OperatorContext {
  /// Name of the logical operator this instance replicates.
  std::string operator_name;
  /// Replica index in [0, num_replicas).
  int replica_index = 0;
  /// Total replicas of this operator in the running plan.
  int num_replicas = 1;
  /// Virtual socket this instance is placed on (-1 if unplaced).
  int socket = -1;
  /// Per-replica deterministic seed, derived from the job-level seed
  /// (EngineConfig::seed) so runs are reproducible.
  /// 0 when the job is unseeded — sources then fall back to their own
  /// workload-parameter seeds.
  uint64_t seed = 0;
  /// Declared output stream names of this operator; index is the
  /// stream id EmitTo takes (0 = "default").
  std::vector<std::string> output_streams;

  /// Stream id of a declared output stream, by name — operators that
  /// route to named streams resolve ids here at Prepare time instead of
  /// hard-coding declaration order.
  StatusOr<uint16_t> StreamId(const std::string& stream) const {
    return ResolveStreamId(output_streams, operator_name, stream);
  }
};

/// Sink for tuples an operator emits during Process/NextBatch.
///
/// Emit* takes ownership; the engine buffers emitted tuples into jumbo
/// tuples per consumer (§5.2). Stream ids index the operator's declared
/// output streams (0 = "default").
class OutputCollector {
 public:
  virtual ~OutputCollector() = default;

  /// Emits on the default stream.
  virtual void Emit(Tuple t) = 0;

  /// Emits on a declared named stream.
  virtual void EmitTo(uint16_t stream_id, Tuple t) = 0;
};

/// One keyed-state entry, the single hand-off format for keyed state:
/// checkpoints capture it and live migration re-partitions it. The
/// state is encoded as a plain Tuple so it survives serialization
/// (common/serde) and the operator keeps running untouched after the
/// capture. The engine routes the entry to its owner replica by
/// hashing the key Field exactly like the fields grouping routes
/// tuples.
struct CheckpointEntry {
  Field key;
  Tuple state;
};

class CompiledPipeline;

/// A continuously running stream operator ("bolt").
///
/// Implementations must be self-contained: one instance is created per
/// replica and is only ever driven by a single executor thread, so no
/// internal synchronization is needed (state partitioning across
/// replicas is the application's concern, via fields grouping).
class Operator {
 public:
  virtual ~Operator() = default;

  /// Non-null when this operator's whole behavior is a compiled kernel
  /// chain (api::KernelBolt): the engine then dispatches whole batches
  /// through CompiledPipeline::RunBatch instead of per-tuple Process
  /// calls. Row-wise operators keep the default.
  virtual CompiledPipeline* pipeline() { return nullptr; }

  /// Called once before any Process call.
  virtual Status Prepare(const OperatorContext& ctx) {
    (void)ctx;
    return Status::OK();
  }

  /// Handles one input tuple, emitting zero or more output tuples.
  virtual void Process(const Tuple& in, OutputCollector* out) = 0;

  /// Called at shutdown so stateful operators can emit final results.
  virtual void Flush(OutputCollector* out) { (void)out; }

  // Keyed-state hooks, shared by checkpoints and live migration. Both
  // run while the job is quiesced, with no execution thread live.
  // Snapshot must NOT disturb the replica's state: a checkpointed job
  // resumes from it. Restore *replaces* the replica's keyed state with
  // the entries the engine routed to it (ReplicaOfKey(key, replicas)):
  // crash recovery restores into freshly Prepared replicas, and a
  // migration that changes an operator's replication snapshots every
  // old replica, then restores every new one — surviving replicas
  // included, with an empty list where no key maps to them, so keys
  // that moved away are dropped. A stateful operator that implements
  // neither is stateless to both: its per-key state is rebuilt only
  // through source replay after a crash and lost when its replication
  // changes (never on pure moves — the operator object travels with
  // its replica).

  /// Copies this replica's per-key state into serializable entries.
  virtual std::vector<CheckpointEntry> SnapshotKeyedState() { return {}; }

  /// Replaces this replica's per-key state with `entries`.
  virtual void RestoreKeyedState(std::vector<CheckpointEntry> entries) {
    (void)entries;
  }
};

/// Replay position of one source replica, unified across source kinds:
/// synthetic in-process spouts count tuples produced, file-backed
/// sources record the byte offset of the next unconsumed record, and
/// socket sources count per-connection sequence numbers (tuple-count
/// kind). The kind travels with the offset through the checkpoint
/// codec so a restore hands each source back a position in its own
/// coordinate system.
struct SourcePosition {
  enum class Kind : uint8_t { kTupleCount = 0, kByteOffset = 1 };

  Kind kind = Kind::kTupleCount;
  uint64_t offset = 0;

  static SourcePosition Tuples(uint64_t n) {
    return {Kind::kTupleCount, n};
  }
  static SourcePosition Bytes(uint64_t n) {
    return {Kind::kByteOffset, n};
  }

  bool operator==(const SourcePosition& o) const {
    return kind == o.kind && offset == o.offset;
  }
};

inline const char* SourcePositionKindName(SourcePosition::Kind kind) {
  return kind == SourcePosition::Kind::kByteOffset ? "byte-offset"
                                                   : "tuple-count";
}

/// A stream source. NextBatch is the pull interface the engine uses;
/// the spout stamps origin timestamps itself (via the collector's
/// tuples) for end-to-end latency accounting.
class Spout {
 public:
  virtual ~Spout() = default;

  virtual Status Prepare(const OperatorContext& ctx) {
    (void)ctx;
    return Status::OK();
  }

  /// Produces up to `max_tuples` tuples. Returns the number produced;
  /// returning 0 signals a bounded source is exhausted — unless
  /// Exhausted() says otherwise (external sources idle without ending).
  virtual size_t NextBatch(size_t max_tuples, OutputCollector* out) = 0;

  /// Whether a zero-tuple NextBatch means "done" (the default, for
  /// bounded synthetic sources) or merely "no input right now". An
  /// external source (socket) returns false while it could still
  /// receive data, so the engine treats empty batches as idle and keeps
  /// polling instead of retiring the source.
  virtual bool Exhausted() const { return true; }

  // Replay hooks for fault tolerance. A replayable source reports its
  // position (tuple count or byte offset — see SourcePosition) and can
  // rewind to an earlier position after a crash, re-producing the
  // identical record sequence from there (at-least-once delivery:
  // records between the checkpointed position and the crash are
  // emitted twice).

  /// Whether this source supports Position/Rewind replay.
  virtual bool Replayable() const { return false; }

  /// Current replay position of this replica.
  virtual SourcePosition Position() const { return {}; }

  /// Rewinds to `position`. Returns false when this source cannot
  /// replay from there (the default) — recovery then resumes the
  /// source from wherever it is, accepting gap-loss on that stream.
  virtual bool Rewind(const SourcePosition& position) {
    (void)position;
    return false;
  }

  /// Veto hook for job checkpoints. A non-OK status makes
  /// BriskRuntime::Checkpoint() return it as a structured refusal
  /// instead of capturing a snapshot that could not be replayed — the
  /// contract external non-replayable sources (sockets without an
  /// egress journal) use so a checkpointed job never silently loses
  /// their gap on restore. Replayable and synthetic sources keep the
  /// default OK.
  virtual Status CheckpointGuard() const { return Status::OK(); }
};

using OperatorFactory = std::function<std::unique_ptr<Operator>()>;
using SpoutFactory = std::function<std::unique_ptr<Spout>()>;

}  // namespace brisk::api
