// JobCheckpoint: a consistent snapshot of a running job, and the
// binary codec that makes it durable.
//
// A checkpoint is taken at a quiesce point (the PR-5 pause-and-migrate
// machinery: spouts stopped at a batch boundary, every in-flight
// envelope drained to its consumer), so the captured keyed state and
// source positions are mutually consistent: every tuple the sources
// count as produced has fully taken effect in the operator state, and
// no tuple is half-applied. Recovery rebuilds the task graph to the
// checkpoint's plan, restores the state, rewinds replayable sources to
// the captured positions, and resumes — tuples produced after the
// checkpoint replay (at-least-once delivery), bounding the duplicate
// window by the checkpoint interval.
#pragma once

#include <cstdint>
#include <vector>

#include "api/operator.h"
#include "common/status.h"
#include "model/execution_plan.h"

namespace brisk::engine {

/// Replay position of one source replica. The position carries its
/// coordinate system (api::SourcePosition::Kind): tuple counts for
/// synthetic/socket sources, byte offsets for file-backed sources —
/// restore hands each source back a position it knows how to seek to.
struct SourcePosition {
  int op = -1;
  int replica = 0;
  api::SourcePosition position;
  /// False when the source does not implement Position/Rewind —
  /// recovery then resumes it wherever it is (gap-loss on that
  /// stream) instead of rewinding.
  bool replayable = false;
};

/// Keyed state captured from one operator replica.
struct ReplicaStateSnapshot {
  int op = -1;
  int replica = 0;
  std::vector<api::CheckpointEntry> entries;
};

/// One consistent job snapshot. The plan is carried in-memory next to
/// the serialized payload (plans are engine-internal objects, not wire
/// data); SerializeCheckpoint round-trips everything else.
struct JobCheckpoint {
  /// Plan epoch at capture time (BriskRuntime::epoch()).
  int epoch = 0;
  /// How long the capturing pause stopped the job, seconds.
  double pause_seconds = 0.0;
  /// The plan executing when the snapshot was taken; recovery rebuilds
  /// to exactly this plan (migrations applied after the checkpoint are
  /// lost with the crash — the autopilot re-derives them).
  model::ExecutionPlan plan;
  std::vector<ReplicaStateSnapshot> state;
  std::vector<SourcePosition> positions;

  size_t TotalEntries() const {
    size_t n = 0;
    for (const auto& s : state) n += s.entries.size();
    return n;
  }
};

/// Encodes epoch + keyed state + source positions into a
/// self-delimiting binary buffer (common/serde tuple codec underneath).
/// Writes the current (v2, "BCP2") format: position entries carry a
/// SourcePosition kind so byte-offset file sources round-trip.
void SerializeCheckpoint(const JobCheckpoint& cp, std::vector<uint8_t>* out);

/// Decodes a buffer produced by SerializeCheckpoint. The plan is not
/// part of the wire format; the caller re-attaches the plan it stored
/// with the bytes. Any other magic, including the retired kind-less
/// "BCP1" format, is rejected with a Status.
StatusOr<JobCheckpoint> DeserializeCheckpoint(
    const std::vector<uint8_t>& buf, const model::ExecutionPlan& plan);

}  // namespace brisk::engine
