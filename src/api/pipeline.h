// CompiledPipeline — one executable unit for a fused kernel chain.
//
// The optimizer's fusion pass (or a single kernel-backed DSL verb)
// produces an ordered list of KernelDescs; Compile() validates the
// chain and builds per-replica execution state. The engine then picks
// one of two entry points per input:
//
//   * RunBatch — batch-at-a-time over one JumboTuple: filters clear
//     bits in a SelectionVector, maps rewrite fields in place, and
//     expanding stages (FlatMap, aggregate emission) materialize rows
//     into pipeline-owned scratch batches (ping-ponged, capacity
//     retained — steady state allocates nothing). Surviving rows are
//     handed to a PipelineSink.
//   * RunRow — the interpreted fallback: one tuple depth-first through
//     the chain, emitting into an api::OutputCollector.
//
// Both paths process rows in ascending batch order through a linear
// chain, so they produce the *same output sequence* (and identical
// aggregate-state evolution) — the property the differential matrix
// and the randomized equivalence test pin down.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "api/kernels.h"
#include "api/operator.h"
#include "common/column_batch.h"
#include "common/status.h"
#include "common/tuple.h"

namespace brisk::api {

/// Consumer of a batch's surviving rows (bit i set == tuples[i] is
/// live). The sink may move tuples out; the batch is dead after the
/// call.
class PipelineSink {
 public:
  virtual ~PipelineSink() = default;
  virtual void ConsumeSelected(JumboTuple* batch,
                               const SelectionVector& sel) = 0;
};

class CompiledPipeline {
 public:
  /// Validates and compiles a kernel chain. Fails on an empty chain, a
  /// stage missing its row-wise form, or more than one aggregate (a
  /// second aggregate would need a fields-grouped input and therefore
  /// can never legally fuse into one chain).
  static StatusOr<std::unique_ptr<CompiledPipeline>> Compile(
      std::vector<KernelDesc> stages);

  /// Vectorized execution of one batch. The batch's tuples may be
  /// rewritten in place; output rows may live in pipeline-owned
  /// scratch storage, valid until the next RunBatch call.
  void RunBatch(JumboTuple* batch, PipelineSink* sink);

  /// Interpreted execution of one row (shared aggregate state with
  /// RunBatch, so modes can be mixed mid-stream).
  void RunRow(const Tuple& in, OutputCollector* out);

  size_t num_stages() const { return stages_.size(); }
  const std::vector<KernelDesc>& stages() const { return stages_; }
  bool has_aggregate() const { return agg_stage_ >= 0; }

  /// Keyed-state snapshot/restore for the chain's aggregate stage
  /// (no-ops for stateless chains).
  std::vector<CheckpointEntry> SnapshotKeyedState();
  void RestoreKeyedState(std::vector<CheckpointEntry> entries);

 private:
  explicit CompiledPipeline(std::vector<KernelDesc> stages);

  void RunRowFrom(size_t stage, Tuple t, OutputCollector* out);

  friend class ChainRowEmitter;

  std::vector<KernelDesc> stages_;
  /// Parallel to stages_: execution state for kAggregate stages.
  std::vector<std::unique_ptr<AggregateExec>> aggs_;
  int agg_stage_ = -1;

  SelectionVector sel_;
  JumboTuple scratch_[2];
};

/// Operator adapter: a bolt whose whole behavior is one kernel chain.
/// The engine detects it through Operator::pipeline() and dispatches
/// every batch through it; interpreted fusion, which runs a chain tuple
/// at a time, calls the row-wise Process.
class KernelBolt final : public Operator {
 public:
  explicit KernelBolt(std::vector<KernelDesc> stages);

  Status Prepare(const OperatorContext& ctx) override;
  void Process(const Tuple& in, OutputCollector* out) override;
  CompiledPipeline* pipeline() override { return pipeline_.get(); }

  std::vector<CheckpointEntry> SnapshotKeyedState() override;
  void RestoreKeyedState(std::vector<CheckpointEntry> entries) override;

 private:
  Status compile_status_;
  std::unique_ptr<CompiledPipeline> pipeline_;
};

}  // namespace brisk::api
