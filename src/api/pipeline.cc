#include "api/pipeline.h"

#include "common/logging.h"

namespace brisk::api {

namespace {

/// Collects an expanding stage's rows into a scratch batch, stamping
/// unset origin timestamps with the input row's (dsl Derive rule).
class BatchRowEmitter final : public RowEmitter {
 public:
  explicit BatchRowEmitter(JumboTuple* out) : out_(out) {}

  void SetOrigin(int64_t origin_ts_ns) { origin_ts_ns_ = origin_ts_ns; }

  void Emit(Tuple t) override {
    if (t.origin_ts_ns == 0) t.origin_ts_ns = origin_ts_ns_;
    t.stream_id = 0;
    out_->tuples.push_back(std::move(t));
  }

 private:
  JumboTuple* out_;
  int64_t origin_ts_ns_ = 0;
};

}  // namespace

/// Row-wise continuation: feeds an expanding stage's emissions through
/// the rest of the chain, depth-first.
class ChainRowEmitter final : public RowEmitter {
 public:
  ChainRowEmitter(CompiledPipeline* pipe, size_t next_stage,
                  OutputCollector* out, int64_t origin_ts_ns)
      : pipe_(pipe),
        next_stage_(next_stage),
        out_(out),
        origin_ts_ns_(origin_ts_ns) {}

  void Emit(Tuple t) override {
    if (t.origin_ts_ns == 0) t.origin_ts_ns = origin_ts_ns_;
    t.stream_id = 0;
    pipe_->RunRowFrom(next_stage_, std::move(t), out_);
  }

 private:
  CompiledPipeline* pipe_;
  size_t next_stage_;
  OutputCollector* out_;
  int64_t origin_ts_ns_;
};

CompiledPipeline::CompiledPipeline(std::vector<KernelDesc> stages)
    : stages_(std::move(stages)) {
  aggs_.resize(stages_.size());
  for (size_t s = 0; s < stages_.size(); ++s) {
    if (stages_[s].kind == KernelKind::kAggregate) {
      aggs_[s] = stages_[s].make_aggregate();
      agg_stage_ = static_cast<int>(s);
    }
  }
}

StatusOr<std::unique_ptr<CompiledPipeline>> CompiledPipeline::Compile(
    std::vector<KernelDesc> stages) {
  if (stages.empty()) {
    return Status::InvalidArgument("empty kernel chain");
  }
  int aggregates = 0;
  for (size_t s = 0; s < stages.size(); ++s) {
    const KernelDesc& k = stages[s];
    const std::string where = "stage " + std::to_string(s) + " (" + k.debug +
                              ")";
    switch (k.kind) {
      case KernelKind::kFilter:
        if (!k.filter_row) {
          return Status::InvalidArgument(where + ": filter without row form");
        }
        break;
      case KernelKind::kMap:
        if (!k.map_row) {
          return Status::InvalidArgument(where + ": map without row form");
        }
        break;
      case KernelKind::kFlatMap:
        if (!k.expand_row) {
          return Status::InvalidArgument(where + ": flatmap without body");
        }
        break;
      case KernelKind::kAggregate:
        if (!k.make_aggregate || k.key_field < 0) {
          return Status::InvalidArgument(where + ": incomplete aggregate");
        }
        ++aggregates;
        break;
    }
  }
  if (aggregates > 1) {
    return Status::InvalidArgument(
        "kernel chain has " + std::to_string(aggregates) +
        " aggregates; a second aggregate needs a fields-grouped input and "
        "can never fuse into one chain");
  }
  return std::unique_ptr<CompiledPipeline>(
      new CompiledPipeline(std::move(stages)));
}

void CompiledPipeline::RunBatch(JumboTuple* batch, PipelineSink* sink) {
  JumboTuple* cur = batch;
  sel_.Reset(cur->tuples.size());
  if (cur->tuples.empty()) return;
  int scratch_idx = 0;
  for (size_t s = 0; s < stages_.size(); ++s) {
    KernelDesc& k = stages_[s];
    switch (k.kind) {
      case KernelKind::kFilter:
        if (k.filter_batch) {
          k.filter_batch(*cur, sel_);
        } else {
          sel_.ForEachSet([&](size_t i) {
            if (!k.filter_row(cur->tuples[i])) sel_.Clear(i);
          });
        }
        if (sel_.NoneSet()) return;
        break;
      case KernelKind::kMap:
        if (k.map_batch) {
          k.map_batch(*cur, sel_);
        } else {
          sel_.ForEachSet([&](size_t i) { k.map_row(cur->tuples[i]); });
        }
        break;
      case KernelKind::kFlatMap:
      case KernelKind::kAggregate: {
        // Expanding stage: survivors are materialized into a scratch
        // batch (ping-ponged so a later expansion never writes into
        // the batch it is reading). Capacity is retained across
        // batches.
        JumboTuple* next = &scratch_[scratch_idx];
        scratch_idx ^= 1;
        next->Reset();
        BatchRowEmitter emitter(next);
        if (k.kind == KernelKind::kFlatMap) {
          sel_.ForEachSet([&](size_t i) {
            const Tuple& t = cur->tuples[i];
            emitter.SetOrigin(t.origin_ts_ns);
            k.expand_row(t, emitter);
          });
        } else {
          AggregateExec* agg = aggs_[s].get();
          sel_.ForEachSet([&](size_t i) {
            const Tuple& t = cur->tuples[i];
            emitter.SetOrigin(t.origin_ts_ns);
            agg->UpdateRow(t, emitter);
          });
        }
        cur = next;
        if (cur->tuples.empty()) return;
        sel_.Reset(cur->tuples.size());
        break;
      }
    }
  }
  sink->ConsumeSelected(cur, sel_);
}

void CompiledPipeline::RunRow(const Tuple& in, OutputCollector* out) {
  RunRowFrom(0, in, out);
}

void CompiledPipeline::RunRowFrom(size_t stage, Tuple t,
                                  OutputCollector* out) {
  for (; stage < stages_.size(); ++stage) {
    KernelDesc& k = stages_[stage];
    switch (k.kind) {
      case KernelKind::kFilter:
        if (!k.filter_row(t)) return;
        break;
      case KernelKind::kMap:
        k.map_row(t);
        break;
      case KernelKind::kFlatMap: {
        ChainRowEmitter emitter(this, stage + 1, out, t.origin_ts_ns);
        k.expand_row(t, emitter);
        return;
      }
      case KernelKind::kAggregate: {
        ChainRowEmitter emitter(this, stage + 1, out, t.origin_ts_ns);
        aggs_[stage]->UpdateRow(t, emitter);
        return;
      }
    }
  }
  out->Emit(std::move(t));
}

std::vector<CheckpointEntry> CompiledPipeline::SnapshotKeyedState() {
  if (agg_stage_ < 0) return {};
  return aggs_[agg_stage_]->SnapshotKeyedState();
}

void CompiledPipeline::RestoreKeyedState(std::vector<CheckpointEntry> entries) {
  if (agg_stage_ < 0) return;
  aggs_[agg_stage_]->RestoreKeyedState(std::move(entries));
}

KernelBolt::KernelBolt(std::vector<KernelDesc> stages) {
  auto compiled = CompiledPipeline::Compile(std::move(stages));
  if (compiled.ok()) {
    pipeline_ = std::move(compiled).value();
  } else {
    compile_status_ = compiled.status();
  }
}

Status KernelBolt::Prepare(const OperatorContext& ctx) {
  (void)ctx;
  return compile_status_;
}

void KernelBolt::Process(const Tuple& in, OutputCollector* out) {
  BRISK_CHECK(pipeline_ != nullptr) << compile_status_.ToString();
  pipeline_->RunRow(in, out);
}

std::vector<CheckpointEntry> KernelBolt::SnapshotKeyedState() {
  return pipeline_ ? pipeline_->SnapshotKeyedState()
                   : std::vector<CheckpointEntry>{};
}

void KernelBolt::RestoreKeyedState(std::vector<CheckpointEntry> entries) {
  if (pipeline_) pipeline_->RestoreKeyedState(std::move(entries));
}

}  // namespace brisk::api
