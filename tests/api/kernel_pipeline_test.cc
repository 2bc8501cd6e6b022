// Tests for compiled vectorized pipelines: SelectionVector edge cases,
// CompiledPipeline batch semantics (empty batch, all-filtered, FlatMap
// growth past the inline field capacity), compile-time validation, the
// aggregate migration hand-off, and a randomized property holding the
// compiled (RunBatch) and interpreted (RunRow) paths to the exact same
// output sequence over generated kernel chains.
#include "api/pipeline.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/kernels.h"
#include "common/column_batch.h"
#include "common/rng.h"
#include "common/tuple.h"

namespace brisk::api {
namespace {

/// PipelineSink that moves surviving rows into a plain vector.
class VectorSink final : public PipelineSink {
 public:
  void ConsumeSelected(JumboTuple* batch, const SelectionVector& sel) override {
    ++calls;
    sel.ForEachSet(
        [&](size_t i) { out.push_back(std::move(batch->tuples[i])); });
  }
  std::vector<Tuple> out;
  int calls = 0;
};

/// OutputCollector that captures default-stream emissions.
class VectorCollector final : public OutputCollector {
 public:
  void Emit(Tuple t) override { EmitTo(0, std::move(t)); }
  void EmitTo(uint16_t stream_id, Tuple t) override {
    t.stream_id = stream_id;
    out.push_back(std::move(t));
  }
  std::vector<Tuple> out;
};

/// Canonical printable form of a tuple: each field's type tag and
/// exact value (a double's bits), so sequences compare exactly (type +
/// value + origin).
std::string Canon(const Tuple& t) {
  std::string s = std::to_string(t.origin_ts_ns) + "|";
  for (const Field& f : t.fields) {
    if (f.is_string()) {
      s += "s" + std::string(f.AsString());
    } else {
      s += (f.is_int() ? "i" : "d") + std::to_string(FieldKeyEq::Bits(f));
    }
    s += ";";
  }
  return s;
}

std::vector<std::string> Canon(const std::vector<Tuple>& ts) {
  std::vector<std::string> out;
  out.reserve(ts.size());
  for (const Tuple& t : ts) out.push_back(Canon(t));
  return out;
}

Tuple IntTuple(int64_t a, int64_t b, int64_t origin = 7) {
  Tuple t;
  t.fields.emplace_back(a);
  t.fields.emplace_back(b);
  t.origin_ts_ns = origin;
  return t;
}

JumboTuple BatchOf(std::vector<Tuple> tuples) {
  JumboTuple b;
  b.tuples = std::move(tuples);
  return b;
}

TEST(SelectionVectorTest, ResetSetsPartialTailWord) {
  SelectionVector sel;
  sel.Reset(70);  // 64 + 6: second word must mask to 6 bits
  EXPECT_EQ(sel.size(), 70u);
  EXPECT_EQ(sel.CountSet(), 70u);
  EXPECT_TRUE(sel.AllSet());
  EXPECT_TRUE(sel.Test(69));
  sel.Clear(69);
  sel.Clear(0);
  EXPECT_EQ(sel.CountSet(), 68u);
  EXPECT_FALSE(sel.Test(0));
  sel.Set(0);
  EXPECT_TRUE(sel.Test(0));
}

TEST(SelectionVectorTest, EmptyAndNoneSet) {
  SelectionVector sel;
  sel.Reset(0);
  EXPECT_EQ(sel.CountSet(), 0u);
  EXPECT_TRUE(sel.NoneSet());
  sel.Reset(65, /*all_set=*/false);
  EXPECT_TRUE(sel.NoneSet());
  sel.Set(64);
  EXPECT_FALSE(sel.NoneSet());
  EXPECT_EQ(sel.CountSet(), 1u);
}

TEST(SelectionVectorTest, ForEachSetVisitsAscendingAndSurvivesClears) {
  SelectionVector sel;
  sel.Reset(130);
  std::vector<size_t> visited;
  sel.ForEachSet([&](size_t i) {
    visited.push_back(i);
    // Clearing the current or a later bit mid-walk must be safe (the
    // walk snapshots each word): kill every row after 100.
    if (i >= 100 && i + 1 < 130) sel.Clear(i + 1);
  });
  // The snapshot semantics mean already-captured word 1 bits (64..127)
  // still visit; the clears only affect future *words* (128, 129).
  ASSERT_GE(visited.size(), 101u);
  for (size_t i = 0; i + 1 < visited.size(); ++i) {
    EXPECT_LT(visited[i], visited[i + 1]);
  }
  EXPECT_EQ(visited.front(), 0u);
}

TEST(CompiledPipelineTest, CompileRejectsEmptyAndDoubleAggregate) {
  EXPECT_FALSE(CompiledPipeline::Compile({}).ok());

  auto sum = [](int64_t& s, const Tuple& in, RowEmitter& out) {
    s += in.GetInt(1);
    Tuple t;
    t.fields.push_back(in.fields[0]);
    t.fields.emplace_back(s);
    out.Emit(std::move(t));
  };
  std::vector<KernelDesc> two = {
      AggregateOf<int64_t>(0, 0, sum),
      AggregateOf<int64_t>(0, 0, sum),
  };
  auto st = CompiledPipeline::Compile(std::move(two));
  EXPECT_FALSE(st.ok());

  KernelDesc bare;
  bare.kind = KernelKind::kFilter;  // no filter_row
  EXPECT_FALSE(CompiledPipeline::Compile({bare}).ok());
}

TEST(CompiledPipelineTest, KernelBoltSurfacesCompileErrorAtPrepare) {
  KernelDesc bare;
  bare.kind = KernelKind::kMap;  // no map_row
  KernelBolt bolt({bare});
  OperatorContext ctx;
  EXPECT_FALSE(bolt.Prepare(ctx).ok());
  EXPECT_EQ(bolt.pipeline(), nullptr);
}

TEST(CompiledPipelineTest, EmptyBatchNeverReachesTheSink) {
  auto pipe = CompiledPipeline::Compile({MapNumConst(0, NumOp::kAdd, 1)});
  ASSERT_TRUE(pipe.ok());
  JumboTuple batch;
  VectorSink sink;
  pipe.value()->RunBatch(&batch, &sink);
  EXPECT_EQ(sink.calls, 0);
  EXPECT_TRUE(sink.out.empty());
}

TEST(CompiledPipelineTest, AllFilteredShortCircuits) {
  int maps_run = 0;
  std::vector<KernelDesc> chain = {
      FilterCmpConst(0, CmpOp::kGt, 1000),  // nothing passes
      MapOf([&maps_run](Tuple&) { ++maps_run; }),
  };
  auto pipe = CompiledPipeline::Compile(std::move(chain));
  ASSERT_TRUE(pipe.ok());
  JumboTuple batch = BatchOf({IntTuple(1, 1), IntTuple(2, 2)});
  VectorSink sink;
  pipe.value()->RunBatch(&batch, &sink);
  EXPECT_EQ(sink.calls, 0);
  EXPECT_EQ(maps_run, 0);
}

TEST(CompiledPipelineTest, FlatMapGrowsPastInlineFieldCapacity) {
  // Each input row expands to 3 rows of kInlineTupleFields + 2 fields,
  // forcing InlineVec past its inline storage, and the batch grows past
  // its input size — both spill paths in one chain.
  auto expand = [](const Tuple& in, RowEmitter& out) {
    for (int64_t r = 0; r < 3; ++r) {
      Tuple t;
      for (size_t f = 0; f < kInlineTupleFields + 2; ++f) {
        t.fields.emplace_back(in.GetInt(0) * 100 + r * 10 +
                              static_cast<int64_t>(f));
      }
      out.Emit(std::move(t));
    }
  };
  auto pipe = CompiledPipeline::Compile(
      {FlatMapOf(expand, 3.0), MapNumConst(5, NumOp::kAdd, 1)});
  ASSERT_TRUE(pipe.ok());
  JumboTuple batch = BatchOf({IntTuple(1, 0, 11), IntTuple(2, 0, 22)});
  VectorSink sink;
  pipe.value()->RunBatch(&batch, &sink);
  ASSERT_EQ(sink.out.size(), 6u);
  for (const Tuple& t : sink.out) {
    ASSERT_EQ(t.fields.size(), kInlineTupleFields + 2);
  }
  // Ascending input order, expansion order preserved; origin inherited.
  EXPECT_EQ(sink.out[0].GetInt(0), 100);
  EXPECT_EQ(sink.out[1].GetInt(0), 110);
  EXPECT_EQ(sink.out[3].GetInt(0), 200);
  EXPECT_EQ(sink.out[0].origin_ts_ns, 11);
  EXPECT_EQ(sink.out[5].origin_ts_ns, 22);
  // The trailing map ran on the spilled field.
  EXPECT_EQ(sink.out[0].GetInt(5), 100 + 0 * 10 + 5 + 1);
}

TEST(CompiledPipelineTest, AggregateSnapshotRestoreRoundTrip) {
  auto sum = [](int64_t& s, const Tuple& in, RowEmitter& out) {
    s += in.GetInt(1);
    Tuple t;
    t.fields.push_back(in.fields[0]);
    t.fields.emplace_back(s);
    out.Emit(std::move(t));
  };
  std::vector<KernelDesc> chain = {AggregateOf<int64_t>(0, 0, sum)};

  auto a = CompiledPipeline::Compile(chain);
  auto b = CompiledPipeline::Compile(chain);
  auto reference = CompiledPipeline::Compile(chain);
  ASSERT_TRUE(a.ok() && b.ok() && reference.ok());

  std::vector<Tuple> first = {IntTuple(1, 10), IntTuple(2, 5),
                              IntTuple(1, 3)};
  std::vector<Tuple> second = {IntTuple(2, 2), IntTuple(1, 1)};

  VectorSink sa;
  {
    JumboTuple batch = BatchOf(first);
    a.value()->RunBatch(&batch, &sa);
  }
  // Migrate: snapshot a (it keeps its state), restore into b, keep
  // going.
  ASSERT_TRUE(a.value()->has_aggregate());
  auto entries = a.value()->SnapshotKeyedState();
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_EQ(a.value()->SnapshotKeyedState().size(), 2u);  // not cleared
  b.value()->RestoreKeyedState(std::move(entries));
  VectorSink sb;
  {
    JumboTuple batch = BatchOf(second);
    b.value()->RunBatch(&batch, &sb);
  }

  // The unmigrated reference sees the same totals.
  VectorSink sr;
  {
    JumboTuple batch = BatchOf(first);
    reference.value()->RunBatch(&batch, &sr);
  }
  sr.out.clear();
  {
    JumboTuple batch = BatchOf(second);
    reference.value()->RunBatch(&batch, &sr);
  }
  EXPECT_EQ(Canon(sb.out), Canon(sr.out));
}

/// Builds a random kernel chain over 2-int-field tuples: at most one
/// aggregate, 1..4 stages from {filter, map, flatmap, aggregate}.
std::vector<KernelDesc> RandomChain(Rng& rng) {
  const size_t len = 1 + rng.NextBounded(4);
  std::vector<KernelDesc> chain;
  bool has_agg = false;
  for (size_t s = 0; s < len; ++s) {
    switch (rng.NextBounded(has_agg ? 3 : 4)) {
      case 0:
        chain.push_back(FilterCmpConst(
            0, static_cast<CmpOp>(rng.NextBounded(6)),
            static_cast<int64_t>(rng.NextBounded(100))));
        break;
      case 1:
        chain.push_back(MapNumConst(
            1, static_cast<NumOp>(rng.NextBounded(3)),
            static_cast<int64_t>(rng.NextBounded(50))));
        break;
      case 2: {
        const int64_t copies = 1 + static_cast<int64_t>(rng.NextBounded(2));
        chain.push_back(FlatMapOf(
            [copies](const Tuple& in, RowEmitter& out) {
              for (int64_t c = 0; c < copies; ++c) {
                Tuple t;
                t.fields.push_back(in.fields[0]);
                t.fields.emplace_back(in.GetInt(1) + c);
                out.Emit(std::move(t));
              }
            },
            static_cast<double>(copies)));
        break;
      }
      default:
        has_agg = true;
        chain.push_back(AggregateOf<int64_t>(
            0, 0, [](int64_t& acc, const Tuple& in, RowEmitter& out) {
              acc += in.GetInt(1);
              Tuple t;
              t.fields.push_back(in.fields[0]);
              t.fields.emplace_back(acc);
              out.Emit(std::move(t));
            }));
        break;
    }
  }
  return chain;
}

TEST(CompiledPipelineTest, RandomizedCompiledMatchesInterpreted) {
  Rng rng(20260807);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<KernelDesc> chain = RandomChain(rng);
    auto compiled = CompiledPipeline::Compile(chain);
    auto interpreted = CompiledPipeline::Compile(chain);
    ASSERT_TRUE(compiled.ok() && interpreted.ok());

    VectorSink sink;
    VectorCollector collector;
    // Several batches per trial so aggregate state evolves across
    // batch boundaries; sizes cover empty, sub-word, and multi-word.
    for (size_t size : {0u, 7u, 64u, 91u}) {
      std::vector<Tuple> rows;
      rows.reserve(size);
      for (size_t i = 0; i < size; ++i) {
        rows.push_back(
            IntTuple(static_cast<int64_t>(rng.NextBounded(100)),
                     static_cast<int64_t>(rng.NextBounded(1000)),
                     static_cast<int64_t>(1 + rng.NextBounded(1000))));
      }
      JumboTuple batch = BatchOf(rows);  // copy: interpreted needs rows
      compiled.value()->RunBatch(&batch, &sink);
      for (const Tuple& t : rows) {
        interpreted.value()->RunRow(t, &collector);
      }
    }
    ASSERT_EQ(Canon(sink.out), Canon(collector.out))
        << "chain of " << chain.size() << " stages diverged at trial "
        << trial;
  }
}

}  // namespace
}  // namespace brisk::api
