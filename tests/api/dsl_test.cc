// Tests for the brisk::dsl fluent layer: lowering onto api::Topology
// (golden descriptions of the lowered apps), the synthesized lambda
// adapters, named side outputs, and keyed aggregation state.
#include "api/dsl.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/fraud_detection.h"
#include "apps/linear_road.h"
#include "apps/spike_detection.h"
#include "apps/word_count.h"

namespace brisk::dsl {
namespace {

/// Captures emitted tuples per stream id.
class CapturingCollector : public api::OutputCollector {
 public:
  void Emit(Tuple t) override { EmitTo(0, std::move(t)); }
  void EmitTo(uint16_t stream_id, Tuple t) override {
    if (stream_id >= streams_.size()) streams_.resize(stream_id + 1);
    streams_[stream_id].push_back(std::move(t));
  }
  const std::vector<Tuple>& stream(uint16_t id) const { return streams_[id]; }
  size_t num_streams() const { return streams_.size(); }

 private:
  std::vector<std::vector<Tuple>> streams_;
};

/// Golden description of a lowered topology: one line per operator
/// (name, role, parallelism, declared streams), then one per edge
/// (producer:stream -> consumer, grouping, key field when fields-
/// grouped).
std::string Describe(const api::Topology& topo) {
  std::ostringstream os;
  for (const auto& op : topo.ops()) {
    const auto& sinks = topo.sinks();
    const bool sink =
        std::find(sinks.begin(), sinks.end(), op.id) != sinks.end();
    os << op.name << (op.is_spout ? " spout" : sink ? " sink" : " bolt")
       << " x" << op.base_parallelism << " [";
    for (size_t i = 0; i < op.output_streams.size(); ++i) {
      os << (i > 0 ? "," : "") << op.output_streams[i];
    }
    os << "]\n";
  }
  for (const auto& e : topo.edges()) {
    const auto& producer = topo.op(e.producer_op);
    os << producer.name << ":" << producer.output_streams[e.stream_id]
       << " -> " << topo.op(e.consumer_op).name << " "
       << api::GroupingTypeName(e.grouping);
    if (e.grouping == api::GroupingType::kFields) {
      os << "(" << e.key_field << ")";
    }
    os << "\n";
  }
  return os.str();
}

/// Names of `topo`'s operators that declare kernels, in operator order.
std::vector<std::string> KernelBacked(const api::Topology& topo) {
  std::vector<std::string> names;
  for (const auto& op : topo.ops()) {
    if (!op.kernels.empty()) names.push_back(op.name);
  }
  return names;
}

/// Prepares a freshly instantiated operator from `topo`'s factory.
std::unique_ptr<api::Operator> Instantiate(const api::Topology& topo,
                                           const std::string& name) {
  const auto id = topo.OpId(name);
  EXPECT_TRUE(id.ok());
  const auto& decl = topo.op(*id);
  auto op = decl.bolt_factory();
  api::OperatorContext ctx;
  ctx.operator_name = decl.name;
  ctx.output_streams = decl.output_streams;
  EXPECT_TRUE(op->Prepare(ctx).ok());
  return op;
}

TEST(DslLoweringTest, WordCountLowersToGoldenTopology) {
  auto lowered =
      apps::BuildWordCountDsl(std::make_shared<apps::SinkTelemetry>());
  ASSERT_TRUE(lowered.ok()) << lowered.status();
  EXPECT_EQ(Describe(*lowered),
            "spout spout x1 [default]\n"
            "parser bolt x1 [default]\n"
            "splitter bolt x1 [default]\n"
            "counter bolt x1 [default]\n"
            "sink sink x1 [default]\n"
            "spout:default -> parser shuffle\n"
            "parser:default -> splitter shuffle\n"
            "splitter:default -> counter fields(0)\n"
            "counter:default -> sink shuffle\n");
}

TEST(DslLoweringTest, SpikeDetectionLowersToGoldenTopology) {
  auto lowered =
      apps::BuildSpikeDetectionDsl(std::make_shared<apps::SinkTelemetry>());
  ASSERT_TRUE(lowered.ok()) << lowered.status();
  EXPECT_EQ(Describe(*lowered),
            "spout spout x1 [default]\n"
            "parser bolt x1 [default]\n"
            "moving_avg bolt x1 [default]\n"
            "spike_detect bolt x1 [default]\n"
            "sink sink x1 [default]\n"
            "spout:default -> parser shuffle\n"
            "parser:default -> moving_avg fields(0)\n"
            "moving_avg:default -> spike_detect shuffle\n"
            "spike_detect:default -> sink shuffle\n");
}

TEST(DslLoweringTest, FraudDetectionLowersToGoldenTopology) {
  auto lowered =
      apps::BuildFraudDetection(std::make_shared<apps::SinkTelemetry>());
  ASSERT_TRUE(lowered.ok()) << lowered.status();
  EXPECT_EQ(Describe(*lowered),
            "spout spout x1 [default]\n"
            "parser bolt x1 [default]\n"
            "predict bolt x1 [default]\n"
            "sink sink x1 [default]\n"
            "spout:default -> parser shuffle\n"
            "parser:default -> predict fields(0)\n"
            "predict:default -> sink shuffle\n");
  EXPECT_EQ(KernelBacked(*lowered),
            (std::vector<std::string>{"parser", "predict"}));
}

TEST(DslLoweringTest, LinearRoadLowersToGoldenTopology) {
  auto lowered =
      apps::BuildLinearRoad(std::make_shared<apps::SinkTelemetry>());
  ASSERT_TRUE(lowered.ok()) << lowered.status();
  EXPECT_EQ(Describe(*lowered),
            "spout spout x1 [default]\n"
            "parser bolt x1 [default]\n"
            "dispatcher bolt x1 [default,balance_stream,daily_exp_request]\n"
            "avg_speed bolt x1 [default]\n"
            "las_avg_speed bolt x1 [default]\n"
            "accident_detect bolt x1 [default]\n"
            "count_vehicle bolt x1 [default]\n"
            "accident_notify bolt x1 [default]\n"
            "toll_notify bolt x1 [default]\n"
            "daily_expense bolt x1 [default]\n"
            "account_balance bolt x1 [default]\n"
            "sink sink x1 [default]\n"
            "spout:default -> parser shuffle\n"
            "parser:default -> dispatcher shuffle\n"
            "dispatcher:default -> avg_speed fields(2)\n"
            "avg_speed:default -> las_avg_speed fields(1)\n"
            "dispatcher:default -> accident_detect fields(1)\n"
            "dispatcher:default -> count_vehicle fields(2)\n"
            "accident_detect:default -> accident_notify broadcast\n"
            "dispatcher:default -> accident_notify shuffle\n"
            "accident_detect:default -> toll_notify broadcast\n"
            "dispatcher:default -> toll_notify fields(2)\n"
            "count_vehicle:default -> toll_notify fields(1)\n"
            "las_avg_speed:default -> toll_notify fields(1)\n"
            "dispatcher:daily_exp_request -> daily_expense shuffle\n"
            "dispatcher:balance_stream -> account_balance shuffle\n"
            "toll_notify:default -> sink shuffle\n"
            "accident_notify:default -> sink shuffle\n"
            "daily_expense:default -> sink shuffle\n"
            "account_balance:default -> sink shuffle\n");
  // The filter and the four aggregates run compiled; the dispatcher,
  // the multi-input notifiers, the query bolts and the sink stay
  // interpreted.
  EXPECT_EQ(KernelBacked(*lowered),
            (std::vector<std::string>{"parser", "avg_speed", "las_avg_speed",
                                      "accident_detect", "count_vehicle"}));
}

// Every Filter, Map and Aggregate is one kernel of its kind; the verbs
// that may emit on side outputs (Process, FlatMap(ProcessFn), Sink)
// carry none.
TEST(DslLoweringTest, LambdaFilterMapAndAggregateLowerToKernels) {
  Pipeline p("lowering");
  Stream src =
      p.Source("src", SourceFn([](size_t, Collector&) { return size_t{0}; }));
  src.Filter("filter", [](const Tuple&) { return true; });
  src.Map("map", [](const Tuple& in) { return in; });
  src.KeyBy(0).Aggregate<int64_t>(
      "aggregate", 0, [](int64_t&, const Tuple&, api::RowEmitter&) {});
  src.Process("process", [](const api::OperatorContext&) {
    return ProcessFn([](const Tuple&, Collector&) {});
  });
  src.FlatMap("flatmap", [](const Tuple&, Collector&) {});
  src.Sink("sink", [](const Tuple&) {});
  auto topo = std::move(p).Build();
  ASSERT_TRUE(topo.ok()) << topo.status();
  auto kinds = [&](const std::string& name) {
    std::vector<api::KernelKind> out;
    for (const auto& k : topo->op(*topo->OpId(name)).kernels) {
      out.push_back(k.kind);
    }
    return out;
  };
  using Kinds = std::vector<api::KernelKind>;
  EXPECT_EQ(kinds("filter"), Kinds{api::KernelKind::kFilter});
  EXPECT_EQ(kinds("map"), Kinds{api::KernelKind::kMap});
  EXPECT_EQ(kinds("aggregate"), Kinds{api::KernelKind::kAggregate});
  EXPECT_TRUE(kinds("process").empty());
  EXPECT_TRUE(kinds("flatmap").empty());
  EXPECT_TRUE(kinds("sink").empty());
  // A kernel-backed operator's instances expose the compiled pipeline
  // the engine dispatches whole batches through.
  for (const char* name : {"filter", "map", "aggregate"}) {
    EXPECT_NE(Instantiate(*topo, name)->pipeline(), nullptr) << name;
  }
  EXPECT_EQ(Instantiate(*topo, "process")->pipeline(), nullptr);
}

TEST(DslLoweringTest, ParallelismAndGroupingsLower) {
  Pipeline p("groupings");
  Stream src = p.Source("src", SourceFn([](size_t, Collector&) {
                          return size_t{0};
                        })).Parallelism(2);
  src.FlatMap("fan", [](const Tuple&, Collector&) {}).Parallelism(3);
  src.Broadcast().FlatMap("everywhere", [](const Tuple&, Collector&) {});
  src.Global().Sink("one", [](const Tuple&) {});
  src.KeyBy(1).Aggregate<int64_t>(
      "agg", 0, [](int64_t&, const Tuple&, api::RowEmitter&) {});
  auto topo = std::move(p).Build();
  ASSERT_TRUE(topo.ok()) << topo.status();
  EXPECT_EQ(topo->op(*topo->OpId("src")).base_parallelism, 2);
  EXPECT_EQ(topo->op(*topo->OpId("fan")).base_parallelism, 3);
  EXPECT_EQ(topo->InEdges(*topo->OpId("fan"))[0].grouping,
            api::GroupingType::kShuffle);
  EXPECT_EQ(topo->InEdges(*topo->OpId("everywhere"))[0].grouping,
            api::GroupingType::kBroadcast);
  EXPECT_EQ(topo->InEdges(*topo->OpId("one"))[0].grouping,
            api::GroupingType::kGlobal);
  const auto& agg_in = topo->InEdges(*topo->OpId("agg"))[0];
  EXPECT_EQ(agg_in.grouping, api::GroupingType::kFields);
  EXPECT_EQ(agg_in.key_field, 1u);
}

TEST(DslLoweringTest, SideOutputDeclaresNamedStream) {
  Pipeline p("side");
  Stream src = p.Source("src", SourceFn([](size_t, Collector&) {
    return size_t{0};
  }));
  Stream router = src.FlatMap("router", [](const Tuple& in, Collector& out) {
    if (in.GetInt(0) % 2 != 0) {
      EXPECT_TRUE(out.EmitTo("odds", in, {in.fields[0]}));
    } else {
      out.Emit(in, {in.fields[0]});
    }
  });
  Stream odds = router.SideOutput("odds");
  router.Sink("even_sink", [](const Tuple&) {});
  odds.Sink("odd_sink", [](const Tuple&) {});
  auto topo = std::move(p).Build();
  ASSERT_TRUE(topo.ok()) << topo.status();

  const auto& router_decl = topo->op(*topo->OpId("router"));
  ASSERT_EQ(router_decl.output_streams.size(), 2u);
  EXPECT_EQ(*router_decl.StreamId("odds"), 1);
  EXPECT_EQ(topo->InEdges(*topo->OpId("odd_sink"))[0].stream_id, 1);
  EXPECT_EQ(topo->InEdges(*topo->OpId("even_sink"))[0].stream_id, 0);

  // Drive the synthesized router: odd keys reach the named stream.
  auto router_op = Instantiate(*topo, "router");
  CapturingCollector out;
  for (int64_t v : {1, 2, 3, 4, 5}) {
    Tuple t;
    t.fields = {Field(v)};
    router_op->Process(t, &out);
  }
  EXPECT_EQ(out.stream(0).size(), 2u);  // evens on "default"
  EXPECT_EQ(out.stream(1).size(), 3u);  // odds on "odds"
}

TEST(DslLoweringTest, MergeAddsInputsWithTheirGroupingsAndStreams) {
  Pipeline p("merge");
  Stream src = p.Source("src", SourceFn([](size_t, Collector&) {
    return size_t{0};
  }));
  Stream router = src.FlatMap("router", [](const Tuple&, Collector&) {});
  Stream side = router.SideOutput("side");
  Stream keyed = src.FlatMap("keyed", [](const Tuple&, Collector&) {});
  Stream merged = router.Broadcast()
                      .FlatMap("merged", [](const Tuple&, Collector&) {})
                      .Merge(keyed.KeyBy(1))
                      .Merge(side)
                      .Merge(src.Global());
  // Merge returns the handle it was called on: the next verb consumes
  // the merged operator's output.
  merged.Sink("sink", [](const Tuple&) {});
  auto topo = std::move(p).Build();
  ASSERT_TRUE(topo.ok()) << topo.status();
  EXPECT_EQ(Describe(*topo),
            "src spout x1 [default]\n"
            "router bolt x1 [default,side]\n"
            "keyed bolt x1 [default]\n"
            "merged bolt x1 [default]\n"
            "sink sink x1 [default]\n"
            "src:default -> router shuffle\n"
            "src:default -> keyed shuffle\n"
            "router:default -> merged broadcast\n"
            "keyed:default -> merged fields(1)\n"
            "router:side -> merged shuffle\n"
            "src:default -> merged global\n"
            "merged:default -> sink shuffle\n");
}

TEST(DslAdapterTest, EmitToUnknownStreamReturnsFalseAndDrops) {
  Pipeline p("unknown-stream");
  p.Source("src", SourceFn([](size_t, Collector&) { return size_t{0}; }))
      .FlatMap("bolt",
               [](const Tuple& in, Collector& out) {
                 EXPECT_FALSE(out.EmitTo("no-such-stream", in, {}));
               })
      .Sink("sink", [](const Tuple&) {});
  auto topo = std::move(p).Build();
  ASSERT_TRUE(topo.ok()) << topo.status();
  auto bolt = Instantiate(*topo, "bolt");
  CapturingCollector out;
  Tuple t;
  t.fields = {Field(int64_t{7})};
  bolt->Process(t, &out);
  EXPECT_EQ(out.num_streams(), 0u);
}

TEST(DslAdapterTest, AggregatePartitionsStateByKey) {
  Pipeline p("agg");
  p.Source("src", SourceFn([](size_t, Collector&) { return size_t{0}; }))
      .KeyBy(0)
      .Aggregate<int64_t>("counter", 0,
                          [](int64_t& count, const Tuple& in,
                             api::RowEmitter& out) {
                            out.Emit(Tuple{in.fields[0], Field(++count)});
                          });
  auto topo = std::move(p).Build();
  ASSERT_TRUE(topo.ok()) << topo.status();
  auto counter = Instantiate(*topo, "counter");
  CapturingCollector out;
  for (const char* word : {"ka", "lo", "ka", "ka"}) {
    Tuple t;
    t.fields = {Field(word)};
    counter->Process(t, &out);
  }
  ASSERT_EQ(out.stream(0).size(), 4u);
  EXPECT_EQ(out.stream(0)[0].GetInt(1), 1);  // ka
  EXPECT_EQ(out.stream(0)[1].GetInt(1), 1);  // lo
  EXPECT_EQ(out.stream(0)[2].GetInt(1), 2);  // ka
  EXPECT_EQ(out.stream(0)[3].GetInt(1), 3);  // ka
}

/// Feeds `key` to counting aggregate `replica` (it emits [key, count])
/// and returns the count it emitted.
int64_t Feed(api::Operator& replica, const Field& key) {
  CapturingCollector out;
  Tuple t;
  t.fields = {key};
  replica.Process(t, &out);
  return out.stream(0).back().GetInt(1);
}

/// Feeds each key of `keys` to counting aggregate `op` of `topo`
/// twice, hands the state to three fresh replicas re-bucketed by the
/// fields-grouping hash (snapshot, then restore each bucket), and
/// feeds each key once more to its new owner: every key must count 1,
/// 2, 3 on its own.
void ExpectKeysCountApartThroughRepartitioning(const api::Topology& topo,
                                               const std::string& op,
                                               const std::vector<Field>& keys) {
  auto before = Instantiate(topo, op);
  for (int64_t round = 1; round <= 2; ++round) {
    for (const Field& key : keys) EXPECT_EQ(Feed(*before, key), round);
  }
  std::vector<std::vector<api::CheckpointEntry>> buckets(3);
  for (auto& e : before->SnapshotKeyedState()) {
    buckets[HashField(e.key) % 3].push_back(std::move(e));
  }
  std::vector<std::unique_ptr<api::Operator>> after;
  size_t snapshotted = 0;
  for (auto& bucket : buckets) {
    snapshotted += bucket.size();
    after.push_back(Instantiate(topo, op));
    after.back()->RestoreKeyedState(std::move(bucket));
  }
  EXPECT_EQ(snapshotted, keys.size());
  for (const Field& key : keys) {
    EXPECT_EQ(Feed(*after[HashField(key) % 3], key), 3);
  }
}

/// A lambda Aggregate counting per key of field 0.
api::Topology LambdaCounterTopology() {
  Pipeline p("lambda-agg");
  p.Source("src", SourceFn([](size_t, Collector&) { return size_t{0}; }))
      .KeyBy(0)
      .Aggregate<int64_t>("counter", 0,
                          [](int64_t& count, const Tuple& in,
                             api::RowEmitter& out) {
                            out.Emit(Tuple{in.fields[0], Field(++count)});
                          });
  auto topo = std::move(p).Build();
  EXPECT_TRUE(topo.ok()) << topo.status();
  return std::move(topo).value();
}

api::Topology WordCountTopology() {
  auto wc = apps::BuildWordCountDsl(std::make_shared<apps::SinkTelemetry>());
  EXPECT_TRUE(wc.ok()) << wc.status();
  return std::move(wc).value();
}

// Keys are equal only with the same kind and equal int64 bits, double
// bits or string bytes: 0, 0.0, -0.0 and "0" are four keys, as are 's'
// and "s". A lambda counter and the WC counter keep that identity
// through a live re-partitioning.
TEST(DslAdapterTest, AggregateKeysByKindAndBitsThroughRepartitioning) {
  std::vector<Field> keys = {Field(int64_t{0}), Field(0.0), Field(-0.0)};
  for (const char* s : {"0", "s"}) keys.emplace_back(s);
  keys.emplace_back(int64_t{'s'});
  ExpectKeysCountApartThroughRepartitioning(LambdaCounterTopology(), "counter",
                                            keys);
  ExpectKeysCountApartThroughRepartitioning(WordCountTopology(), "counter",
                                            keys);
}

/// A replica of counting aggregate `op` that holds keys a and b and is
/// then restored with b's entry alone (as a migration hands a
/// surviving replica its new bucket) counts a from scratch and b on
/// from the restored entry: Restore replaces keyed state, it does not
/// merge into it.
void ExpectRestoreReplacesKeyedState(const api::Topology& topo,
                                     const std::string& op) {
  const Field a("a"), b("b");
  auto donor = Instantiate(topo, op);
  for (int i = 0; i < 5; ++i) Feed(*donor, b);
  auto replica = Instantiate(topo, op);
  Feed(*replica, a);
  Feed(*replica, a);
  Feed(*replica, b);
  auto entries = donor->SnapshotKeyedState();
  ASSERT_EQ(entries.size(), 1u);
  replica->RestoreKeyedState(std::move(entries));
  EXPECT_EQ(Feed(*replica, a), 1) << op << " kept a key it was not given";
  EXPECT_EQ(Feed(*replica, b), 6) << op << " did not take the restored b";
  EXPECT_EQ(replica->SnapshotKeyedState().size(), 2u);
}

TEST(DslAdapterTest, AggregateRestoreReplacesKeyedState) {
  ExpectRestoreReplacesKeyedState(LambdaCounterTopology(), "counter");
  ExpectRestoreReplacesKeyedState(WordCountTopology(), "counter");
}

TEST(DslAdapterTest, ReplicaStateIsIndependentAcrossInstances) {
  Pipeline p("replica-state");
  p.Source("src", SourceFn([](size_t, Collector&) { return size_t{0}; }))
      .FlatMap("tagger",
               [n = int64_t{0}](const Tuple& in, Collector& out) mutable {
                 out.Emit(in, {Field(++n)});
               })
      .Sink("sink", [](const Tuple&) {});
  auto topo = std::move(p).Build();
  ASSERT_TRUE(topo.ok()) << topo.status();
  auto a = Instantiate(*topo, "tagger");
  auto b = Instantiate(*topo, "tagger");
  CapturingCollector out_a, out_b;
  Tuple t;
  a->Process(t, &out_a);
  a->Process(t, &out_a);
  b->Process(t, &out_b);  // fresh replica: counts restart at 1
  EXPECT_EQ(out_a.stream(0)[1].GetInt(0), 2);
  EXPECT_EQ(out_b.stream(0)[0].GetInt(0), 1);
}

TEST(DslAdapterTest, MapInheritsOriginTimestampAndFilterForwards) {
  Pipeline p("mapfilter");
  Stream src =
      p.Source("src", SourceFn([](size_t, Collector&) { return size_t{0}; }));
  src.Map("double_it", [](const Tuple& in) {
    Tuple t;
    t.fields = {Field(in.GetInt(0) * 2)};
    return t;
  });
  src.Filter("evens", [](const Tuple& in) { return in.GetInt(0) % 2 == 0; });
  auto topo = std::move(p).Build();
  ASSERT_TRUE(topo.ok()) << topo.status();

  auto mapper = Instantiate(*topo, "double_it");
  CapturingCollector out;
  Tuple t;
  t.fields = {Field(int64_t{21})};
  t.origin_ts_ns = 1234;
  mapper->Process(t, &out);
  ASSERT_EQ(out.stream(0).size(), 1u);
  EXPECT_EQ(out.stream(0)[0].GetInt(0), 42);
  EXPECT_EQ(out.stream(0)[0].origin_ts_ns, 1234);

  auto filter = Instantiate(*topo, "evens");
  CapturingCollector fout;
  filter->Process(t, &fout);  // 21 is odd: dropped
  EXPECT_EQ(fout.num_streams(), 0u);
  Tuple even;
  even.fields = {Field(int64_t{4})};
  filter->Process(even, &fout);
  ASSERT_EQ(fout.stream(0).size(), 1u);
  EXPECT_EQ(fout.stream(0)[0].GetInt(0), 4);
}

TEST(DslMisuseTest, DuplicateOperatorNamesFailAtBuild) {
  Pipeline p("dup");
  Stream src =
      p.Source("src", SourceFn([](size_t, Collector&) { return size_t{0}; }));
  src.FlatMap("x", [](const Tuple&, Collector&) {});
  src.FlatMap("x", [](const Tuple&, Collector&) {});
  auto topo = std::move(p).Build();
  ASSERT_FALSE(topo.ok());
  EXPECT_EQ(topo.status().code(), StatusCode::kAlreadyExists);
  EXPECT_NE(topo.status().message().find("duplicate operator name"),
            std::string::npos);
}

TEST(DslMisuseTest, MergeFromAnotherPipelineFailsAtBuild) {
  Pipeline other("other");
  Stream foreign = other.Source(
      "src", SourceFn([](size_t, Collector&) { return size_t{0}; }));
  Pipeline p("cross");
  p.Source("src", SourceFn([](size_t, Collector&) { return size_t{0}; }))
      .Sink("sink", [](const Tuple&) {})
      .Merge(foreign);
  auto topo = std::move(p).Build();
  ASSERT_FALSE(topo.ok());
  EXPECT_EQ(topo.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(topo.status().message().find("another pipeline"),
            std::string::npos);
}

TEST(DslMisuseTest, EmptyPipelineFailsAtBuild) {
  Pipeline p("empty");
  EXPECT_FALSE(std::move(p).Build().ok());
}

TEST(DslMisuseTest, EmptyUserFunctionFailsAtPrepare) {
  Pipeline p("null-fn");
  p.Source("src", SourceFn([](size_t, Collector&) { return size_t{0}; }))
      .FlatMap("broken", ProcessFn());
  auto topo = std::move(p).Build();
  ASSERT_TRUE(topo.ok()) << topo.status();
  const auto& decl = topo->op(*topo->OpId("broken"));
  auto op = decl.bolt_factory();
  api::OperatorContext ctx;
  ctx.operator_name = decl.name;
  ctx.output_streams = decl.output_streams;
  const Status st = op->Prepare(ctx);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("broken"), std::string::npos);
}

}  // namespace
}  // namespace brisk::dsl
