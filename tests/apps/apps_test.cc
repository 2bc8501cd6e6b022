// Tests for the four benchmark applications: topology shape, operator
// semantics, keyed-state hand-off, and profile consistency. Operators
// are tested as the DSL lowers them, instantiated from the built
// topology the way the engine does.
#include "apps/apps.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "api/kernels.h"
#include "api/pipeline.h"
#include "apps/fraud_detection.h"
#include "apps/linear_road.h"
#include "apps/spike_detection.h"
#include "apps/word_count.h"
#include "common/rng.h"
#include "common/serde.h"

namespace brisk::apps {
namespace {

/// Collector capturing emissions per stream for operator unit tests.
class CaptureCollector : public api::OutputCollector {
 public:
  void Emit(Tuple t) override { EmitTo(0, std::move(t)); }
  void EmitTo(uint16_t stream_id, Tuple t) override {
    by_stream_[stream_id].push_back(std::move(t));
  }
  std::vector<Tuple>& stream(uint16_t id) { return by_stream_[id]; }
  size_t total() const {
    size_t n = 0;
    for (const auto& [_, v] : by_stream_) n += v.size();
    return n;
  }

 private:
  std::map<uint16_t, std::vector<Tuple>> by_stream_;
};

/// Prepares a fresh replica of operator `name` from `topo`'s factory.
std::unique_ptr<api::Operator> Instantiate(const api::Topology& topo,
                                           const std::string& name) {
  const auto id = topo.OpId(name);
  EXPECT_TRUE(id.ok()) << name;
  const auto& decl = topo.op(*id);
  auto op = decl.bolt_factory();
  api::OperatorContext ctx;
  ctx.operator_name = decl.name;
  ctx.output_streams = decl.output_streams;
  EXPECT_TRUE(op->Prepare(ctx).ok());
  return op;
}

api::Topology WordCountTopology() {
  auto topo = BuildWordCountDsl(std::make_shared<SinkTelemetry>());
  EXPECT_TRUE(topo.ok()) << topo.status();
  return std::move(topo).value();
}

api::Topology FraudDetectionTopology() {
  auto topo = BuildFraudDetection(std::make_shared<SinkTelemetry>());
  EXPECT_TRUE(topo.ok()) << topo.status();
  return std::move(topo).value();
}

api::Topology LinearRoadTopology() {
  auto topo = BuildLinearRoad(std::make_shared<SinkTelemetry>());
  EXPECT_TRUE(topo.ok()) << topo.status();
  return std::move(topo).value();
}

/// Hands every key of `from` to `to`, as a live migration moves keyed
/// state to a re-partitioned replica: a snapshot through the
/// checkpoint codec, restored into the new owner.
void HandOff(api::Operator& from, api::Operator& to) {
  auto entries = from.SnapshotKeyedState();
  EXPECT_FALSE(entries.empty());
  to.RestoreKeyedState(std::move(entries));
}

/// Expects `got` to hold `want`'s tuples in order: same origin
/// timestamps, and fields equal as keys (kind and bits).
void ExpectSameTuples(const std::vector<Tuple>& want,
                      const std::vector<Tuple>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].origin_ts_ns, got[i].origin_ts_ns) << what << " " << i;
    ASSERT_EQ(want[i].fields.size(), got[i].fields.size()) << what << " " << i;
    for (size_t f = 0; f < want[i].fields.size(); ++f) {
      EXPECT_TRUE(api::FieldKeyEq()(want[i].fields[f], got[i].fields[f]))
          << what << " output " << i << " field " << f;
    }
  }
}

/// Snapshots a replica of `name` after `prefix`, restores the
/// snapshot (each state through the tuple wire codec, as a checkpoint
/// file carries it) into a fresh replica, and feeds both the same
/// `suffix`: the two must emit identical tuples.
void ExpectSnapshotRestoresState(const api::Topology& topo,
                                 const std::string& name,
                                 const std::vector<Tuple>& prefix,
                                 const std::vector<Tuple>& suffix) {
  auto live = Instantiate(topo, name);
  CaptureCollector discard;
  for (const Tuple& t : prefix) live->Process(t, &discard);
  std::vector<api::CheckpointEntry> snapshot;
  for (auto& e : live->SnapshotKeyedState()) {
    std::vector<uint8_t> bytes;
    SerializeTuple(e.state, &bytes);
    size_t offset = 0;
    auto state = DeserializeTuple(bytes, &offset);
    ASSERT_TRUE(state.ok()) << state.status();
    snapshot.push_back({std::move(e.key), std::move(state).value()});
  }
  EXPECT_FALSE(snapshot.empty()) << name << " is not checkpointed";
  auto restored = Instantiate(topo, name);
  restored->RestoreKeyedState(std::move(snapshot));
  CaptureCollector want, got;
  for (const Tuple& t : suffix) {
    live->Process(t, &want);
    restored->Process(t, &got);
  }
  ASSERT_FALSE(want.stream(0).empty()) << name;
  ExpectSameTuples(want.stream(0), got.stream(0), name);
}

api::Topology SpikeDetectionTopology(const SpikeDetectionParams& params) {
  auto topo =
      BuildSpikeDetectionDsl(std::make_shared<SinkTelemetry>(), params);
  EXPECT_TRUE(topo.ok()) << topo.status();
  return std::move(topo).value();
}

// ---------------------------------------------------------------- WC --

TEST(WordCountTest, TopologyShape) {
  auto app = MakeApp(AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  EXPECT_EQ(app->topology().num_operators(), 5);
  EXPECT_EQ(app->topology().spouts().size(), 1u);
  EXPECT_EQ(app->topology().sinks().size(), 1u);
  // Counter subscribes with fields grouping (stateful, §2.2).
  const int counter = *app->topology().OpId("counter");
  EXPECT_EQ(app->topology().InEdges(counter)[0].grouping,
            api::GroupingType::kFields);
}

TEST(WordCountTest, SpoutEmitsSentencesOfTenWords) {
  WordCountParams params;
  SentenceSpout spout(params, MakeWordDictionary(params));
  api::OperatorContext ctx;
  ASSERT_TRUE(spout.Prepare(ctx).ok());
  CaptureCollector out;
  EXPECT_EQ(spout.NextBatch(20, &out), 20u);
  ASSERT_EQ(out.stream(0).size(), 20u);
  for (const auto& t : out.stream(0)) {
    const std::string_view sentence = t.GetString(0);
    const long spaces = std::count(sentence.begin(), sentence.end(), ' ');
    EXPECT_EQ(spaces, params.words_per_sentence - 1);
    EXPECT_GT(t.origin_ts_ns, 0);
  }
}

TEST(WordCountTest, SpoutReplicasEmitDifferentData) {
  WordCountParams params;
  const WordDictionary dictionary = MakeWordDictionary(params);
  SentenceSpout a(params, dictionary), b(params, dictionary);
  api::OperatorContext ctx_a, ctx_b;
  ctx_a.replica_index = 0;
  ctx_b.replica_index = 1;
  ASSERT_TRUE(a.Prepare(ctx_a).ok());
  ASSERT_TRUE(b.Prepare(ctx_b).ok());
  CaptureCollector out_a, out_b;
  a.NextBatch(5, &out_a);
  b.NextBatch(5, &out_b);
  EXPECT_NE(out_a.stream(0)[0].GetString(0), out_b.stream(0)[0].GetString(0));
}

TEST(WordCountTest, SplitterSelectivityIsWordsPerSentence) {
  const api::Topology topo = WordCountTopology();
  auto splitter = Instantiate(topo, "splitter");
  CaptureCollector out;
  Tuple t;
  t.fields.emplace_back(std::string("a bb ccc dddd"));
  t.origin_ts_ns = 42;
  splitter->Process(t, &out);
  ASSERT_EQ(out.stream(0).size(), 4u);
  EXPECT_EQ(out.stream(0)[0].GetString(0), "a");
  EXPECT_EQ(out.stream(0)[3].GetString(0), "dddd");
  // Origin timestamp propagates for latency accounting.
  EXPECT_EQ(out.stream(0)[2].origin_ts_ns, 42);
}

TEST(WordCountTest, SplitterHandlesRepeatedSpaces) {
  const api::Topology topo = WordCountTopology();
  auto splitter = Instantiate(topo, "splitter");
  CaptureCollector out;
  Tuple t;
  t.fields.emplace_back(std::string("  x  y "));
  splitter->Process(t, &out);
  ASSERT_EQ(out.stream(0).size(), 2u);
  EXPECT_EQ(out.stream(0)[0].GetString(0), "x");
  EXPECT_EQ(out.stream(0)[1].GetString(0), "y");
}

TEST(WordCountTest, CounterCountsOccurrences) {
  const api::Topology topo = WordCountTopology();
  auto counter = Instantiate(topo, "counter");
  CaptureCollector out;
  for (const char* w : {"cat", "dog", "cat", "cat"}) {
    Tuple t;
    t.fields.emplace_back(std::string(w));
    counter->Process(t, &out);
  }
  ASSERT_EQ(out.stream(0).size(), 4u);
  EXPECT_EQ(out.stream(0)[0].GetInt(1), 1);  // cat -> 1
  EXPECT_EQ(out.stream(0)[1].GetInt(1), 1);  // dog -> 1
  EXPECT_EQ(out.stream(0)[2].GetInt(1), 2);  // cat -> 2
  EXPECT_EQ(out.stream(0)[3].GetInt(1), 3);  // cat -> 3
}

TEST(WordCountTest, ParserDropsEmptyFirstField) {
  // WC's parser is a kernel filter, FD's a lambda one: same predicate.
  for (const api::Topology& topo :
       {WordCountTopology(), FraudDetectionTopology()}) {
    auto parser = Instantiate(topo, "parser");
    CaptureCollector out;
    Tuple bad;
    bad.fields.emplace_back(std::string(""));
    parser->Process(bad, &out);
    EXPECT_EQ(out.total(), 0u) << topo.name();
    Tuple good;
    good.fields.emplace_back(std::string("ok"));
    parser->Process(good, &out);
    EXPECT_EQ(out.total(), 1u) << topo.name();
  }
}

// ---------------------------------------------------------------- FD --

TEST(FraudDetectionTest, TopologyShape) {
  auto app = MakeApp(AppId::kFraudDetection);
  ASSERT_TRUE(app.ok());
  EXPECT_EQ(app->topology().num_operators(), 4);
  const int predict = *app->topology().OpId("predict");
  EXPECT_EQ(app->topology().InEdges(predict)[0].grouping,
            api::GroupingType::kFields);
}

TEST(FraudDetectionTest, PredictorEmitsOneSignalPerTransaction) {
  const api::Topology topo = FraudDetectionTopology();
  auto predictor = Instantiate(topo, "predict");
  CaptureCollector out;
  for (int i = 0; i < 10; ++i) {
    Tuple t;
    t.fields.emplace_back(int64_t{7});       // account
    t.fields.emplace_back(25.0 + i);         // amount
    t.fields.emplace_back(int64_t{3});       // merchant
    predictor->Process(t, &out);
  }
  EXPECT_EQ(out.total(), 10u);  // selectivity one (Appendix B)
}

/// One transaction of `amount` on account 1.
Tuple Transaction(double amount) {
  Tuple t;
  t.fields.emplace_back(int64_t{1});
  t.fields.emplace_back(amount);
  t.fields.emplace_back(int64_t{0});
  return t;
}

TEST(FraudDetectionTest, RareTransitionScoresHigherThanCommon) {
  const api::Topology topo = FraudDetectionTopology();
  auto predictor = Instantiate(topo, "predict");
  CaptureCollector out;
  // Train a stable pattern: small -> small many times.
  for (int i = 0; i < 200; ++i) predictor->Process(Transaction(5.0), &out);
  const double common_score = out.stream(0).back().GetDouble(1);
  // Now a huge jump: rare transition.
  predictor->Process(Transaction(4900.0), &out);
  const double rare_score = out.stream(0).back().GetDouble(1);
  EXPECT_GT(rare_score, common_score);
  EXPECT_GT(rare_score, 0.9);
}

// A migration that re-partitions predict hands each account's model to
// its new replica: the trained pattern survives, so the jump still
// scores as rare (a fresh model scores its first transaction 0).
TEST(FraudDetectionTest, PredictorStateSurvivesRepartitioning) {
  const api::Topology topo = FraudDetectionTopology();
  auto before = Instantiate(topo, "predict");
  auto after = Instantiate(topo, "predict");
  CaptureCollector out;
  for (int i = 0; i < 200; ++i) before->Process(Transaction(5.0), &out);
  HandOff(*before, *after);
  after->Process(Transaction(4900.0), &out);
  EXPECT_GT(out.stream(0).back().GetDouble(1), 0.9);
}

/// `n` transactions over ten accounts, mostly small amounts.
std::vector<Tuple> Transactions(Rng& rng, int n) {
  std::vector<Tuple> out;
  for (int i = 0; i < n; ++i) {
    Tuple t;
    t.fields = {Field(static_cast<int64_t>(rng.NextBounded(10))),
                Field(rng.NextBernoulli(0.1) ? 2000.0 : rng.NextDouble() * 90),
                Field(int64_t{0})};
    out.push_back(std::move(t));
  }
  return out;
}

TEST(FraudDetectionTest, PredictorStateSurvivesCheckpointRestore) {
  Rng rng(3);
  const std::vector<Tuple> prefix = Transactions(rng, 300);
  const std::vector<Tuple> suffix = Transactions(rng, 300);
  ExpectSnapshotRestoresState(FraudDetectionTopology(), "predict", prefix,
                              suffix);
}

// ---------------------------------------------------------------- SD --

TEST(SpikeDetectionTest, MovingAverageTracksWindowMean) {
  SpikeDetectionParams params;
  params.window = 4;
  const api::Topology topo = SpikeDetectionTopology(params);
  auto avg = Instantiate(topo, "moving_avg");
  CaptureCollector out;
  const double readings[] = {1, 2, 3, 4, 5, 6};
  for (const double r : readings) {
    Tuple t;
    t.fields.emplace_back(int64_t{9});
    t.fields.emplace_back(r);
    avg->Process(t, &out);
  }
  // After 6 readings with window 4: mean of {3,4,5,6} = 4.5.
  EXPECT_DOUBLE_EQ(out.stream(0).back().GetDouble(2), 4.5);
  // Windows are per device.
  Tuple other;
  other.fields.emplace_back(int64_t{10});
  other.fields.emplace_back(100.0);
  avg->Process(other, &out);
  EXPECT_DOUBLE_EQ(out.stream(0).back().GetDouble(2), 100.0);
}

TEST(SpikeDetectionTest, DetectorFlagsOnlySpikes) {
  SpikeDetectionParams params;
  params.spike_threshold = 2.0;
  const api::Topology topo = SpikeDetectionTopology(params);
  auto detector = Instantiate(topo, "spike_detect");
  CaptureCollector out;
  auto feed = [&](double reading, double avg) {
    Tuple t;
    t.fields.emplace_back(int64_t{1});
    t.fields.emplace_back(reading);
    t.fields.emplace_back(avg);
    detector->Process(t, &out);
    return out.stream(0).back().GetInt(1);
  };
  EXPECT_EQ(feed(10.0, 10.0), 0);  // normal
  EXPECT_EQ(feed(25.0, 10.0), 1);  // 2.5x the average: spike
  EXPECT_EQ(feed(19.0, 10.0), 0);  // below 2x
  // One signal per input regardless (Appendix B), keyed by device.
  EXPECT_EQ(out.total(), 3u);
  for (const Tuple& signal : out.stream(0)) {
    EXPECT_EQ(signal.GetInt(0), 1);
  }
}

// ---------------------------------------------------------------- LR --

TEST(LinearRoadTest, TopologyMatchesFig18c) {
  auto app = MakeApp(AppId::kLinearRoad);
  ASSERT_TRUE(app.ok());
  const auto& topo = app->topology();
  EXPECT_EQ(topo.num_operators(), 12);
  // toll_notify consumes four streams (Table 8).
  const int toll = *topo.OpId("toll_notify");
  EXPECT_EQ(topo.InEdges(toll).size(), 4u);
  // dispatcher declares three output streams.
  const int dispatcher = *topo.OpId("dispatcher");
  EXPECT_EQ(topo.op(dispatcher).output_streams.size(), 3u);
  // the sink merges four inputs.
  const int sink = *topo.OpId("sink");
  EXPECT_EQ(topo.InEdges(sink).size(), 4u);
}

TEST(LinearRoadTest, DispatcherRoutesByType) {
  const api::Topology topo = LinearRoadTopology();
  auto dispatcher = Instantiate(topo, "dispatcher");
  CaptureCollector out;
  Tuple pos;
  pos.fields = {Field(kLrPosition), Field(int64_t{1}), Field(int64_t{2}),
                Field(55.0), Field(int64_t{0})};
  Tuple bal;
  bal.fields = {Field(kLrBalance), Field(int64_t{1})};
  Tuple daily;
  daily.fields = {Field(kLrDaily), Field(int64_t{1}), Field(int64_t{10})};
  dispatcher->Process(pos, &out);
  dispatcher->Process(bal, &out);
  dispatcher->Process(daily, &out);
  EXPECT_EQ(out.stream(0).size(), 1u);  // position
  EXPECT_EQ(out.stream(1).size(), 1u);  // balance
  EXPECT_EQ(out.stream(2).size(), 1u);  // daily
}

// Every Linear Road tuple, the 5-field position reports included,
// fits a Tuple's inline field slots: neither the spout nor the
// dispatcher's forwarding copies touch the allocator for fields.
TEST(LinearRoadTest, SpoutAndDispatcherTuplesStayInline) {
  LinearRoadParams params;
  params.balance_fraction = 0.1;  // enough of every event kind
  params.daily_fraction = 0.1;
  LinearRoadSpout spout(params);
  ASSERT_TRUE(spout.Prepare(api::OperatorContext{}).ok());
  CaptureCollector raw;
  ASSERT_EQ(spout.NextBatch(500, &raw), 500u);

  const api::Topology topo = LinearRoadTopology();
  auto dispatcher = Instantiate(topo, "dispatcher");
  CaptureCollector routed;
  for (const Tuple& t : raw.stream(0)) {
    EXPECT_FALSE(t.fields.on_heap()) << t.fields.size() << " fields";
    dispatcher->Process(t, &routed);
  }
  ASSERT_EQ(routed.total(), 500u);
  for (uint16_t s = 0; s < 3; ++s) {
    EXPECT_FALSE(routed.stream(s).empty()) << "stream " << s;
    for (const Tuple& t : routed.stream(s)) {
      EXPECT_FALSE(t.fields.on_heap())
          << "stream " << s << ": " << t.fields.size() << " fields";
    }
  }
}

/// A position report of `vehicle` in `segment` at `speed`.
Tuple Position(int64_t vehicle, int64_t segment, double speed) {
  Tuple t;
  t.fields = {Field(kLrPosition), Field(vehicle), Field(segment),
              Field(speed), Field(int64_t{1})};
  return t;
}

TEST(LinearRoadTest, AccidentDetectNeedsFourConsecutiveStops) {
  const api::Topology topo = LinearRoadTopology();
  auto detect = Instantiate(topo, "accident_detect");
  CaptureCollector out;
  auto report = [&](double speed) {
    detect->Process(Position(5, 33, speed), &out);
  };
  report(0.0);
  report(0.0);
  report(0.0);
  EXPECT_EQ(out.total(), 0u);
  report(0.0);  // fourth consecutive stop
  ASSERT_EQ(out.total(), 1u);
  EXPECT_EQ(out.stream(0)[0].GetInt(1), 33);  // segment
  // A moving report resets the counter.
  report(50.0);
  report(0.0);
  report(0.0);
  report(0.0);
  EXPECT_EQ(out.total(), 1u);
}

TEST(LinearRoadTest, TollChargedOnlyWhenCongestedSlowAndAccidentFree) {
  const api::Topology topo = LinearRoadTopology();
  auto toll = Instantiate(topo, "toll_notify");
  CaptureCollector out;
  auto count = [&](int64_t cars) {
    Tuple t;
    t.fields = {Field(kLrCount), Field(int64_t{7}), Field(cars)};
    toll->Process(t, &out);
  };
  auto las = [&](double speed) {
    Tuple t;
    t.fields = {Field(kLrLasSpeed), Field(int64_t{7}), Field(speed)};
    toll->Process(t, &out);
  };
  auto position = [&]() {
    Tuple t;
    t.fields = {Field(kLrPosition), Field(int64_t{9}), Field(int64_t{7}),
                Field(30.0), Field(int64_t{0})};
    toll->Process(t, &out);
    return out.stream(0).back().GetDouble(2);
  };
  count(10);
  las(20.0);
  EXPECT_EQ(position(), 0.0);  // not congested
  count(80);
  EXPECT_GT(position(), 0.0);  // congested + slow: toll due
  las(90.0);
  EXPECT_EQ(position(), 0.0);  // traffic flows freely again
  // Accident suppresses tolls.
  las(20.0);
  Tuple accident;
  accident.fields = {Field(kLrAccident), Field(int64_t{7})};
  toll->Process(accident, &out);
  EXPECT_EQ(position(), 0.0);
}

TEST(LinearRoadTest, AccidentNotifyOnlyInAccidentSegments) {
  const api::Topology topo = LinearRoadTopology();
  auto notify = Instantiate(topo, "accident_notify");
  CaptureCollector out;
  const Tuple pos = Position(2, 4, 44.0);
  notify->Process(pos, &out);
  EXPECT_EQ(out.total(), 0u);
  Tuple accident;
  accident.fields = {Field(kLrAccident), Field(int64_t{4})};
  notify->Process(accident, &out);
  notify->Process(pos, &out);
  ASSERT_EQ(out.total(), 1u);
  EXPECT_EQ(out.stream(0)[0].GetInt(2), 4);
}

// A migration that re-partitions count_vehicle or accident_detect
// hands each key's state to its new replica: counts continue instead
// of restarting at 1, and stops counted before the hand-off still add
// up to an accident.
TEST(LinearRoadTest, KeyedStateSurvivesRepartitioning) {
  const api::Topology topo = LinearRoadTopology();
  auto count_before = Instantiate(topo, "count_vehicle");
  auto count_after = Instantiate(topo, "count_vehicle");
  CaptureCollector counts;
  for (const int64_t vehicle : {1, 2, 3}) {
    count_before->Process(Position(vehicle, 7, 55.0), &counts);
  }
  HandOff(*count_before, *count_after);
  count_after->Process(Position(4, 7, 55.0), &counts);
  EXPECT_EQ(counts.stream(0).back().GetInt(2), 4);
  count_after->Process(Position(1, 7, 55.0), &counts);  // seen before
  EXPECT_EQ(counts.stream(0).back().GetInt(2), 4);

  auto detect_before = Instantiate(topo, "accident_detect");
  auto detect_after = Instantiate(topo, "accident_detect");
  CaptureCollector accidents;
  for (int stop = 0; stop < 3; ++stop) {
    detect_before->Process(Position(5, 33, 0.0), &accidents);
  }
  HandOff(*detect_before, *detect_after);
  EXPECT_EQ(accidents.total(), 0u);
  detect_after->Process(Position(5, 33, 0.0), &accidents);  // fourth stop
  ASSERT_EQ(accidents.total(), 1u);
  EXPECT_EQ(accidents.stream(0)[0].GetInt(1), 33);  // segment
}

/// `n` position reports over four segments and a small fleet (so ids
/// repeat), a third of them stops (so stop runs reach accidents).
std::vector<Tuple> Positions(Rng& rng, int n) {
  std::vector<Tuple> out;
  for (int i = 0; i < n; ++i) {
    const double speed = rng.NextBernoulli(0.3) ? 0.0 : rng.NextDouble() * 100;
    out.push_back(Position(static_cast<int64_t>(rng.NextBounded(60)),
                           static_cast<int64_t>(rng.NextBounded(4)), speed));
  }
  return out;
}

// Every keyed LR state is in checkpoints: a replica restored from a
// mid-stream snapshot continues exactly as the live one.
// count_vehicle's prefix includes ids outside the spout's range, and
// its suffix repeats them, so the overflow set must round-trip too.
TEST(LinearRoadTest, KeyedStateSurvivesCheckpointRestore) {
  const api::Topology topo = LinearRoadTopology();
  Rng rng(11);
  std::vector<Tuple> prefix = Positions(rng, 400);
  std::vector<Tuple> suffix = Positions(rng, 400);
  const int64_t n = LinearRoadParams().num_vehicles;
  const int64_t big = std::numeric_limits<int64_t>::max();
  for (const int64_t id : {int64_t{-1}, n - 1, n, big, -big - 1}) {
    prefix.push_back(Position(id, 2, 50.0));
    suffix.push_back(Position(id, 2, 50.0));
  }
  for (const char* op : {"avg_speed", "count_vehicle", "accident_detect"}) {
    ExpectSnapshotRestoresState(topo, op, prefix, suffix);
  }
}

// count_vehicle's bitmap plus overflow set counts exactly what a
// std::set would, for ids inside and outside the spout's range, and
// its state stays bounded by the range whatever ids arrive.
TEST(LinearRoadTest, CountVehicleMatchesSetReference) {
  const api::Topology topo = LinearRoadTopology();
  auto count = Instantiate(topo, "count_vehicle");
  const int64_t n = LinearRoadParams().num_vehicles;
  const int64_t big = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> edges = {-1, 0, n - 1, n, big, -big - 1};
  std::map<int64_t, std::set<int64_t>> reference;  // by segment
  CaptureCollector out;
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const auto segment = static_cast<int64_t>(rng.NextBounded(3));
    int64_t vehicle = static_cast<int64_t>(rng.NextBounded(n));
    const uint64_t pick = rng.NextBounded(20);
    if (pick == 0) vehicle = edges[rng.NextBounded(edges.size())];
    if (pick == 1) vehicle = static_cast<int64_t>(rng.Next());  // any id
    reference[segment].insert(vehicle);
    count->Process(Position(vehicle, segment, 50.0), &out);
    ASSERT_EQ(out.stream(0).back().GetInt(2),
              static_cast<int64_t>(reference[segment].size()))
        << "report " << i << ", vehicle " << vehicle;
  }
  // A segment's checkpointed state is its count, the overflow ids and
  // at most one bitmap word per 64 ids of the range.
  for (const auto& e : count->SnapshotKeyedState()) {
    size_t overflow = 0;
    for (const int64_t id : reference[e.key.AsInt()]) {
      overflow += (id < 0 || id >= n) ? 1 : 0;
    }
    EXPECT_LE(e.state.fields.size(),
              2 + overflow + static_cast<size_t>((n + 63) / 64));
  }
}

// ------------------------------------------------------------ shared --

/// PipelineSink capturing a batch's surviving rows, in order.
class CaptureSink : public api::PipelineSink {
 public:
  void ConsumeSelected(JumboTuple* batch, const SelectionVector& sel) override {
    sel.ForEachSet([&](size_t i) { rows.push_back(batch->tuples[i]); });
  }
  std::vector<Tuple> rows;
};

/// Feeds `rows` through `op`'s compiled pipeline in batches of up to
/// 64 (the engine's default batch size, so the tail is ragged) and
/// returns what the pipeline emitted.
std::vector<Tuple> RunBatches(api::Operator& op,
                              const std::vector<Tuple>& rows) {
  api::CompiledPipeline* pipe = op.pipeline();
  EXPECT_NE(pipe, nullptr);
  CaptureSink sink;
  if (pipe == nullptr) return {};
  for (size_t at = 0; at < rows.size(); at += 64) {
    JumboTuple batch;
    const size_t end = std::min(rows.size(), at + 64);
    batch.tuples.assign(rows.begin() + at, rows.begin() + end);
    pipe->RunBatch(&batch, &sink);
  }
  return sink.rows;
}

/// Drives operator `name` of `topo` with `prefix` then `suffix`, once
/// through Process (the row path) and once through its compiled
/// pipeline's RunBatch, restoring the batch replica's mid-stream
/// snapshot into a fresh replica before the suffix: both paths must
/// emit the same tuples (origin timestamps included) and snapshot the
/// same keyed state.
void ExpectBatchPathMatchesRowPath(const api::Topology& topo,
                                   const std::string& name,
                                   std::vector<Tuple> prefix,
                                   std::vector<Tuple> suffix) {
  int64_t origin = 1000;
  for (auto* rows : {&prefix, &suffix}) {
    for (Tuple& t : *rows) t.origin_ts_ns = origin++;
  }
  auto row = Instantiate(topo, name);
  auto batch = Instantiate(topo, name);
  CaptureCollector row_prefix;
  for (const Tuple& t : prefix) row->Process(t, &row_prefix);
  ExpectSameTuples(row_prefix.stream(0), RunBatches(*batch, prefix),
                   name + " prefix");

  auto row_state = row->SnapshotKeyedState();
  auto batch_state = batch->SnapshotKeyedState();
  ASSERT_FALSE(row_state.empty()) << name;
  ASSERT_EQ(row_state.size(), batch_state.size()) << name;
  for (const auto& e : row_state) {
    const auto match = std::find_if(
        batch_state.begin(), batch_state.end(),
        [&](const api::CheckpointEntry& b) {
          return api::FieldKeyEq()(b.key, e.key);
        });
    ASSERT_NE(match, batch_state.end()) << name;
    ExpectSameTuples({e.state}, {match->state}, name + " state");
  }

  auto restored = Instantiate(topo, name);
  restored->RestoreKeyedState(std::move(batch_state));
  CaptureCollector row_suffix;
  for (const Tuple& t : suffix) row->Process(t, &row_suffix);
  ExpectSameTuples(row_suffix.stream(0), RunBatches(*restored, suffix),
                   name + " suffix");
}

TEST(AppsBatchPathTest, KeyedAggregatesMatchTheRowPath) {
  Rng rng(17);
  const std::vector<Tuple> txn_prefix = Transactions(rng, 300);
  const std::vector<Tuple> txn_suffix = Transactions(rng, 300);
  ExpectBatchPathMatchesRowPath(FraudDetectionTopology(), "predict",
                                txn_prefix, txn_suffix);
  const api::Topology lr = LinearRoadTopology();
  const std::vector<Tuple> pos_prefix = Positions(rng, 400);
  const std::vector<Tuple> pos_suffix = Positions(rng, 400);
  for (const char* op : {"avg_speed", "count_vehicle", "accident_detect"}) {
    ExpectBatchPathMatchesRowPath(lr, op, pos_prefix, pos_suffix);
  }
}

class AppRegistryTest : public ::testing::TestWithParam<AppId> {};

TEST_P(AppRegistryTest, ProfilesCoverEveryOperatorAndStream) {
  auto app = MakeApp(GetParam());
  ASSERT_TRUE(app.ok());
  for (const auto& op : app->topology().ops()) {
    auto p = app->profiles.Get(op.name);
    ASSERT_TRUE(p.ok()) << op.name;
    EXPECT_GT(p->te_cycles, 0.0) << op.name;
    EXPECT_GE(p->selectivity.size(), op.output_streams.size()) << op.name;
    EXPECT_GE(p->output_bytes.size(), op.output_streams.size()) << op.name;
  }
}

TEST_P(AppRegistryTest, LegacyProfilesStrictlyCostlier) {
  const AppId id = GetParam();
  auto brisk = ProfilesFor(id, SystemKind::kBrisk);
  auto storm = ProfilesFor(id, SystemKind::kStormLike);
  auto flink = ProfilesFor(id, SystemKind::kFlinkLike);
  auto nojumbo = ProfilesFor(id, SystemKind::kBriskNoJumbo);
  ASSERT_TRUE(brisk.ok() && storm.ok() && flink.ok() && nojumbo.ok());
  for (const auto& [name, p] : brisk->all()) {
    EXPECT_GT(storm->Get(name)->te_cycles, p.te_cycles) << name;
    EXPECT_GT(flink->Get(name)->te_cycles, p.te_cycles) << name;
    EXPECT_GT(nojumbo->Get(name)->te_cycles, p.te_cycles) << name;
    // Storm's per-tuple cost exceeds the no-jumbo variant's.
    EXPECT_GT(storm->Get(name)->te_cycles, nojumbo->Get(name)->te_cycles);
  }
}

TEST_P(AppRegistryTest, TelemetryIsolatedPerBundle) {
  auto a = MakeApp(GetParam());
  auto b = MakeApp(GetParam());
  ASSERT_TRUE(a.ok() && b.ok());
  a->telemetry->RecordTuple(0, 0);
  EXPECT_EQ(a->telemetry->count(), 1u);
  EXPECT_EQ(b->telemetry->count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppRegistryTest,
                         ::testing::ValuesIn(kAllApps),
                         [](const auto& info) {
                           return AppName(info.param);
                         });

}  // namespace
}  // namespace brisk::apps
