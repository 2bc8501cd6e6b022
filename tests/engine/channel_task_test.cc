// Unit tests for engine internals: channels and task wiring/routing.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "engine/channel.h"
#include "engine/config.h"
#include "engine/task.h"
#include "engine/waker.h"

namespace brisk::engine {
namespace {

Tuple WordTuple(const std::string& w) {
  Tuple t;
  t.fields.emplace_back(w);
  return t;
}

TEST(ChannelTest, RoundTripsEnvelopes) {
  Channel ch(0, 1, 4);
  EXPECT_EQ(ch.from_instance(), 0);
  EXPECT_EQ(ch.to_instance(), 1);
  Envelope env;
  env.from_instance = 3;
  env.batch = std::make_unique<JumboTuple>();
  env.batch->tuples.push_back(WordTuple("a"));
  ASSERT_TRUE(ch.TryPush(std::move(env)));
  Envelope out;
  ASSERT_TRUE(ch.TryPop(&out));
  EXPECT_EQ(out.from_instance, 3);
  ASSERT_NE(out.batch, nullptr);
  EXPECT_EQ(out.batch->tuples[0].GetString(0), "a");
  EXPECT_FALSE(ch.TryPop(&out));
}

TEST(ChannelTest, RecycleReturnsShellsToTheProducerSide) {
  Channel ch(0, 1, 4);
  // Nothing recycled yet.
  JumboTuplePtr shell;
  EXPECT_FALSE(ch.TryPopRecycled(&shell));
  // Consumer hands back two drained shells; producer gets both, FIFO.
  auto a = std::make_unique<JumboTuple>();
  auto b = std::make_unique<JumboTuple>();
  const JumboTuple* first = a.get();
  const JumboTuple* second = b.get();
  ch.Recycle(std::move(a));
  ch.Recycle(std::move(b));
  ASSERT_TRUE(ch.TryPopRecycled(&shell));
  EXPECT_EQ(shell.get(), first);
  ASSERT_TRUE(ch.TryPopRecycled(&shell));
  EXPECT_EQ(shell.get(), second);
  EXPECT_FALSE(ch.TryPopRecycled(&shell));
}

TEST(ChannelTest, RecycledShellKeepsCapacityAfterReset) {
  Channel ch(0, 1, 4);
  auto batch = std::make_unique<JumboTuple>();
  for (int i = 0; i < 64; ++i) batch->tuples.push_back(WordTuple("w"));
  const size_t cap = batch->tuples.capacity();
  batch->Reset();
  EXPECT_TRUE(batch->empty());
  ch.Recycle(std::move(batch));
  JumboTuplePtr shell;
  ASSERT_TRUE(ch.TryPopRecycled(&shell));
  EXPECT_EQ(shell->tuples.capacity(), cap);  // the point of the pool
}

TEST(ChannelTest, RetryAfterFullPushKeepsEnvelope) {
  Channel ch(0, 1, 2);
  size_t pushed = 0;
  while (true) {
    Envelope env;
    env.batch = std::make_unique<JumboTuple>();
    if (!ch.TryPush(std::move(env))) {
      // The failed envelope must still be intact for a retry.
      ASSERT_NE(env.batch, nullptr);
      break;
    }
    ++pushed;
  }
  EXPECT_GE(pushed, 2u);
}

// The channel's capacity is its one bound: the ring under it rounds up
// to a power of two (7 usable slots here), but the channel admits
// exactly `capacity` envelopes, and the pop that takes it off full is
// the one that wakes a producer parked on back-pressure.
TEST(ChannelTest, AdmitsExactlyItsCapacityAndPopFromFullWakesProducer) {
  Channel ch(0, 1, 4);
  Waker consumer_waker;
  Waker producer_waker;
  WakerRef consumer(&consumer_waker);
  WakerRef producer(&producer_waker);
  ch.SetWakers(&consumer, &producer);
  size_t pushed = 0;
  for (int i = 0; i < 8; ++i) {
    Envelope env;
    env.batch = std::make_unique<JumboTuple>();
    if (ch.TryPush(std::move(env))) ++pushed;
  }
  EXPECT_EQ(pushed, 4u);
  EXPECT_EQ(consumer_waker.notify_count(), 1u);  // only the push into empty
  EXPECT_EQ(producer_waker.notify_count(), 0u);

  Envelope out;
  ASSERT_TRUE(ch.TryPop(&out));  // from full: wakes the producer
  EXPECT_EQ(producer_waker.notify_count(), 1u);
  ASSERT_TRUE(ch.TryPop(&out));  // below full already: no wake
  EXPECT_EQ(producer_waker.notify_count(), 1u);

  // Room for exactly the two popped envelopes.
  pushed = 0;
  for (int i = 0; i < 4; ++i) {
    Envelope env;
    env.batch = std::make_unique<JumboTuple>();
    if (ch.TryPush(std::move(env))) ++pushed;
  }
  EXPECT_EQ(pushed, 2u);
  ch.SetWakers(nullptr, nullptr);
}

/// Drives a Task directly (no thread) to verify collector routing.
class RoutingFixture : public ::testing::Test {
 protected:
  /// Builds a producer task with one route of `consumers` channels
  /// under the given grouping.
  void Wire(api::GroupingType grouping, int consumers, int batch_size,
            size_t key_field = 0) {
    config_ = EngineConfig::Brisk();
    config_.batch_size = batch_size;
    task_ = std::make_unique<Task>(0, 0, config_, nullptr);
    OutRoute route;
    route.stream_id = 0;
    route.grouping = grouping;
    route.key_field = key_field;
    for (int c = 0; c < consumers; ++c) {
      channels_.push_back(std::make_unique<Channel>(0, c + 1, 64));
      route.channels.push_back(channels_.back().get());
      route.buffer_index.push_back(task_->AddBuffer());
    }
    task_->AddOutRoute(std::move(route));
  }

  /// Pops every batch from channel `c` and returns the tuples,
  /// recycling the drained shells like a consumer task would.
  std::vector<Tuple> Drain(int c) {
    std::vector<Tuple> out;
    Envelope env;
    while (channels_[c]->TryPop(&env)) {
      for (auto& t : env.batch->tuples) out.push_back(t);
      env.batch->Reset();
      channels_[c]->Recycle(std::move(env.batch));
    }
    return out;
  }

  EngineConfig config_;
  std::unique_ptr<Task> task_;
  std::vector<std::unique_ptr<Channel>> channels_;
};

TEST_F(RoutingFixture, ShuffleRoundRobinsAcrossConsumers) {
  Wire(api::GroupingType::kShuffle, 3, /*batch_size=*/2);
  for (int i = 0; i < 12; ++i) task_->EmitTo(0, WordTuple("w"));
  // 12 tuples over 3 consumers round-robin = 4 each (batch size 2 =>
  // every full batch was flushed).
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(Drain(c).size(), 4u) << "consumer " << c;
  }
}

TEST_F(RoutingFixture, FieldsGroupingRoutesSameKeyToSameConsumer) {
  Wire(api::GroupingType::kFields, 4, /*batch_size=*/1);
  const char* words[] = {"alpha", "beta", "gamma", "delta", "alpha",
                         "beta",  "alpha"};
  for (const char* w : words) task_->EmitTo(0, WordTuple(w));
  // Collect word->consumer mapping; each word must map to exactly one.
  std::map<std::string, std::set<int>> where;
  for (int c = 0; c < 4; ++c) {
    for (const auto& t : Drain(c)) {
      where[std::string(t.GetString(0))].insert(c);
    }
  }
  EXPECT_EQ(where.size(), 4u);  // four distinct words
  for (const auto& [word, consumers] : where) {
    EXPECT_EQ(consumers.size(), 1u) << word << " split across consumers";
  }
}

TEST_F(RoutingFixture, BroadcastCopiesToEveryConsumer) {
  Wire(api::GroupingType::kBroadcast, 3, /*batch_size=*/1);
  for (int i = 0; i < 5; ++i) task_->EmitTo(0, WordTuple("b"));
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(Drain(c).size(), 5u) << "consumer " << c;
  }
}

TEST_F(RoutingFixture, GlobalGoesToFirstReplicaOnly) {
  Wire(api::GroupingType::kGlobal, 1, /*batch_size=*/1);
  for (int i = 0; i < 5; ++i) task_->EmitTo(0, WordTuple("g"));
  EXPECT_EQ(Drain(0).size(), 5u);
}

TEST_F(RoutingFixture, PartialBatchesStayBufferedUntilFull) {
  Wire(api::GroupingType::kShuffle, 1, /*batch_size=*/8);
  for (int i = 0; i < 7; ++i) task_->EmitTo(0, WordTuple("p"));
  EXPECT_TRUE(Drain(0).empty());  // below the jumbo size: not flushed
  task_->EmitTo(0, WordTuple("p"));
  EXPECT_EQ(Drain(0).size(), 8u);  // 8th tuple completed the batch
}

TEST_F(RoutingFixture, StatsCountEmissions) {
  Wire(api::GroupingType::kShuffle, 2, /*batch_size=*/2);
  for (int i = 0; i < 10; ++i) task_->EmitTo(0, WordTuple("s"));
  EXPECT_EQ(task_->stats().tuples_out, 10u);
  EXPECT_EQ(task_->stats().batches_out, 4u);  // 2 full batches each side
}

TEST_F(RoutingFixture, FlushReusesRecycledBatchShells) {
  Wire(api::GroupingType::kShuffle, 1, /*batch_size=*/4);
  // First flush: pool empty, shell is allocated.
  for (int i = 0; i < 4; ++i) task_->EmitTo(0, WordTuple("a"));
  EXPECT_EQ(task_->stats().batches_out, 1u);
  EXPECT_EQ(task_->stats().batches_recycled, 0u);
  EXPECT_EQ(Drain(0).size(), 4u);  // drain hands the shell back
  // Every subsequent flush reuses the recycled shell: steady state
  // never touches the allocator.
  for (int round = 1; round <= 3; ++round) {
    for (int i = 0; i < 4; ++i) task_->EmitTo(0, WordTuple("b"));
    EXPECT_EQ(Drain(0).size(), 4u);
    EXPECT_EQ(task_->stats().batches_recycled,
              static_cast<uint64_t>(round));
  }
}

TEST_F(RoutingFixture, FlushBorrowsIdleShellsFromSiblingChannels) {
  Wire(api::GroupingType::kShuffle, 2, /*batch_size=*/1);
  task_->EmitTo(0, WordTuple("a"));  // -> consumer 0, allocated
  task_->EmitTo(0, WordTuple("b"));  // -> consumer 1, allocated
  EXPECT_EQ(Drain(0).size(), 1u);    // consumer 1 stays undrained
  task_->EmitTo(0, WordTuple("c"));  // -> consumer 0, its own shell
  EXPECT_EQ(Drain(0).size(), 1u);
  // Consumer 1 has handed nothing back; the shell idling in consumer
  // 0's pool serves its flush instead of the allocator.
  task_->EmitTo(0, WordTuple("d"));  // -> consumer 1
  EXPECT_EQ(task_->stats().batches_out, 4u);
  EXPECT_EQ(task_->stats().batches_recycled, 2u);
  EXPECT_EQ(Drain(1).size(), 2u);
}

/// Two routes on the same stream: every route must see every tuple —
/// earlier routes receive copies, the last one the moved original.
TEST_F(RoutingFixture, MultipleRoutesOnOneStreamAllReceiveTheTuple) {
  config_ = EngineConfig::Brisk();
  config_.batch_size = 1;
  task_ = std::make_unique<Task>(0, 0, config_, nullptr);
  for (int r = 0; r < 2; ++r) {
    OutRoute route;
    route.stream_id = 0;
    route.grouping = api::GroupingType::kGlobal;
    channels_.push_back(std::make_unique<Channel>(0, r + 1, 64));
    route.channels.push_back(channels_.back().get());
    route.buffer_index.push_back(task_->AddBuffer());
    task_->AddOutRoute(std::move(route));
  }
  const std::string long_word(100, 'x');  // heap string: copies must be deep
  for (int i = 0; i < 3; ++i) task_->EmitTo(0, WordTuple(long_word));
  for (int c = 0; c < 2; ++c) {
    const std::vector<Tuple> got = Drain(c);
    ASSERT_EQ(got.size(), 3u) << "route " << c;
    for (const Tuple& t : got) EXPECT_EQ(t.GetString(0), long_word);
  }
}

TEST_F(RoutingFixture, EmitOnStreamWithoutRoutesIsDropped) {
  Wire(api::GroupingType::kShuffle, 1, /*batch_size=*/1);
  task_->EmitTo(7, WordTuple("nowhere"));  // no route on stream 7
  task_->EmitTo(0, WordTuple("routed"));
  EXPECT_EQ(Drain(0).size(), 1u);
  EXPECT_EQ(task_->stats().tuples_out, 2u);
}

/// Emits every input twice and records, mid-batch, the task's input
/// and per-stream output counters.
class DoublingBolt : public api::Operator {
 public:
  explicit DoublingBolt(const Task* task) : task_(task) {}
  void Process(const Tuple& in, api::OutputCollector* out) override {
    out->Emit(in);
    out->Emit(in);
    seen.emplace_back(task_->stats().tuples_in.value(),
                      task_->stats().stream_tuples_out[0].value());
  }
  std::vector<std::pair<uint64_t, uint64_t>> seen;

 private:
  const Task* task_;
};

// A stats snapshot taken mid-batch must not see a batch's outputs
// without its inputs: the per-stream output counts land with
// tuples_in, once per batch, so a short window's selectivity is exact.
TEST(TaskStatsTest, StreamOutputsLandWithTheirBatchInputs) {
  const EngineConfig config = EngineConfig::Brisk();
  Task task(1, 0, config, nullptr);
  task.SetIdentity(0, 0, "double", 1);
  auto bolt = std::make_unique<DoublingBolt>(&task);
  DoublingBolt* probe = bolt.get();
  task.SetBolt(std::move(bolt));
  Channel in(0, 1, 8);
  Channel out(1, 2, 8);
  task.AddInput(&in);
  OutRoute route;
  route.channels.push_back(&out);
  route.buffer_index.push_back(task.AddBuffer());
  task.AddOutRoute(std::move(route));
  StopSignals signals;
  task.Bind(&signals);
  for (int b = 0; b < 2; ++b) {
    Envelope env;
    env.batch = std::make_unique<JumboTuple>();
    for (int i = 0; i < 4; ++i) env.batch->tuples.push_back(WordTuple("t"));
    env.from_instance = 0;
    ASSERT_TRUE(in.TryPush(std::move(env)));
  }

  task.Poll(/*budget=*/1);  // one batch
  EXPECT_EQ(task.stats().tuples_in.value(), 4u);
  EXPECT_EQ(task.stats().stream_tuples_out[0].value(), 8u);
  EXPECT_EQ(task.stats().tuples_out.value(), 8u);
  task.Poll(/*budget=*/1);
  EXPECT_EQ(task.stats().tuples_in.value(), 8u);
  EXPECT_EQ(task.stats().stream_tuples_out[0].value(), 16u);

  ASSERT_EQ(probe->seen.size(), 8u);
  for (size_t i = 0; i < probe->seen.size(); ++i) {
    const uint64_t before = i < 4 ? 0 : 4;  // inputs of earlier batches
    EXPECT_EQ(probe->seen[i].first, before) << i;
    EXPECT_EQ(probe->seen[i].second, 2 * before) << i;
  }
}

}  // namespace
}  // namespace brisk::engine
