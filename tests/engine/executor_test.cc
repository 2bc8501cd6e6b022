// Executor tests: socket-aware worker pool (fairness under
// oversubscription, park/wake, cooperative back-pressure), pin-CPU
// derivation from the plan socket, and graceful drain of bounded
// sources.
#include "engine/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "apps/apps.h"
#include "engine/runtime.h"
#include "model/execution_plan.h"

namespace brisk::engine {
namespace {

using model::ExecutionPlan;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int HostCores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// ---------------------------------------------------------------------------
// Pin-CPU derivation (the placement-honoring fix): the CPU comes from
// the plan's socket × cores-per-socket, not `instance_id % cores`.
// ---------------------------------------------------------------------------

TEST(PinCpuTest, DerivesCpuFromPlanSocketAndSlot) {
  // Socket-major layout on a 4-cores-per-socket, 16-core host.
  EXPECT_EQ(PinCpuForSocketSlot(0, 0, 4, 16), 0);
  EXPECT_EQ(PinCpuForSocketSlot(0, 3, 4, 16), 3);
  EXPECT_EQ(PinCpuForSocketSlot(1, 0, 4, 16), 4);
  EXPECT_EQ(PinCpuForSocketSlot(1, 3, 4, 16), 7);
  EXPECT_EQ(PinCpuForSocketSlot(3, 2, 4, 16), 14);
  // Slots beyond the socket's cores wrap within the socket.
  EXPECT_EQ(PinCpuForSocketSlot(1, 5, 4, 16), 5);
  // A virtual socket beyond the host's cores wraps to a real CPU.
  EXPECT_EQ(PinCpuForSocketSlot(3, 2, 4, 8), 6);
  // No machine spec: host treated as one socket.
  EXPECT_EQ(PinCpuForSocketSlot(2, 3, 0, 4), 3);
  // Unpinnable host.
  EXPECT_EQ(PinCpuForSocketSlot(0, 0, 4, 0), -1);
}

TEST(PinCpuTest, WorkerSizingHonorsOverrideAndHostCap) {
  EngineConfig cfg;
  cfg.workers_per_socket = 3;
  EXPECT_EQ(WorkersPerSocketFor(cfg, nullptr, 8), 3);
  cfg.workers_per_socket = 0;
  const int derived = WorkersPerSocketFor(cfg, nullptr, 1);
  EXPECT_GE(derived, 1);
  EXPECT_LE(derived, HostCores());
  // Many-socket plans split the host instead of multiplying it.
  const hw::MachineSpec big =
      hw::MachineSpec::Symmetric(8, 18, 1.2, 100, 300, 40, 12);
  const int per = WorkersPerSocketFor(cfg, &big, 8);
  EXPECT_GE(per, 1);
  EXPECT_LE(per * 8, std::max(8, HostCores()));
}

// ---------------------------------------------------------------------------
// Waker: the park/wake race on push-into-empty. A Notify that lands in
// the window between "scan found nothing" and the actual park must not
// be lost — WaitFor latches it and returns immediately.
// ---------------------------------------------------------------------------

TEST(WakerTest, NotifyBeforeWaitIsLatched) {
  Waker w;
  w.Notify();
  EXPECT_TRUE(w.WaitFor(std::chrono::microseconds(0)));
  // Consumed: a second wait times out.
  EXPECT_FALSE(w.WaitFor(std::chrono::microseconds(100)));
}

TEST(WakerTest, ParkWakeRaceHammer) {
  // Notifications coalesce (a Waker is a latch, not a semaphore), so
  // the hammer is a ping-pong handshake: each round the producer's
  // Notify races the consumer's park entry, and a lost wake would
  // surface as a 500 ms timeout. Yield jitter varies whether Notify
  // lands before, during, or after WaitFor.
  Waker work;
  Waker ack;
  constexpr int kRounds = 2000;
  std::atomic<int> woken{0};
  std::thread consumer([&] {
    for (int i = 0; i < kRounds; ++i) {
      if (work.WaitFor(std::chrono::milliseconds(500))) {
        woken.fetch_add(1, std::memory_order_relaxed);
      }
      ack.Notify();
    }
  });
  std::thread producer([&] {
    for (int i = 0; i < kRounds; ++i) {
      work.Notify();
      if (i % 3 == 0) std::this_thread::yield();
      ASSERT_TRUE(ack.WaitFor(std::chrono::milliseconds(500)));
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(woken.load(), kRounds);
}

TEST(ChannelWakeTest, PushIntoEmptyWakesConsumerPopFromFullWakesProducer) {
  Channel ch(0, 1, 4);
  Waker consumer;
  Waker producer;
  WakerRef consumer_ref;
  WakerRef producer_ref;
  consumer_ref.Point(&consumer);
  producer_ref.Point(&producer);
  ch.SetWakers(&consumer_ref, &producer_ref);
  auto push_one = [&] {
    Envelope env;
    env.batch = std::make_unique<JumboTuple>();
    return ch.TryPush(std::move(env));
  };
  ASSERT_TRUE(push_one());  // empty -> nonempty
  EXPECT_EQ(consumer.notify_count(), 1u);
  ASSERT_TRUE(push_one());  // nonempty: no new wake
  EXPECT_EQ(consumer.notify_count(), 1u);
  Envelope out;
  ASSERT_TRUE(ch.TryPop(&out));  // not full: no producer wake
  EXPECT_EQ(producer.notify_count(), 0u);
  while (push_one()) {
  }  // fill to capacity
  ASSERT_TRUE(ch.TryPop(&out));  // full -> not full releases producer
  EXPECT_EQ(producer.notify_count(), 1u);
}

// ---------------------------------------------------------------------------
// Custom mini-topologies for drain/back-pressure tests.
// ---------------------------------------------------------------------------

/// Emits exactly `total` int tuples, then reports exhaustion.
class BoundedSpout : public api::Spout {
 public:
  explicit BoundedSpout(uint64_t total) : remaining_(total) {}
  size_t NextBatch(size_t max_tuples, api::OutputCollector* out) override {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(max_tuples, remaining_));
    for (size_t i = 0; i < n; ++i) {
      Tuple t;
      t.fields.emplace_back(static_cast<int64_t>(i));
      out->Emit(std::move(t));
    }
    remaining_ -= n;
    return n;
  }

 private:
  uint64_t remaining_;
};

/// Passes tuples through, burning `spin_ns` of CPU per tuple.
class SpinBolt : public api::Operator {
 public:
  explicit SpinBolt(int64_t spin_ns) : spin_ns_(spin_ns) {}
  void Process(const Tuple& in, api::OutputCollector* out) override {
    if (spin_ns_ > 0) {
      const int64_t until = NowNs() + spin_ns_;
      while (NowNs() < until) {
      }
    }
    out->Emit(Tuple(in));
  }

 private:
  int64_t spin_ns_;
};

class CountingSink : public api::Operator {
 public:
  explicit CountingSink(std::atomic<uint64_t>* count) : count_(count) {}
  void Process(const Tuple&, api::OutputCollector*) override {
    count_->fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t>* count_;
};

/// spout -> bolt (optional per-tuple spin) -> counting sink.
StatusOr<api::Topology> MakeLine(uint64_t bounded_total, int64_t bolt_spin_ns,
                                 std::atomic<uint64_t>* sink_count) {
  api::TopologyBuilder b("line");
  b.AddSpout("src", [bounded_total] {
    return std::make_unique<BoundedSpout>(bounded_total);
  });
  b.AddBolt("mid", [bolt_spin_ns] {
    return std::make_unique<SpinBolt>(bolt_spin_ns);
  }).ShuffleFrom("src");
  b.AddBolt("sink", [sink_count] {
    return std::make_unique<CountingSink>(sink_count);
  }).ShuffleFrom("mid");
  return std::move(b).Build();
}

// ---------------------------------------------------------------------------
// Worker-pool behavior on real topologies.
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, AllReplicasProgressAt8xOversubscription) {
  auto app = apps::MakeApp(apps::AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  // 19 instances — ≥ 8x oversubscription on small CI hosts.
  auto plan = ExecutionPlan::Create(app->topology_ptr.get(), {1, 1, 8, 8, 1});
  ASSERT_TRUE(plan.ok());
  plan->PlaceAllOn(0);
  auto rt = BriskRuntime::Create(app->topology_ptr.get(), *plan,
                                 EngineConfig::Brisk());
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto stats = (*rt)->RunFor(0.4);
  ASSERT_TRUE(stats.ok());
  // The pool stays core-sized no matter the replication.
  EXPECT_LE(stats->executor.threads, std::max(1, HostCores()));
  EXPECT_GE(stats->executor.worker_groups, 1);
  // Cooperative round-robin: every replica of every operator made
  // progress — no replica starved behind its siblings.
  for (size_t i = 0; i < stats->tasks.size(); ++i) {
    EXPECT_GT(stats->tasks[i].tuples_in, 0u) << "instance " << i;
  }
  EXPECT_GT(app->telemetry->count(), 0u);
}

TEST(WorkerPoolTest, LowRateSpoutParksWorkersAndWakesOnPush) {
  // Parking needs genuinely idle gaps: when the host CPU is contended
  // (e.g. parallel ctest), the spin→yield progression stretches in
  // wall-clock and a 5000 tps spout can keep refilling the queues
  // before any worker reaches its park. Retry at progressively lower
  // rates — the property under test is "a low-rate spout parks
  // workers", and lower is still low.
  const struct {
    double rate;
    double seconds;
  } attempts[] = {{5000, 0.5}, {1000, 1.0}, {200, 2.0}};
  RunStats last;
  for (const auto& attempt : attempts) {
    auto app = apps::MakeApp(apps::AppId::kWordCount);
    ASSERT_TRUE(app.ok());
    auto plan = ExecutionPlan::CreateDefault(app->topology_ptr.get());
    ASSERT_TRUE(plan.ok());
    plan->PlaceAllOn(0);
    EngineConfig cfg = EngineConfig::Brisk();
    cfg.workers_per_socket = 2;  // producer and consumer on separate workers
    cfg.spout_rate_tps = attempt.rate;  // long idle gaps between batches
    auto rt = BriskRuntime::Create(app->topology_ptr.get(), *plan, cfg);
    ASSERT_TRUE(rt.ok()) << rt.status();
    auto stats = (*rt)->RunFor(attempt.seconds);
    ASSERT_TRUE(stats.ok());
    EXPECT_GT(app->telemetry->count(), 0u);
    last = *stats;
    if (last.executor.parks > 0 && last.executor.wakes > 0) break;
  }
  // Idle workers parked instead of burning the core, and pushes into
  // empty channels ended parks early.
  EXPECT_GT(last.executor.parks, 0u);
  EXPECT_GT(last.executor.wakes, 0u);
}

TEST(WorkerPoolTest, BackpressureParksEnvelopeAndReschedules) {
  std::atomic<uint64_t> sink_count{0};
  // Tiny queues + a slow consumer: the spout must hit back-pressure
  // constantly; cooperative mode parks the envelope and yields the
  // worker instead of spinning.
  auto topo = MakeLine(/*bounded_total=*/0xFFFFFFFFu, /*bolt_spin_ns=*/3000,
                       &sink_count);
  ASSERT_TRUE(topo.ok()) << topo.status();
  auto plan = ExecutionPlan::CreateDefault(&*topo);
  ASSERT_TRUE(plan.ok());
  plan->PlaceAllOn(0);
  EngineConfig cfg = EngineConfig::Brisk();
  cfg.workers_per_socket = 1;  // one worker multiplexes the whole line
  cfg.batch_size = 16;
  cfg.queue_capacity = 2;
  auto rt = BriskRuntime::Create(&*topo, *plan, cfg);
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto stats = (*rt)->RunFor(0.3);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(sink_count.load(), 0u);
  const TaskStats& spout = stats->tasks[0];
  EXPECT_GT(spout.backpressure_parks, 0u);  // the Pending path ran
}

// ---------------------------------------------------------------------------
// Graceful drain: a bounded source's tuples all reach the sink instead
// of being dropped with the queues at Stop().
// ---------------------------------------------------------------------------

TEST(GracefulDrainTest, BoundedSourceDeliversEveryTuple) {
  constexpr uint64_t kTotal = 20000;
  std::atomic<uint64_t> sink_count{0};
  auto topo = MakeLine(kTotal, /*bolt_spin_ns=*/0, &sink_count);
  ASSERT_TRUE(topo.ok()) << topo.status();
  auto plan = ExecutionPlan::CreateDefault(&*topo);
  ASSERT_TRUE(plan.ok());
  plan->PlaceAllOn(0);
  auto rt = BriskRuntime::Create(&*topo, *plan, EngineConfig::Brisk());
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto stats = (*rt)->RunFor(0.3);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->drained);
  // Nothing was dropped: the sink saw the full bounded stream, and
  // everything emitted anywhere was consumed downstream
  // (total_consumed includes the spout's own production).
  EXPECT_EQ(sink_count.load(), kTotal);
  EXPECT_EQ(stats->total_emitted, 2 * kTotal);
  EXPECT_EQ(stats->total_consumed, 3 * kTotal);
}

/// Counts inputs silently; emits one (count) tuple only at Flush —
/// the stateful-final pattern the shutdown epilogue must deliver.
class FinalCountBolt : public api::Operator {
 public:
  void Process(const Tuple&, api::OutputCollector*) override { ++n_; }
  void Flush(api::OutputCollector* out) override {
    Tuple t;
    t.fields.emplace_back(n_);
    out->Emit(std::move(t));
  }

 private:
  int64_t n_ = 0;
};

class LastValueSink : public api::Operator {
 public:
  explicit LastValueSink(std::atomic<int64_t>* value) : value_(value) {}
  void Process(const Tuple& in, api::OutputCollector*) override {
    value_->store(in.GetInt(0), std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t>* value_;
};

TEST(GracefulDrainTest, OperatorFlushFinalsReachTheSink) {
  static constexpr uint64_t kTotal = 5000;
  std::atomic<int64_t> final_value{-1};
  api::TopologyBuilder b("finals");
  b.AddSpout("src", [] { return std::make_unique<BoundedSpout>(kTotal); });
  b.AddBolt("agg", [] { return std::make_unique<FinalCountBolt>(); })
      .ShuffleFrom("src");
  b.AddBolt("sink",
            [&] { return std::make_unique<LastValueSink>(&final_value); })
      .ShuffleFrom("agg");
  auto topo = std::move(b).Build();
  ASSERT_TRUE(topo.ok()) << topo.status();
  auto plan = ExecutionPlan::CreateDefault(&*topo);
  ASSERT_TRUE(plan.ok());
  plan->PlaceAllOn(0);
  auto rt = BriskRuntime::Create(&*topo, *plan, EngineConfig::Brisk());
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto stats = (*rt)->RunFor(0.25);
  ASSERT_TRUE(stats.ok());
  // The aggregate emitted only at Flush, after every execution thread
  // stopped — the topological finalize pass must still have carried it
  // through to the sink, with the full input count.
  EXPECT_EQ(final_value.load(), static_cast<int64_t>(kTotal));
}

}  // namespace
}  // namespace brisk::engine
