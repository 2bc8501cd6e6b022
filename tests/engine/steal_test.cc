// Work-stealing scheduler tests.
//
//   1. StealDeque property hammer: random concurrent pop/push over a
//      fleet of deques never double-checks-out or loses a task.
//   2. Direct-executor steal test: an idle worker takes backlogged
//      tasks from a busy sibling, and every queued tuple is processed
//      exactly once while tasks migrate (a double-poll would trip the
//      PollGuard CHECK and abort the test binary).
//   3. Fault-matrix arm: checkpoint/restore recovers a crashed word
//      count while stealing is active and tasks migrate between
//      workers — gap-free counts, bounded duplicates.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "api/operator.h"
#include "apps/word_count.h"
#include "engine/channel.h"
#include "engine/config.h"
#include "engine/executor.h"
#include "engine/runtime.h"
#include "engine/steal_deque.h"
#include "engine/supervisor.h"
#include "engine/task.h"
#include "model/execution_plan.h"

namespace brisk::engine {
namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ------------------------------------------------- deque properties

TEST(StealDequeTest, FifoOrderAndCapacity) {
  StealDeque dq(4);
  // Opaque non-null handles; the deque never dereferences them.
  auto handle = [](uintptr_t i) { return reinterpret_cast<Task*>(i); };
  EXPECT_EQ(dq.PopFront(), nullptr);
  for (uintptr_t i = 1; i <= 4; ++i) EXPECT_TRUE(dq.PushBack(handle(i)));
  EXPECT_EQ(dq.SizeApprox(), 4u);
  for (uintptr_t i = 1; i <= 4; ++i) EXPECT_EQ(dq.PopFront(), handle(i));
  EXPECT_EQ(dq.PopFront(), nullptr);
  EXPECT_EQ(dq.SizeApprox(), 0u);
}

TEST(StealDequeTest, RandomizedConcurrentStealNeverDuplicatesOrLoses) {
  // The single-poller invariant at the deque layer: a task handle is
  // in exactly one deque or checked out by exactly one thread. Each
  // thread randomly pops from any deque (owner and thief paths are the
  // same operation), marks the task checked-out (CHECK-style assert on
  // collision), and requeues it onto a random deque.
  constexpr int kTasks = 24;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::unique_ptr<StealDeque>> deques;
  for (int i = 0; i < kThreads; ++i) {
    deques.push_back(std::make_unique<StealDeque>(kTasks));
  }
  std::vector<std::atomic<bool>> checked_out(kTasks);
  for (auto& f : checked_out) f.store(false);
  for (int t = 1; t <= kTasks; ++t) {
    ASSERT_TRUE(deques[t % kThreads]->PushBack(
        reinterpret_cast<Task*>(static_cast<uintptr_t>(t))));
  }
  std::atomic<int> collisions{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937 rng(static_cast<uint32_t>(1234 + w));
      for (int op = 0; op < kOpsPerThread; ++op) {
        StealDeque& src = *deques[rng() % kThreads];
        Task* t = src.PopFront();
        if (t == nullptr) continue;
        const size_t id = reinterpret_cast<uintptr_t>(t) - 1;
        if (checked_out[id].exchange(true)) collisions.fetch_add(1);
        if (op % 64 == 0) std::this_thread::yield();
        checked_out[id].store(false);
        ASSERT_TRUE(deques[rng() % kThreads]->PushBack(t));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(collisions.load(), 0);
  // No loss: every handle is back in exactly one deque.
  std::set<uintptr_t> seen;
  for (auto& dq : deques) {
    while (Task* t = dq->PopFront()) {
      EXPECT_TRUE(seen.insert(reinterpret_cast<uintptr_t>(t)).second);
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kTasks));
}

// -------------------------------------------- direct-executor steal

/// Counts processed tuples and burns CPU so backlog outlives several
/// scheduling passes.
class CountingSpinBolt : public api::Operator {
 public:
  CountingSpinBolt(std::atomic<uint64_t>* counter, int64_t spin_ns)
      : counter_(counter), spin_ns_(spin_ns) {}
  void Process(const Tuple&, api::OutputCollector*) override {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::nanoseconds(spin_ns_);
    while (std::chrono::steady_clock::now() < until) {
    }
    counter_->fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t>* counter_;
  int64_t spin_ns_;
};

TEST(WorkStealingTest, IdleWorkerStealsBacklogExactlyOnce) {
  // Four sink bolts on one socket, two workers. Round-robin assignment
  // puts tasks {0, 2} on worker 0 and {1, 3} on worker 1; only the
  // even tasks get input backlog, so worker 1 idles while worker 0
  // holds two busy tasks — exactly the idle-steal trigger. The bolt
  // counter plus the PollGuard abort give exactly-once processing.
  EngineConfig cfg;
  cfg.workers_per_socket = 2;
  cfg.pin_threads = false;
  ASSERT_TRUE(cfg.steal_work);  // native default
  constexpr int kTasksN = 4;
  constexpr uint64_t kEnvelopes = 300;
  constexpr uint64_t kTuplesPerEnvelope = 4;
  std::atomic<uint64_t> processed{0};

  std::vector<std::unique_ptr<Channel>> channels;
  std::vector<std::unique_ptr<Task>> tasks;
  StopSignals signals;
  for (int i = 0; i < kTasksN; ++i) {
    auto task = std::make_unique<Task>(i, /*socket=*/0, cfg, nullptr);
    task->SetIdentity(/*op=*/0, /*replica=*/i, "count");
    task->SetBolt(
        std::make_unique<CountingSpinBolt>(&processed, /*spin_ns=*/20000));
    channels.push_back(std::make_unique<Channel>(i, i, kEnvelopes * 2));
    task->AddInput(channels.back().get());
    tasks.push_back(std::move(task));
  }
  for (const int victim_task : {0, 2}) {
    for (uint64_t e = 0; e < kEnvelopes; ++e) {
      Envelope env;
      env.batch = std::make_unique<JumboTuple>();
      for (uint64_t t = 0; t < kTuplesPerEnvelope; ++t) {
        Tuple tup;
        tup.fields.emplace_back(static_cast<int64_t>(t));
        env.batch->tuples.push_back(std::move(tup));
      }
      ASSERT_TRUE(channels[victim_task]->TryPush(std::move(env)));
    }
  }

  std::vector<Task*> task_ptrs;
  std::vector<Channel*> channel_ptrs;
  for (auto& t : tasks) {
    t->Bind(&signals);
    task_ptrs.push_back(t.get());
  }
  for (auto& c : channels) channel_ptrs.push_back(c.get());
  auto exec = MakeExecutor(cfg, &signals, std::move(task_ptrs),
                           std::move(channel_ptrs), nullptr, nullptr);
  ASSERT_TRUE(exec->Start().ok());

  constexpr uint64_t kTotal = 2 * kEnvelopes * kTuplesPerEnvelope;
  for (int waited = 0;
       waited < 30000 && processed.load(std::memory_order_relaxed) < kTotal;
       waited += 10) {
    SleepMs(10);
  }
  signals.stop_all.store(true);
  exec->NotifyAll();
  exec->Join();
  const ExecutorStats stats = exec->stats();

  // Exactly once: every queued tuple processed, none twice. (A
  // double-poll would have aborted via PollGuard before this point.)
  EXPECT_EQ(processed.load(), kTotal);
  EXPECT_EQ(stats.threads, 2);
  // The idle worker must have stolen from the busy one; one socket
  // group means every steal is intra-socket.
  EXPECT_GT(stats.steals_intra, 0u);
  EXPECT_EQ(stats.steals_cross, 0u);
  // Task conservation: all four tasks still live in the deques.
  size_t queued = 0;
  for (const size_t d : stats.queue_depths) queued += d;
  EXPECT_EQ(queued, static_cast<size_t>(kTasksN));
}

TEST(WorkStealingTest, StealsOffKeepsTasksHome) {
  // Same skewed layout with steal_work off: worker 1 never helps, and
  // the counters say so.
  EngineConfig cfg;
  cfg.workers_per_socket = 2;
  cfg.pin_threads = false;
  cfg.steal_work = false;
  std::atomic<uint64_t> processed{0};
  std::vector<std::unique_ptr<Channel>> channels;
  std::vector<std::unique_ptr<Task>> tasks;
  StopSignals signals;
  for (int i = 0; i < 4; ++i) {
    auto task = std::make_unique<Task>(i, 0, cfg, nullptr);
    task->SetIdentity(0, i, "count");
    task->SetBolt(std::make_unique<CountingSpinBolt>(&processed, 1000));
    channels.push_back(std::make_unique<Channel>(i, i, 128));
    task->AddInput(channels.back().get());
    tasks.push_back(std::move(task));
  }
  for (const int victim : {0, 2}) {
    for (int e = 0; e < 50; ++e) {
      Envelope env;
      env.batch = std::make_unique<JumboTuple>();
      Tuple tup;
      tup.fields.emplace_back(static_cast<int64_t>(e));
      env.batch->tuples.push_back(std::move(tup));
      ASSERT_TRUE(channels[victim]->TryPush(std::move(env)));
    }
  }
  std::vector<Task*> task_ptrs;
  std::vector<Channel*> channel_ptrs;
  for (auto& t : tasks) {
    t->Bind(&signals);
    task_ptrs.push_back(t.get());
  }
  for (auto& c : channels) channel_ptrs.push_back(c.get());
  auto exec = MakeExecutor(cfg, &signals, std::move(task_ptrs),
                           std::move(channel_ptrs), nullptr, nullptr);
  ASSERT_TRUE(exec->Start().ok());
  for (int waited = 0; waited < 10000 && processed.load() < 100;
       waited += 10) {
    SleepMs(10);
  }
  signals.stop_all.store(true);
  exec->NotifyAll();
  exec->Join();
  const ExecutorStats stats = exec->stats();
  EXPECT_EQ(processed.load(), 100u);
  EXPECT_EQ(stats.steals_intra + stats.steals_cross, 0u);
  // Without stealing the assignment is frozen: 2 tasks per worker.
  for (const size_t d : stats.queue_depths) EXPECT_EQ(d, 2u);
}

// ------------------------------------- checkpoint/restore mid-steal

/// Gap-free oracle borrowed from the recovery suite: per word, the
/// observed counts must be exactly 1..max (at-least-once emits
/// duplicates of *observed* counts, never holes).
struct WcTap {
  std::mutex mu;
  std::vector<std::pair<std::string, int64_t>> entries;
};

uint64_t SumOfMaxCounts(WcTap* tap) {
  std::lock_guard<std::mutex> lock(tap->mu);
  std::map<std::string, int64_t> max_count;
  for (const auto& [word, count] : tap->entries) {
    int64_t& m = max_count[word];
    if (count > m) m = count;
  }
  uint64_t sum = 0;
  for (const auto& [word, m] : max_count) sum += static_cast<uint64_t>(m);
  return sum;
}

TEST(WorkStealingTest, CheckpointRestoreSurvivesCrashWhileStealing) {
  // Bounded word count across two plan sockets with stealing on and a
  // mid-run splitter crash: the supervisor restores from checkpoint
  // and the final keyed state still equals the full stream — task
  // migration between workers must not break exactly-once state or
  // the at-least-once replay accounting.
  apps::WordCountParams params;
  params.max_sentences = 1500;
  const uint64_t expected = params.max_sentences * params.words_per_sentence;
  auto telemetry = std::make_shared<SinkTelemetry>();
  auto tap = std::make_shared<WcTap>();
  auto topo_or = apps::BuildWordCountDsl(
      telemetry, params, [tap](const Tuple& in) {
        std::lock_guard<std::mutex> lock(tap->mu);
        tap->entries.emplace_back(std::string(in.GetString(0)),
                                  in.GetInt(1));
      });
  ASSERT_TRUE(topo_or.ok()) << topo_or.status();
  const api::Topology topo = std::move(topo_or).value();

  EngineConfig cfg;
  cfg.workers_per_socket = 2;
  cfg.batch_size = 16;
  cfg.spout_rate_tps = 30000;
  cfg.seed = 23;
  cfg.drain_timeout_s = 2.0;
  ASSERT_TRUE(cfg.steal_work);
  cfg.faults.Crash(/*op=*/2, /*replica=*/0, /*after_tuples=*/600);

  auto plan_or = model::ExecutionPlan::Create(&topo, {1, 1, 2, 2, 1});
  ASSERT_TRUE(plan_or.ok());
  model::ExecutionPlan plan = std::move(plan_or).value();
  for (int i = 0; i < plan.num_instances(); ++i) plan.SetSocket(i, i % 2);
  auto rt_or = BriskRuntime::Create(&topo, plan, cfg);
  ASSERT_TRUE(rt_or.ok()) << rt_or.status();
  auto rt = std::move(rt_or).value();
  ASSERT_TRUE(rt->Start().ok());

  SupervisorOptions opts;
  opts.heartbeat_interval_s = 0.02;
  opts.checkpoint_interval_s = 0.03;
  opts.backoff_initial_s = 0.01;
  Supervisor sup(rt.get(), opts);
  ASSERT_TRUE(sup.Start().ok());

  for (int waited = 0;
       waited < 20000 && SumOfMaxCounts(tap.get()) < expected;
       waited += 20) {
    SleepMs(20);
  }
  SupervisionReport report = sup.Stop();
  RunStats stats = rt->Stop();

  EXPECT_GE(report.failures_detected, 1);
  EXPECT_GE(stats.restores, 1);
  EXPECT_TRUE(report.final_status.ok()) << report.final_status.ToString();

  // Gap-free final state despite the crash + migrating tasks.
  {
    std::lock_guard<std::mutex> lock(tap->mu);
    std::map<std::string, std::set<int64_t>> counts;
    for (const auto& [word, count] : tap->entries) {
      counts[word].insert(count);
    }
    uint64_t total = 0;
    for (const auto& [word, seen] : counts) {
      const int64_t max = *seen.rbegin();
      EXPECT_EQ(static_cast<int64_t>(seen.size()), max)
          << "word '" << word << "' has gaps in 1.." << max;
      total += static_cast<uint64_t>(max);
    }
    EXPECT_EQ(total, expected);
    ASSERT_GE(tap->entries.size(), expected);
    EXPECT_LE(tap->entries.size() - expected,
              report.replayed_tuples * params.words_per_sentence);
  }
}

}  // namespace
}  // namespace brisk::engine
