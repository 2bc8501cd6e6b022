// Live plan migration (§5.3): BriskRuntime::ApplyMigration must
// switch a running job to the plan it is handed without dropping or
// duplicating a tuple, hand keyed state across replica-count changes,
// and leave the engine pinned to the new plan. Stop() pauses the same
// lossless way, then flushes the operators.
//
// The invariants asserted here are the strong ones:
//   - edge conservation over the whole run (per-operator totals across
//     migration epochs: parser in == spout out, splitter out ==
//     splitter in × words/sentence, ...);
//   - the sink's per-word count sequence is dense and monotone
//     (1, 2, 3, ... per word) — a lost tuple leaves a gap, a
//     duplicated tuple repeats a count, and lost counter state restarts
//     the sequence at 1;
//   - after each migration the runtime runs the plan it was handed.
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/dsl.h"
#include "apps/word_count.h"
#include "common/logging.h"
#include "common/rng.h"
#include "engine/runtime.h"
#include "engine/supervisor.h"
#include "model/execution_plan.h"

namespace brisk::engine {
namespace {

using apps::WordCountParams;
using model::ExecutionPlan;

// Operator ids in the WC DSL topology, in declaration order.
constexpr int kSpout = 0;
constexpr int kParser = 1;
constexpr int kSplitter = 2;
constexpr int kCounter = 3;
constexpr int kSink = 4;

/// Sink tap log: (word, count) pairs in arrival order. The tests keep
/// the sink at one replica, so a plain mutex-guarded vector preserves
/// per-word arrival order exactly.
struct TapLog {
  std::mutex mu;
  std::vector<std::pair<std::string, int64_t>> entries;
};

/// One live WC deployment under test.
struct WcRun {
  std::shared_ptr<SinkTelemetry> telemetry;
  std::shared_ptr<TapLog> log;
  std::shared_ptr<const api::Topology> topo;
  ExecutionPlan plan;  ///< what the runtime should be running
  std::unique_ptr<BriskRuntime> rt;

  void Migrate(const ExecutionPlan& next) {
    ASSERT_TRUE(rt->ApplyMigration(next).ok());
    plan = next;
    // Post-migration pinning: the runtime runs exactly the plan it was
    // handed.
    ASSERT_EQ(rt->plan().num_instances(), plan.num_instances());
    for (int i = 0; i < plan.num_instances(); ++i) {
      EXPECT_EQ(rt->plan().SocketOf(i), plan.SocketOf(i)) << "instance " << i;
    }
  }
};

WcRun MakeWcRun(std::vector<int> replication, EngineConfig config,
                WordCountParams params) {
  WcRun run;
  run.telemetry = std::make_shared<SinkTelemetry>();
  run.log = std::make_shared<TapLog>();
  auto log = run.log;
  auto topo = apps::BuildWordCountDsl(
      run.telemetry, params, [log](const Tuple& in) {
        std::lock_guard<std::mutex> lock(log->mu);
        log->entries.emplace_back(std::string(in.GetString(0)),
                                  in.GetInt(1));
      });
  BRISK_CHECK(topo.ok()) << topo.status().ToString();
  run.topo =
      std::make_shared<const api::Topology>(std::move(topo).value());
  auto plan = ExecutionPlan::Create(run.topo.get(), std::move(replication));
  BRISK_CHECK(plan.ok()) << plan.status().ToString();
  run.plan = std::move(plan).value();
  // Round-robin the instances over two virtual sockets.
  for (int i = 0; i < run.plan.num_instances(); ++i) {
    run.plan.SetSocket(i, i % 2);
  }
  auto rt = BriskRuntime::Create(run.topo.get(), run.plan, config);
  BRISK_CHECK(rt.ok()) << rt.status().ToString();
  run.rt = std::move(rt).value();
  return run;
}

EngineConfig TestConfig() {
  EngineConfig config;  // Brisk defaults
  config.batch_size = 16;
  config.spout_rate_tps = 30000;  // paced, so migrations land mid-stream
  config.seed = 7;
  config.drain_timeout_s = 5.0;
  return config;
}

/// `plan` with replica `replica` of `op` on socket `to`.
ExecutionPlan Move(ExecutionPlan plan, int op, int replica, int to) {
  plan.SetSocket(plan.InstanceId(op, replica), to);
  return plan;
}

/// `plan` with `op` resized to `replication`: surviving replicas keep
/// their sockets, new ones go on `socket`.
ExecutionPlan Resize(const ExecutionPlan& plan, int op, int replication,
                     int socket) {
  auto next = plan.Resized(op, replication, socket);
  BRISK_CHECK(next.ok()) << next.status().ToString();
  return std::move(next).value();
}

ExecutionPlan Grow(const ExecutionPlan& plan, int op, int count, int socket) {
  return Resize(plan, op, plan.replication(op) + count, socket);
}

ExecutionPlan Shrink(const ExecutionPlan& plan, int op, int count) {
  return Resize(plan, op, plan.replication(op) - count, -1);
}

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// The zero-loss/zero-duplication postcondition over a finished run.
void CheckInvariants(const WcRun& run, const RunStats& stats,
                     uint64_t words_per_sentence) {
  const auto& ot = stats.op_totals;
  ASSERT_EQ(ot.size(), 5u);
  // Edge conservation across the whole run, all epochs included.
  EXPECT_EQ(ot[kParser].tuples_in, ot[kSpout].tuples_out);
  EXPECT_EQ(ot[kParser].tuples_out, ot[kParser].tuples_in);  // sel 1
  EXPECT_EQ(ot[kSplitter].tuples_in, ot[kParser].tuples_out);
  EXPECT_EQ(ot[kSplitter].tuples_out,
            ot[kSplitter].tuples_in * words_per_sentence);
  EXPECT_EQ(ot[kCounter].tuples_in, ot[kSplitter].tuples_out);
  EXPECT_EQ(ot[kCounter].tuples_out, ot[kCounter].tuples_in);  // sel 1
  EXPECT_EQ(ot[kSink].tuples_in, ot[kCounter].tuples_out);
  EXPECT_GT(ot[kSink].tuples_in, 0u);
  // The sink lambda saw every tuple the sink task consumed.
  EXPECT_EQ(run.telemetry->count(), ot[kSink].tuples_in);

  // Dense + monotone count sequence per word: exactly 1..n_w, in order.
  std::map<std::string, int64_t> last;
  uint64_t total = 0;
  {
    std::lock_guard<std::mutex> lock(run.log->mu);
    for (const auto& [word, count] : run.log->entries) {
      EXPECT_EQ(count, last[word] + 1)
          << "word '" << word << "' jumped from " << last[word] << " to "
          << count;
      last[word] = count;
      ++total;
    }
  }
  EXPECT_EQ(total, run.telemetry->count());
}

TEST(MigrationTest, MoveRepinsWithoutLoss) {
  WordCountParams params;
  // Bounded so the run ends in a deliberate idle gap (below). At the
  // paced 30k tps the source needs at least 500 ms for its sentences,
  // so both migrations still land mid-stream.
  params.max_sentences = 15000;
  WcRun run = MakeWcRun({1, 1, 2, 2, 1}, TestConfig(), params);
  ASSERT_TRUE(run.rt->Start().ok());
  SleepMs(150);
  // Executor counters observed live, before any migration: a
  // migration tears the executor down and stands up a new one, and
  // the cumulative report must never lose the old epoch's history.
  const ExecutorStats before = run.rt->SnapshotStats().executor;
  run.Migrate(Move(run.plan, kSplitter, 1, 0));
  EXPECT_EQ(run.rt->epoch(), 1);
  SleepMs(150);
  run.Migrate(Move(run.plan, kCounter, 0, 1));
  EXPECT_EQ(run.rt->epoch(), 2);
  // Idle gap before Stop(): let the bounded source run dry and every
  // word land, then keep the drained job running until a worker has
  // parked. Whether the paced stream alone leaves gaps idle enough to
  // park in depends on host load; a drained job parks on any host.
  const uint64_t expected = 15000 * 10;
  for (int i = 0; i < 200 && run.telemetry->count() < expected; ++i) {
    SleepMs(50);
  }
  EXPECT_EQ(run.telemetry->count(), expected);
  for (int i = 0; i < 200 && run.rt->SnapshotStats().executor.parks == 0;
       ++i) {
    SleepMs(10);
  }
  RunStats stats = run.rt->Stop();
  EXPECT_EQ(stats.migrations, 2);
  // Counters survive the migrations: the final cumulative report is
  // at least the pre-migration snapshot, per counter.
  EXPECT_GE(stats.executor.parks, before.parks);
  EXPECT_GE(stats.executor.wakes, before.wakes);
  EXPECT_GE(stats.executor.steals_intra, before.steals_intra);
  EXPECT_GE(stats.executor.steals_cross, before.steals_cross);
  EXPECT_GE(stats.executor.steal_failures, before.steal_failures);
  EXPECT_GE(stats.executor.repatriations, before.repatriations);
  // The idle gap above parked a worker; a zeroed park count after two
  // executor teardowns would mean the accumulation dropped history.
  EXPECT_GT(stats.executor.parks, 0u);
  CheckInvariants(run, stats, 10);
}

TEST(MigrationTest, CounterGrowthRepartitionsState) {
  WcRun run = MakeWcRun({1, 1, 1, 2, 1}, TestConfig(), WordCountParams{});
  ASSERT_TRUE(run.rt->Start().ok());
  SleepMs(200);
  const uint64_t before = run.telemetry->count();
  EXPECT_GT(before, 0u);
  run.Migrate(Grow(run.plan, kCounter, 2, 1));  // 2 -> 4 replicas
  SleepMs(250);
  RunStats stats = run.rt->Stop();
  EXPECT_GT(run.telemetry->count(), before);
  // Dense sequences across the migration prove the per-word counts
  // moved to their new owner replicas instead of restarting at 1.
  CheckInvariants(run, stats, 10);
}

TEST(MigrationTest, CounterShrinkMergesState) {
  WcRun run = MakeWcRun({1, 1, 1, 3, 1}, TestConfig(), WordCountParams{});
  ASSERT_TRUE(run.rt->Start().ok());
  SleepMs(200);
  run.Migrate(Shrink(run.plan, kCounter, 2));  // 3 -> 1 replica
  SleepMs(250);
  RunStats stats = run.rt->Stop();
  CheckInvariants(run, stats, 10);
}

TEST(MigrationTest, SpoutAndBoltReplicationChanges) {
  WcRun run = MakeWcRun({1, 1, 1, 1, 1}, TestConfig(), WordCountParams{});
  ASSERT_TRUE(run.rt->Start().ok());
  SleepMs(150);
  run.Migrate(Grow(run.plan, kSpout, 1, 1));     // spout 1 -> 2
  SleepMs(150);
  run.Migrate(Grow(run.plan, kSplitter, 1, 0));  // splitter 1 -> 2
  SleepMs(150);
  RunStats stats = run.rt->Stop();
  EXPECT_EQ(stats.migrations, 2);
  CheckInvariants(run, stats, 10);
}

TEST(MigrationTest, MoveAndGrowInOneMigration) {
  WcRun run = MakeWcRun({1, 1, 2, 2, 1}, TestConfig(), WordCountParams{});
  ASSERT_TRUE(run.rt->Start().ok());
  SleepMs(150);
  run.Migrate(Grow(Move(run.plan, kSplitter, 0, 1), kCounter, 1, 0));
  SleepMs(200);
  RunStats stats = run.rt->Stop();
  EXPECT_EQ(stats.migrations, 1);
  CheckInvariants(run, stats, 10);
}

/// A zero-second drain timeout makes every migration pause from a
/// non-quiescent engine: the halt catches full channels, staged
/// buffers, and parked envelopes mid-flight. The halt parks what it
/// catches, and the residual sweep must still deliver every tuple.
TEST(MigrationTest, DrainTimeoutStillLosesNothing) {
  EngineConfig config = TestConfig();
  config.drain_timeout_s = 0.0;      // the drain always "times out"
  config.spout_rate_tps = 0.0;  // saturated: rings run full, so
  config.queue_capacity = 4;    // producers sit in back-pressure
                                // (parked batches at the halt)
  WordCountParams params;
  params.max_sentences = 6000;  // bounded: the run can finish naturally
  WcRun run = MakeWcRun({1, 1, 2, 2, 1}, config, params);
  ASSERT_TRUE(run.rt->Start().ok());
  SleepMs(80);
  run.Migrate(Move(run.plan, kSplitter, 1, 0));
  SleepMs(80);
  run.Migrate(Grow(run.plan, kCounter, 1, 0));
  // Let the bounded source finish and every tuple land, so the final
  // Stop() (whose drain budget is also zero; StopTest covers it) has
  // nothing in flight; the migrations above are the ones that paused
  // mid-backlog. The exact target is
  // known (1 spout replica × 6000 sentences × 10 words); if a
  // migration lost a batch, the wait times out and the invariant
  // check below reports the shortfall.
  const uint64_t expected = 6000 * 10;
  for (int i = 0; i < 200 && run.telemetry->count() < expected; ++i) {
    SleepMs(50);
  }
  RunStats stats = run.rt->Stop();
  EXPECT_EQ(stats.migrations, 2);
  EXPECT_EQ(run.telemetry->count(), expected);
  CheckInvariants(run, stats, 10);
}

TEST(MigrationTest, RejectedMigrationLeavesJobRunning) {
  WcRun run = MakeWcRun({1, 1, 1, 1, 1}, TestConfig(), WordCountParams{});
  ASSERT_TRUE(run.rt->Start().ok());
  SleepMs(100);
  ExecutionPlan unplaced = Grow(run.plan, kCounter, 1, /*socket=*/-1);
  EXPECT_FALSE(run.rt->ApplyMigration(unplaced).ok());
  // The same shape of plan over another WC topology object.
  auto other = apps::BuildWordCountDsl(std::make_shared<SinkTelemetry>());
  ASSERT_TRUE(other.ok());
  auto foreign = ExecutionPlan::Create(&*other, run.plan.replication());
  ASSERT_TRUE(foreign.ok());
  foreign->PlaceAllOn(0);
  EXPECT_FALSE(run.rt->ApplyMigration(*foreign).ok());
  EXPECT_EQ(run.rt->epoch(), 0);
  const uint64_t before = run.telemetry->count();
  SleepMs(150);
  EXPECT_GT(run.telemetry->count(), before);  // still streaming
  RunStats stats = run.rt->Stop();
  EXPECT_EQ(stats.migrations, 0);
  CheckInvariants(run, stats, 10);
}

TEST(MigrationTest, MigrationRequiresRunningEngine) {
  WcRun run = MakeWcRun({1, 1, 1, 1, 1}, TestConfig(), WordCountParams{});
  EXPECT_FALSE(run.rt->ApplyMigration(Move(run.plan, kSplitter, 0, 1)).ok());
}

/// Property-style test: a seeded stream of randomized valid migrations
/// (moves, growth, shrinkage over spout/parser/splitter/counter) is
/// applied to a live run; every invariant must survive every plan.
TEST(MigrationTest, RandomizedMigrationsPreserveInvariants) {
  Rng rng(0xfeedbee5ULL);
  constexpr int kSockets = 2;
  constexpr int kMaxRepl = 3;
  WcRun run = MakeWcRun({1, 1, 2, 2, 1}, TestConfig(), WordCountParams{});
  ASSERT_TRUE(run.rt->Start().ok());
  int applied = 0;
  for (int round = 0; round < 5; ++round) {
    SleepMs(120);
    // One randomized valid step set per round, over a random operator
    // (the sink stays single-replica so per-word arrival order is
    // observable).
    const int op = static_cast<int>(rng.NextBounded(4));  // spout..counter
    ExecutionPlan m;
    const int repl = run.plan.replication(op);
    switch (rng.NextBounded(3)) {
      case 0: {  // move a random replica to a random other socket
        const int replica = static_cast<int>(rng.NextBounded(repl));
        const int from =
            run.plan.SocketOf(run.plan.InstanceId(op, replica));
        const int to =
            (from + 1 + static_cast<int>(rng.NextBounded(kSockets - 1))) %
            kSockets;
        m = Move(run.plan, op, replica, to);
        break;
      }
      case 1: {  // grow
        if (repl >= kMaxRepl) continue;
        m = Grow(run.plan, op, 1, static_cast<int>(rng.NextBounded(kSockets)));
        break;
      }
      default: {  // shrink
        if (repl <= 1) continue;
        m = Shrink(run.plan, op, 1);
        break;
      }
    }
    run.Migrate(m);
    if (::testing::Test::HasFatalFailure()) break;
    ++applied;
  }
  SleepMs(150);
  RunStats stats = run.rt->Stop();
  EXPECT_EQ(stats.migrations, applied);
  EXPECT_GT(applied, 0);
  CheckInvariants(run, stats, 10);
}

// ------------------- injected failures inside the migration protocol
//
// ApplyMigration must be complete-or-rollback: a failure before the
// point of no return leaves the old graph running with zero tuple
// loss; a failure after it declares the job dead (no half-migrated
// zombie), and the supervisor restores it from the last checkpoint.

TEST(MigrationTest, InjectedFailureBeforePauseIsCleanReject) {
  EngineConfig config = TestConfig();
  config.faults.FailMigration(/*at_phase=*/0);
  WcRun run = MakeWcRun({1, 1, 1, 1, 1}, config, WordCountParams{});
  ASSERT_TRUE(run.rt->Start().ok());
  SleepMs(100);
  const Status st = run.rt->ApplyMigration(Move(run.plan, kSplitter, 0, 1));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("undisturbed"), std::string::npos);
  EXPECT_EQ(run.rt->epoch(), 0);
  const uint64_t before = run.telemetry->count();
  SleepMs(150);
  EXPECT_GT(run.telemetry->count(), before);  // never paused
  RunStats stats = run.rt->Stop();
  EXPECT_EQ(stats.migrations, 0);
  CheckInvariants(run, stats, 10);
}

TEST(MigrationTest, InjectedFailureAfterPauseRollsBackWithoutLoss) {
  EngineConfig config = TestConfig();
  config.faults.FailMigration(/*at_phase=*/1);
  WordCountParams params;
  params.max_sentences = 4000;  // bounded: the run has an exact answer
  WcRun run = MakeWcRun({1, 1, 2, 2, 1}, config, params);
  ASSERT_TRUE(run.rt->Start().ok());
  SleepMs(60);
  const Status st = run.rt->ApplyMigration(Grow(run.plan, kCounter, 1, 0));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("rolled back"), std::string::npos);
  // Rolled back: old plan, old epoch, still running.
  EXPECT_EQ(run.rt->epoch(), 0);
  EXPECT_EQ(run.rt->plan().replication(kCounter), 2);
  const uint64_t expected = 4000 * 10;
  for (int i = 0; i < 200 && run.telemetry->count() < expected; ++i) {
    SleepMs(50);
  }
  RunStats stats = run.rt->Stop();
  EXPECT_EQ(stats.migrations, 0);
  EXPECT_EQ(run.telemetry->count(), expected);  // zero loss through it
  CheckInvariants(run, stats, 10);
}

/// Per-word counts the sink saw must be gap-free (1..n for every word,
/// duplicates from a replayed window allowed), and the final counts
/// must add up to `expected`, the exact stream population.
void CheckGapFreeTotal(const WcRun& run, uint64_t expected) {
  std::lock_guard<std::mutex> lock(run.log->mu);
  std::map<std::string, std::set<int64_t>> counts;
  for (const auto& [word, count] : run.log->entries) {
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
}

/// Sum over words of the highest count the sink saw so far.
uint64_t FinalCountSum(const WcRun& run) {
  std::lock_guard<std::mutex> lock(run.log->mu);
  std::map<std::string, int64_t> max_count;
  for (const auto& [word, count] : run.log->entries) {
    int64_t& m = max_count[word];
    if (count > m) m = count;
  }
  uint64_t sum = 0;
  for (const auto& [word, m] : max_count) sum += static_cast<uint64_t>(m);
  return sum;
}

// Resizes, a checkpoint and a restore in one run: the counter grows
// 2 -> 3, the job is checkpointed, shrinks 3 -> 1, and is restored to
// the checkpoint (back to 3 counters). A surviving replica that kept
// keys which moved to another replica at the grow would put them into
// the checkpoint next to their live copies, and the restore could
// bring back a stale count: the final totals would then fall short.
TEST(MigrationTest, ResizeCheckpointResizeRestoreKeepsCountsExact) {
  WordCountParams params;
  // About 500 ms of paced source: every event below lands mid-stream.
  params.max_sentences = 15000;
  WcRun run = MakeWcRun({1, 1, 2, 2, 1}, TestConfig(), params);
  ASSERT_TRUE(run.rt->Start().ok());
  SleepMs(100);
  run.Migrate(Grow(run.plan, kCounter, 1, 0));  // 2 -> 3
  SleepMs(100);
  auto cp = run.rt->Checkpoint();
  ASSERT_TRUE(cp.ok()) << cp.status();
  ASSERT_EQ(cp->plan.replication(kCounter), 3);
  SleepMs(100);
  run.Migrate(Shrink(run.plan, kCounter, 2));  // 3 -> 1
  SleepMs(50);
  ASSERT_TRUE(run.rt->Restore(*cp).ok());
  EXPECT_EQ(run.rt->plan().replication(kCounter), 3);

  const uint64_t expected = 15000 * 10;
  for (int i = 0; i < 400 && FinalCountSum(run) < expected; ++i) {
    SleepMs(50);
  }
  RunStats stats = run.rt->Stop();
  EXPECT_EQ(stats.migrations, 2);
  EXPECT_EQ(stats.checkpoints, 1);
  EXPECT_EQ(stats.restores, 1);
  CheckGapFreeTotal(run, expected);
}

TEST(MigrationTest, InjectedFailureAfterRebuildIsRecoveredFromCheckpoint) {
  EngineConfig config = TestConfig();
  config.faults.FailMigration(/*at_phase=*/2);
  WordCountParams params;
  params.max_sentences = 4000;
  WcRun run = MakeWcRun({1, 1, 2, 2, 1}, config, params);
  ASSERT_TRUE(run.rt->Start().ok());
  SupervisorOptions sup_opts;
  sup_opts.heartbeat_interval_s = 0.02;
  sup_opts.checkpoint_interval_s = 0.03;
  sup_opts.backoff_initial_s = 0.01;
  Supervisor sup(run.rt.get(), sup_opts);
  ASSERT_TRUE(sup.Start().ok());
  SleepMs(80);

  const Status st = run.rt->ApplyMigration(Grow(run.plan, kCounter, 1, 0));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("job down"), std::string::npos);

  // The supervisor notices the dead engine and restores the last
  // checkpoint (taken on the *old* plan); the bounded run completes.
  const uint64_t expected = 4000 * 10;
  for (int i = 0; i < 400 && FinalCountSum(run) < expected; ++i) {
    SleepMs(50);
  }
  SupervisionReport sup_report = sup.Stop();
  RunStats stats = run.rt->Stop();
  EXPECT_GE(sup_report.restarts, 1);
  EXPECT_GE(stats.restores, 1);

  // Zero tuple loss under replay: gap-free dense counts per word and
  // the exact full-stream total in final state (duplicate deliveries
  // from the replayed window are allowed; lost ones are not).
  CheckGapFreeTotal(run, expected);
}

// --- One-to-one replica chains ------------------------------------------

/// Replica k of every operator on socket k mod 2: WC's two replica
/// chains (spout-parser-splitter, counter-sink) are then aligned.
void Stripe(ExecutionPlan* plan) {
  for (int i = 0; i < plan->num_instances(); ++i) {
    plan->SetSocket(i, plan->instance(i).replica % 2);
  }
}

/// Final count of every word the sink saw.
std::map<std::string, int64_t> FinalCounts(const WcRun& run) {
  std::lock_guard<std::mutex> lock(run.log->mu);
  std::map<std::string, int64_t> counts;
  for (const auto& [word, count] : run.log->entries) {
    int64_t& c = counts[word];
    if (count > c) c = count;
  }
  return counts;
}

void WaitForCounts(const WcRun& run, uint64_t expected) {
  for (int i = 0; i < 400 && FinalCountSum(run) < expected; ++i) {
    SleepMs(25);
  }
}

TEST(ChainWiringTest, AlignedChainGetsOneChannelPerReplica) {
  WcRun run = MakeWcRun({2, 2, 2, 2, 2}, TestConfig(), WordCountParams{});
  Stripe(&run.plan);
  for (const auto& e : run.topo->edges()) {
    EXPECT_EQ(model::WiredOneToOne(run.plan, e),
              e.grouping == api::GroupingType::kShuffle)
        << run.topo->op(e.producer_op).name;
  }
  auto aligned = BriskRuntime::Create(run.topo.get(), run.plan, TestConfig());
  ASSERT_TRUE(aligned.ok()) << aligned.status();
  // spout->parser, parser->splitter and counter->sink one per replica,
  // the keyed splitter->counter edge all-to-all: 2 + 2 + 4 + 2.
  EXPECT_EQ((*aligned)->num_channels(), 10);

  // Sink replicas swap sockets: counter->sink is no longer aligned.
  ExecutionPlan swapped = run.plan;
  swapped.SetSocket(swapped.InstanceId(kSink, 0), 1);
  swapped.SetSocket(swapped.InstanceId(kSink, 1), 0);
  auto unaligned = BriskRuntime::Create(run.topo.get(), swapped, TestConfig());
  ASSERT_TRUE(unaligned.ok()) << unaligned.status();
  EXPECT_EQ((*unaligned)->num_channels(), 12);

  // Unequal replication: counter x2 -> sink x1 is all-to-all too.
  auto uneven_plan = ExecutionPlan::Create(run.topo.get(), {2, 2, 2, 2, 1});
  ASSERT_TRUE(uneven_plan.ok());
  Stripe(&*uneven_plan);
  auto uneven =
      BriskRuntime::Create(run.topo.get(), *uneven_plan, TestConfig());
  ASSERT_TRUE(uneven.ok()) << uneven.status();
  EXPECT_EQ((*uneven)->num_channels(), 2 + 2 + 4 + 2);
}

// An aligned plan on two workers per socket (each worker starts with
// one replica chain) must count exactly what one worker counts.
TEST(ChainWiringTest, AlignedPlanCountsLikeOneWorker) {
  WordCountParams params;
  params.max_sentences = 3000;  // per spout replica
  EngineConfig config = TestConfig();
  config.spout_rate_tps = 0.0;
  config.workers_per_socket = 2;
  WcRun run = MakeWcRun({2, 2, 2, 2, 2}, config, params);
  Stripe(&run.plan);
  auto rt = BriskRuntime::Create(run.topo.get(), run.plan, config);
  ASSERT_TRUE(rt.ok()) << rt.status();
  run.rt = std::move(rt).value();
  ASSERT_TRUE(run.rt->Start().ok());
  const uint64_t expected = 2 * 3000 * 10;
  WaitForCounts(run, expected);
  const RunStats stats = run.rt->Stop();
  CheckInvariants(run, stats, 10);
  EXPECT_EQ(stats.executor.threads, 4);

  // Reference: the same two spouts (so the same sentences), every
  // other operator once, one worker.
  EngineConfig ref_config = config;
  ref_config.workers_per_socket = 1;
  WcRun ref = MakeWcRun({2, 1, 1, 1, 1}, ref_config, params);
  ref.plan.PlaceAllOn(0);
  auto ref_rt = BriskRuntime::Create(ref.topo.get(), ref.plan, ref_config);
  ASSERT_TRUE(ref_rt.ok()) << ref_rt.status();
  ref.rt = std::move(ref_rt).value();
  ASSERT_TRUE(ref.rt->Start().ok());
  WaitForCounts(ref, expected);
  const RunStats ref_stats = ref.rt->Stop();
  EXPECT_EQ(ref_stats.executor.threads, 1);
  CheckGapFreeTotal(ref, expected);
  EXPECT_EQ(FinalCounts(run), FinalCounts(ref));
}

// A live migration that breaks the counter->sink alignment rewires it
// all-to-all, and one that restores it rewires it one-to-one; neither
// loses or duplicates a tuple.
TEST(ChainWiringTest, MigrationBetweenAlignedAndUnalignedKeepsCounts) {
  WordCountParams params;
  params.max_sentences = 7500;  // per spout replica, ~500 ms paced
  WcRun run = MakeWcRun({2, 2, 2, 2, 2}, TestConfig(), params);
  Stripe(&run.plan);
  auto rt = BriskRuntime::Create(run.topo.get(), run.plan, TestConfig());
  ASSERT_TRUE(rt.ok()) << rt.status();
  run.rt = std::move(rt).value();
  ASSERT_TRUE(run.rt->Start().ok());
  EXPECT_EQ(run.rt->num_channels(), 10);
  SleepMs(100);
  run.Migrate(Move(run.plan, kSink, 0, 1));  // sink 0 leaves counter 0
  EXPECT_EQ(run.rt->num_channels(), 12);
  SleepMs(100);
  run.Migrate(Move(run.plan, kSink, 0, 0));  // and comes back
  EXPECT_EQ(run.rt->num_channels(), 10);

  const uint64_t expected = 2 * 7500 * 10;
  WaitForCounts(run, expected);
  const RunStats stats = run.rt->Stop();
  EXPECT_EQ(stats.migrations, 2);
  const auto& ot = stats.op_totals;
  EXPECT_EQ(ot[kSplitter].tuples_out, ot[kSplitter].tuples_in * 10);
  EXPECT_EQ(ot[kCounter].tuples_in, ot[kSplitter].tuples_out);
  EXPECT_EQ(ot[kSink].tuples_in, ot[kCounter].tuples_out);
  EXPECT_EQ(ot[kSink].tuples_in, expected);
  CheckGapFreeTotal(run, expected);
}

// --- Stop() -------------------------------------------------------------

// Stop() pauses like a migration: with a zero drain budget on
// saturated, shallow rings, the halt catches parked batches on every
// edge, and the sweep must deliver every one of them.
TEST(StopTest, ZeroBudgetStopConservesEveryEdge) {
  EngineConfig config = TestConfig();
  config.drain_timeout_s = 0.0;
  config.spout_rate_tps = 0.0;
  config.queue_capacity = 4;
  WcRun run = MakeWcRun({1, 1, 2, 2, 1}, config, WordCountParams{});
  ASSERT_TRUE(run.rt->Start().ok());
  SleepMs(150);
  const RunStats stats = run.rt->Stop();
  EXPECT_TRUE(stats.drain_timed_out);
  CheckInvariants(run, stats, 10);
}

/// Consumes silently and emits `finals` tuples when flushed.
class FlushBurst : public api::Operator {
 public:
  explicit FlushBurst(int64_t finals) : finals_(finals) {}
  void Process(const Tuple&, api::OutputCollector*) override {}
  void Flush(api::OutputCollector* out) override {
    for (int64_t i = 0; i < finals_; ++i) {
      Tuple t;
      t.fields.emplace_back(i);
      out->Emit(std::move(t));
    }
  }

 private:
  int64_t finals_;
};

// Finals far beyond what one ring holds (queue_capacity x batch_size
// tuples) all reach the sink: the sink drains them as they land.
TEST(StopTest, FlushLargerThanARingReachesTheSink) {
  EngineConfig config = TestConfig();
  config.queue_capacity = 4;
  constexpr int64_t kFinals = 50 * 4 * 16;  // 50 rings of 16-tuple batches
  auto count = std::make_shared<std::atomic<int64_t>>(0);
  auto sent = std::make_shared<int64_t>(0);
  dsl::Pipeline p("flush-burst");
  p.Source("src",
           dsl::SourceFn([sent](size_t max_tuples, dsl::Collector& out) {
             size_t n = 0;
             for (; n < max_tuples && *sent < 100; ++n, ++*sent) {
               Tuple t;
               t.fields.emplace_back(*sent);
               out.Emit(std::move(t));
             }
             return n;
           }))
      .Operate("burst",
               [] { return std::make_unique<FlushBurst>(int64_t{kFinals}); })
      .Sink("sink", [count](const Tuple&) { count->fetch_add(1); });
  auto topo = std::move(p).Build();
  ASSERT_TRUE(topo.ok()) << topo.status();
  auto plan = ExecutionPlan::CreateDefault(&*topo);
  ASSERT_TRUE(plan.ok());
  plan->PlaceAllOn(0);
  auto rt = BriskRuntime::Create(&*topo, *plan, config);
  ASSERT_TRUE(rt.ok()) << rt.status();
  ASSERT_TRUE((*rt)->Start().ok());
  SleepMs(50);
  const RunStats stats = (*rt)->Stop();
  EXPECT_EQ(stats.op_totals[1].tuples_in, 100u);
  EXPECT_EQ(stats.op_totals[1].tuples_out, static_cast<uint64_t>(kFinals));
  EXPECT_EQ(stats.op_totals[2].tuples_in, static_cast<uint64_t>(kFinals));
  EXPECT_EQ(count->load(), kFinals);
}

}  // namespace
}  // namespace brisk::engine
