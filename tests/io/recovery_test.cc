// File-backed checkpoint/restore: a word_count job fed from the mmap
// source checkpoints byte-offset positions at record boundaries,
// survives injected crashes through the supervisor, and replays the
// file from the exact captured offsets — gap-free counts, bounded
// duplicates (the engine/recovery_test oracle, applied to external
// input). Also pins the checkpoint codec's input checks: unknown
// magic (the retired kind-less "BCP1" format too), unknown position
// kinds and hostile counts are rejected with a Status.
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/word_count.h"
#include "common/logging.h"
#include "common/serde.h"
#include "engine/checkpoint.h"
#include "engine/fault.h"
#include "engine/runtime.h"
#include "engine/supervisor.h"
#include "io/codec.h"
#include "model/execution_plan.h"
#include "sanitizer_pacing.h"

namespace brisk::io {
namespace {

using engine::BriskRuntime;
using engine::EngineConfig;
using engine::SupervisionReport;
using engine::Supervisor;
using engine::SupervisorOptions;
using model::ExecutionPlan;

// wc-file operator indices (BuildFileWordCountDsl declaration order).
constexpr int kSpout = 0;
constexpr int kCounter = 3;
constexpr int kWordsPerLine = 10;
constexpr int kVocabulary = 150;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Deterministic corpus: `n` lines of kWordsPerLine words drawn
/// round-robin from a kVocabulary-word dictionary, so every run has an
/// exact word population (n * kWordsPerLine) to assert against.
std::string WriteWcCorpus(const std::string& name, int n) {
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(n));
  uint64_t k = 0;
  for (int i = 0; i < n; ++i) {
    std::string line;
    for (int j = 0; j < kWordsPerLine; ++j) {
      if (j) line += ' ';
      line += "w" + std::to_string(k++ % kVocabulary);
    }
    lines.push_back(std::move(line));
  }
  const std::string path = testing::TempDir() + name;
  EXPECT_TRUE(WriteRecordFile(path, RecordCodec::kText, lines).ok());
  return path;
}

struct WcTap {
  std::mutex mu;
  std::vector<std::pair<std::string, int64_t>> entries;
};

struct FileWcRun {
  std::shared_ptr<SinkTelemetry> telemetry;
  std::shared_ptr<WcTap> tap;
  std::shared_ptr<const api::Topology> topo;
  std::unique_ptr<BriskRuntime> rt;
};

FileWcRun MakeFileWc(const std::string& corpus, std::vector<int> replication,
                     EngineConfig config) {
  FileWcRun run;
  run.telemetry = std::make_shared<brisk::SinkTelemetry>();
  run.tap = std::make_shared<WcTap>();
  auto tap = run.tap;
  FileSourceOptions source;
  source.path = corpus;
  source.partition = FileSourceOptions::Partition::kRange;
  auto pipeline = apps::BuildFileWordCountDsl(
      run.telemetry, source, /*out_path=*/"", [tap](const Tuple& in) {
        std::lock_guard<std::mutex> lock(tap->mu);
        tap->entries.emplace_back(std::string(in.GetString(0)), in.GetInt(1));
      });
  auto topo = std::move(pipeline).Build();
  BRISK_CHECK(topo.ok()) << topo.status().ToString();
  run.topo = std::make_shared<const api::Topology>(std::move(topo).value());
  auto plan_or = ExecutionPlan::Create(run.topo.get(), std::move(replication));
  BRISK_CHECK(plan_or.ok()) << plan_or.status().ToString();
  ExecutionPlan plan = std::move(plan_or).value();
  for (int i = 0; i < plan.num_instances(); ++i) plan.SetSocket(i, i % 2);
  auto rt = BriskRuntime::Create(run.topo.get(), plan, config);
  BRISK_CHECK(rt.ok()) << rt.status().ToString();
  run.rt = std::move(rt).value();
  return run;
}

EngineConfig FileRecoveryConfig() {
  EngineConfig config;
  config.batch_size = 16;
  config.spout_rate_tps = SanitizerPacedRate(30000);
  config.drain_timeout_s = 2.0;
  return config;
}

SupervisorOptions FastSupervision() {
  SupervisorOptions opts;
  opts.heartbeat_interval_s = 0.02;
  opts.checkpoint_interval_s = 0.03;
  opts.backoff_initial_s = 0.01;
  return opts;
}

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

/// Gap-free + exact + bounded-duplicate (see engine/recovery_test.cc
/// for the argument; replayed records each carry kWordsPerLine words).
void CheckWcRecovered(WcTap* tap, uint64_t expected_words,
                      uint64_t replayed_records) {
  std::lock_guard<std::mutex> lock(tap->mu);
  std::map<std::string, std::set<int64_t>> counts;
  for (const auto& [word, count] : tap->entries) counts[word].insert(count);
  uint64_t total = 0;
  for (const auto& [word, seen] : counts) {
    const int64_t max = *seen.rbegin();
    EXPECT_EQ(static_cast<int64_t>(seen.size()), max)
        << "word '" << word << "' has gaps in 1.." << max;
    EXPECT_EQ(*seen.begin(), 1) << "word '" << word << "'";
    total += static_cast<uint64_t>(max);
  }
  EXPECT_EQ(total, expected_words) << "final state != full file";
  ASSERT_GE(tap->entries.size(), expected_words);
  EXPECT_LE(tap->entries.size() - expected_words,
            replayed_records * kWordsPerLine);
}

/// Kills (op, replica) mid-run and asserts the supervised job replays
/// the file to the exact population from the checkpointed byte offsets.
void RunFileWcKillAndRecover(int op, int replica, uint64_t after_tuples) {
  SCOPED_TRACE("kill op " + std::to_string(op) + " replica " +
               std::to_string(replica));
  constexpr int kLines = 1200;
  const uint64_t expected = uint64_t{kLines} * kWordsPerLine;
  const std::string corpus = WriteWcCorpus("io_rec_corpus.txt", kLines);
  EngineConfig config = FileRecoveryConfig();
  config.faults.Crash(op, replica, after_tuples);
  // Two spout replicas: recovery must rewind two independent byte
  // offsets, one per range slice.
  FileWcRun run = MakeFileWc(corpus, {2, 1, 2, 2, 1}, config);
  ASSERT_TRUE(run.rt->Start().ok());
  Supervisor sup(run.rt.get(), FastSupervision());
  ASSERT_TRUE(sup.Start().ok());

  for (int waited = 0;
       waited < 20000 && SumOfMaxCounts(run.tap.get()) < expected;
       waited += 20) {
    SleepMs(20);
  }
  SupervisionReport report = sup.Stop();
  engine::RunStats stats = run.rt->Stop();

  EXPECT_GE(report.failures_detected, 1);
  EXPECT_GE(report.restarts, 1);
  EXPECT_GE(stats.restores, 1);
  EXPECT_GE(stats.checkpoints, 1);
  EXPECT_TRUE(report.final_status.ok()) << report.final_status.ToString();
  CheckWcRecovered(run.tap.get(), expected, report.replayed_tuples);
}

TEST(IoRecoveryTest, FileJobSurvivesSpoutCrash) {
  // Killing a source replica forces the re-Prepared FileSource to
  // remap the file and Rewind to the checkpointed byte offset.
  RunFileWcKillAndRecover(kSpout, 0, 250);
}

TEST(IoRecoveryTest, FileJobSurvivesCounterCrash) {
  RunFileWcKillAndRecover(kCounter, 0, 2000);
}

TEST(IoRecoveryTest, CheckpointCapturesByteOffsetsAtRecordBoundaries) {
  constexpr int kLines = 3000;
  const std::string corpus = WriteWcCorpus("io_rec_bounds.txt", kLines);
  auto file = ReadRecordFile(corpus, RecordCodec::kText);
  ASSERT_TRUE(file.ok());
  FileWcRun run = MakeFileWc(corpus, {2, 1, 1, 1, 1}, FileRecoveryConfig());
  ASSERT_TRUE(run.rt->Start().ok());
  for (int waited = 0; waited < 5000 && run.telemetry->count() < 2000;
       waited += 10) {
    SleepMs(10);
  }

  auto cp = run.rt->Checkpoint();
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();
  ASSERT_EQ(cp->positions.size(), 2u) << "one position per spout replica";
  // Per-slice record boundaries of the range partition: every slice is
  // a run of whole lines, so a replica's cumulative emitted bytes must
  // land exactly on some prefix-of-lines length.
  std::set<uint64_t> boundaries{0};
  uint64_t off = 0;
  for (const auto& line : file.value()) {
    off += line.size() + 1;
    boundaries.insert(off);
  }
  for (const auto& p : cp->positions) {
    EXPECT_TRUE(p.replayable);
    EXPECT_EQ(p.position.kind, api::SourcePosition::Kind::kByteOffset);
    EXPECT_TRUE(boundaries.count(p.position.offset))
        << "offset " << p.position.offset << " splits a record";
  }

  // The byte-offset positions survive the wire codec and drive an
  // actual in-place restore: the job rewinds and still reaches the
  // exact population.
  std::vector<uint8_t> bytes;
  SerializeCheckpoint(*cp, &bytes);
  auto decoded = engine::DeserializeCheckpoint(bytes, cp->plan);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->positions.size(), cp->positions.size());
  for (size_t i = 0; i < cp->positions.size(); ++i) {
    EXPECT_EQ(decoded->positions[i].position, cp->positions[i].position);
  }
  uint64_t replayed = 0;
  ASSERT_TRUE(run.rt->Restore(decoded.value(), &replayed).ok());
  const uint64_t expected = uint64_t{kLines} * kWordsPerLine;
  for (int waited = 0;
       waited < 20000 && SumOfMaxCounts(run.tap.get()) < expected;
       waited += 20) {
    SleepMs(20);
  }
  (void)run.rt->Stop();
  CheckWcRecovered(run.tap.get(), expected, replayed);
}

// --------------------------------------------- codec back-compat

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 4; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

ExecutionPlan AnyPlan(std::shared_ptr<const api::Topology>* keepalive) {
  auto telemetry = std::make_shared<brisk::SinkTelemetry>();
  auto topo = apps::BuildWordCountDsl(telemetry);
  BRISK_CHECK(topo.ok());
  *keepalive =
      std::make_shared<const api::Topology>(std::move(topo).value());
  auto plan = ExecutionPlan::Create(keepalive->get(), {1, 1, 1, 1, 1});
  BRISK_CHECK(plan.ok());
  return std::move(plan).value();
}

TEST(IoRecoveryTest, RejectsRetiredKindlessBcp1Checkpoints) {
  // A "BCP1" buffer: positions carry no kind field. Checkpoint bytes
  // never outlive the process that wrote them, so no such buffer can
  // exist; it falls under the unknown-magic rule.
  std::vector<uint8_t> buf;
  PutU32(0x31504342, &buf);  // "BCP1"
  PutU32(7, &buf);           // epoch
  PutU32(0, &buf);           // no state
  PutU32(1, &buf);           // one position
  PutU32(0, &buf);           // op
  PutU32(0, &buf);           // replica
  PutU64(1234, &buf);        // offset, with no kind field before it
  PutU32(1, &buf);           // replayable

  std::shared_ptr<const api::Topology> keepalive;
  const ExecutionPlan plan = AnyPlan(&keepalive);
  auto cp = engine::DeserializeCheckpoint(buf, plan);
  ASSERT_FALSE(cp.ok());
  EXPECT_NE(cp.status().ToString().find("magic"), std::string::npos);
}

TEST(IoRecoveryTest, ByteOffsetPositionsRoundTripThroughBcp2) {
  std::shared_ptr<const api::Topology> keepalive;
  engine::JobCheckpoint cp;
  cp.epoch = 3;
  cp.plan = AnyPlan(&keepalive);
  cp.positions.push_back(
      {0, 0, api::SourcePosition::Bytes(987654321), true});
  cp.positions.push_back({0, 1, api::SourcePosition::Tuples(42), true});
  std::vector<uint8_t> bytes;
  SerializeCheckpoint(cp, &bytes);
  auto back = engine::DeserializeCheckpoint(bytes, cp.plan);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->positions.size(), 2u);
  EXPECT_EQ(back->positions[0].position,
            api::SourcePosition::Bytes(987654321));
  EXPECT_EQ(back->positions[1].position, api::SourcePosition::Tuples(42));
}

TEST(IoRecoveryTest, UnknownPositionKindIsRejected) {
  std::shared_ptr<const api::Topology> keepalive;
  const ExecutionPlan plan = AnyPlan(&keepalive);
  std::vector<uint8_t> buf;
  PutU32(0x32504342, &buf);  // "BCP2"
  PutU32(1, &buf);           // epoch
  PutU32(0, &buf);           // no state
  PutU32(1, &buf);           // one position
  PutU32(0, &buf);           // op
  PutU32(0, &buf);           // replica
  PutU32(9, &buf);           // kind from the future
  PutU64(0, &buf);
  PutU32(1, &buf);
  auto cp = engine::DeserializeCheckpoint(buf, plan);
  ASSERT_FALSE(cp.ok());
  EXPECT_NE(cp.status().ToString().find("kind"), std::string::npos);
}

TEST(IoRecoveryTest, HostileCountsAreRejected) {
  std::shared_ptr<const api::Topology> keepalive;
  const ExecutionPlan plan = AnyPlan(&keepalive);
  // Each buffer claims 2^32-1 elements at one of the three counts;
  // none may be reserved before it is checked against the bytes left.
  std::vector<uint8_t> state_count;
  PutU32(0x32504342, &state_count);  // "BCP2"
  PutU32(1, &state_count);           // epoch
  PutU32(0xffffffffu, &state_count);  // n_state
  std::vector<uint8_t> entry_count;
  PutU32(0x32504342, &entry_count);
  PutU32(1, &entry_count);
  PutU32(1, &entry_count);            // one state record
  PutU32(0, &entry_count);            // op
  PutU32(0, &entry_count);            // replica
  PutU32(0xffffffffu, &entry_count);  // n_entries
  std::vector<uint8_t> position_count;
  PutU32(0x32504342, &position_count);
  PutU32(1, &position_count);
  PutU32(0, &position_count);            // no state
  PutU32(0xffffffffu, &position_count);  // n_pos
  for (const auto* buf : {&state_count, &entry_count, &position_count}) {
    auto cp = engine::DeserializeCheckpoint(*buf, plan);
    EXPECT_FALSE(cp.ok()) << buf->size() << " bytes";
  }
}

}  // namespace
}  // namespace brisk::io
