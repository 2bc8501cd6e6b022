// Differential correctness: under a fixed seed, a bounded run's sink
// multiset is an exact function of the workload — not of the engine's
// batching nor of the worker pool's interleaving. Fields grouping pins
// every key to one replica, so per-key results (word counts, device
// windows) are interleaving-invariant; anything that leaks between the
// configurations (a dropped batch, a double-consumed envelope, per-key
// state landing on the wrong replica) breaks exact equality.
//
// The matrix: Brisk with jumbo tuples and with batch_size = 1 on the
// worker pool, word_count and spike_detection, identical plans, one
// seed. The two cells span two batching regimes: 64-tuple batches
// against one tuple per envelope, so batch boundaries, partial-batch
// flushes, back-pressure parks and shell recycling all differ while the
// sink multiset must not. (Compiled against interpreted execution of
// the same kernels is held equal by the kernel pipeline tests.)
#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/job.h"
#include "apps/spike_detection.h"
#include "apps/word_count.h"
#include "common/logging.h"
#include "engine/runtime.h"
#include "model/execution_plan.h"

namespace brisk::engine {
namespace {

using apps::SpikeDetectionParams;
using apps::WordCountParams;
using model::ExecutionPlan;

constexpr uint64_t kSeed = 0x5eedULL;

struct Cell {
  EngineConfig config;
  const char* name;
};

std::vector<Cell> Matrix() {
  EngineConfig unbatched = EngineConfig::Brisk();
  unbatched.batch_size = 1;
  return {
      {EngineConfig::Brisk(), "brisk"},
      {unbatched, "unbatched"},
  };
}

EngineConfig Arm(Cell cell) {
  EngineConfig config = cell.config;
  config.seed = kSeed;
  config.drain_timeout_s = 5.0;
  return config;
}

/// Runs a bounded deployment until the sink saw `expected` tuples (or
/// a generous timeout), stops, and asserts exactness.
void RunBounded(BriskRuntime* rt, SinkTelemetry* telemetry,
                uint64_t expected) {
  ASSERT_TRUE(rt->Start().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (telemetry->count() < expected &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  rt->Stop();
  EXPECT_EQ(telemetry->count(), expected);
}

std::vector<std::pair<std::string, int64_t>> RunWordCount(Cell cell) {
  auto telemetry = std::make_shared<SinkTelemetry>();
  auto mu = std::make_shared<std::mutex>();
  auto seen =
      std::make_shared<std::vector<std::pair<std::string, int64_t>>>();
  WordCountParams params;
  params.max_sentences = 200;  // per spout replica
  params.words_per_sentence = 8;
  auto topo = apps::BuildWordCountDsl(
      telemetry, params, [mu, seen](const Tuple& in) {
        std::lock_guard<std::mutex> lock(*mu);
        seen->emplace_back(std::string(in.GetString(0)), in.GetInt(1));
      });
  BRISK_CHECK(topo.ok()) << topo.status().ToString();
  const api::Topology topology = std::move(topo).value();
  auto plan = ExecutionPlan::Create(&topology, {2, 2, 2, 2, 1});
  BRISK_CHECK(plan.ok()) << plan.status().ToString();
  for (int i = 0; i < plan->num_instances(); ++i) plan->SetSocket(i, i % 2);
  auto rt = BriskRuntime::Create(&topology, *plan, Arm(cell));
  BRISK_CHECK(rt.ok()) << rt.status().ToString();
  RunBounded(rt->get(), telemetry.get(),
             2 * params.max_sentences * params.words_per_sentence);
  std::sort(seen->begin(), seen->end());
  return std::move(*seen);
}

std::vector<std::pair<int64_t, int64_t>> RunSpikeDetection(Cell cell) {
  auto telemetry = std::make_shared<SinkTelemetry>();
  auto mu = std::make_shared<std::mutex>();
  auto seen = std::make_shared<std::vector<std::pair<int64_t, int64_t>>>();
  SpikeDetectionParams params;
  params.max_readings = 500;
  params.num_devices = 64;  // small: windows actually fill
  params.window = 16;
  auto topo = apps::BuildSpikeDetectionDsl(
      telemetry, params, [mu, seen](const Tuple& in) {
        std::lock_guard<std::mutex> lock(*mu);
        seen->emplace_back(in.GetInt(0), in.GetInt(1));
      });
  BRISK_CHECK(topo.ok()) << topo.status().ToString();
  const api::Topology topology = std::move(topo).value();
  // Spout and parser stay at one replica so each device's readings
  // reach its window in production order (averages are
  // order-sensitive); the keyed and stateless stages fan out.
  auto plan = ExecutionPlan::Create(&topology, {1, 1, 2, 2, 1});
  BRISK_CHECK(plan.ok()) << plan.status().ToString();
  for (int i = 0; i < plan->num_instances(); ++i) plan->SetSocket(i, i % 2);
  auto rt = BriskRuntime::Create(&topology, *plan, Arm(cell));
  BRISK_CHECK(rt.ok()) << rt.status().ToString();
  RunBounded(rt->get(), telemetry.get(), params.max_readings);
  std::sort(seen->begin(), seen->end());
  return std::move(*seen);
}

TEST(DifferentialTest, WordCountSinkMultisetIdenticalAcrossMatrix) {
  const auto cells = Matrix();
  const auto baseline = RunWordCount(cells[0]);
  ASSERT_FALSE(baseline.empty());
  for (size_t i = 1; i < cells.size(); ++i) {
    const auto result = RunWordCount(cells[i]);
    EXPECT_EQ(result, baseline)
        << cells[i].name << " diverged from " << cells[0].name;
  }
}

TEST(DifferentialTest, SpikeDetectionSinkMultisetIdenticalAcrossMatrix) {
  const auto cells = Matrix();
  const auto baseline = RunSpikeDetection(cells[0]);
  ASSERT_FALSE(baseline.empty());
  for (size_t i = 1; i < cells.size(); ++i) {
    const auto result = RunSpikeDetection(cells[i]);
    EXPECT_EQ(result, baseline)
        << cells[i].name << " diverged from " << cells[0].name;
  }
}

TEST(DifferentialTest, SameCellRerunIsBitIdentical) {
  const Cell cell = Matrix()[0];
  EXPECT_EQ(RunWordCount(cell), RunWordCount(cell));
}

/// A Job whose config carries a seed (EngineConfig::seed) keeps the
/// determinism through the whole facade: profile → RLAS plan → engine,
/// twice, same sink multiset.
TEST(DifferentialTest, JobWithSeedIsReproducible) {
  auto run = [] {
    auto telemetry = std::make_shared<SinkTelemetry>();
    auto mu = std::make_shared<std::mutex>();
    auto seen =
        std::make_shared<std::vector<std::pair<std::string, int64_t>>>();
    WordCountParams params;
    params.max_sentences = 150;
    auto topo = apps::BuildWordCountDsl(
        telemetry, params, [mu, seen](const Tuple& in) {
          std::lock_guard<std::mutex> lock(*mu);
          seen->emplace_back(std::string(in.GetString(0)), in.GetInt(1));
        });
    BRISK_CHECK(topo.ok()) << topo.status().ToString();
    EngineConfig config = EngineConfig::Brisk();
    config.seed = kSeed;
    auto report =
        Job::Of(std::make_shared<const api::Topology>(
                    std::move(topo).value()))
            .WithConfig(config)
            .WithProfiles(apps::WordCountProfiles(params))
            .WithTelemetry(telemetry)
            .Run(1.0);
    BRISK_CHECK(report.ok()) << report.status().ToString();
    std::sort(seen->begin(), seen->end());
    return std::move(*seen);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace brisk::engine
