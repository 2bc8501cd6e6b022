// Live-migration pause cost: how long does BriskRuntime::ApplyMigration
// stall the pipeline? The protocol is pause-and-migrate (quiesce at a
// batch boundary, residual sweep, rebuild, resume), so the pause is
// the price of zero tuple loss — this bench measures it end-to-end on
// a live word_count on the worker pool, for pure moves, replication
// growth (keyed-state re-partitioning included), and shrinkage.
//
//   $ ./bench/bench_migration [--out BENCH_migration.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/word_count.h"
#include "bench_util.h"
#include "common/logging.h"
#include "engine/runtime.h"
#include "model/execution_plan.h"

using namespace brisk;

namespace {

constexpr int kSpout = 0;
constexpr int kSplitter = 2;
constexpr int kCounter = 3;

struct PauseStats {
  double mean_ms = 0.0;
  double max_ms = 0.0;
  int migrations = 0;
  bool conserved = false;
};

double Ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Runs WC, applies `rounds` alternating migrations (move splitter,
/// grow counter, shrink counter), and reports the ApplyMigration wall
/// time plus the end-of-run conservation audit.
PauseStats MeasurePauses(int rounds) {
  auto telemetry = std::make_shared<SinkTelemetry>();
  apps::WordCountParams params;
  auto topo_or = apps::BuildWordCountDsl(telemetry, params);
  BRISK_CHECK(topo_or.ok()) << topo_or.status().ToString();
  const api::Topology topo = std::move(topo_or).value();
  auto plan_or = model::ExecutionPlan::Create(&topo, {1, 1, 2, 2, 1});
  BRISK_CHECK(plan_or.ok()) << plan_or.status().ToString();
  model::ExecutionPlan plan = std::move(plan_or).value();
  for (int i = 0; i < plan.num_instances(); ++i) plan.SetSocket(i, i % 2);

  engine::EngineConfig config;
  config.spout_rate_tps = 50000;
  config.seed = 0xbe9c;
  auto rt_or = engine::BriskRuntime::Create(&topo, plan, config);
  BRISK_CHECK(rt_or.ok()) << rt_or.status().ToString();
  auto rt = std::move(rt_or).value();
  BRISK_CHECK(rt->Start().ok());

  PauseStats out;
  std::vector<double> pauses_ms;
  for (int round = 0; round < rounds; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    model::ExecutionPlan next = rt->plan();
    if (round % 3 == 0) {  // move one splitter replica to the other socket
      const int inst = next.InstanceId(kSplitter, 0);
      next.SetSocket(inst, 1 - next.SocketOf(inst));
    } else {  // grow the stateful counter (re-partitions keyed state),
              // then shrink it back (merges keyed state)
      const int step = round % 3 == 1 ? 1 : -1;
      auto resized =
          next.Resized(kCounter, next.replication(kCounter) + step, 1);
      BRISK_CHECK(resized.ok()) << resized.status().ToString();
      next = std::move(resized).value();
    }
    const auto t0 = std::chrono::steady_clock::now();
    BRISK_CHECK_OK(rt->ApplyMigration(next));
    pauses_ms.push_back(Ms(std::chrono::steady_clock::now() - t0));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const engine::RunStats stats = rt->Stop();

  out.migrations = stats.migrations;
  for (const double p : pauses_ms) {
    out.mean_ms += p;
    out.max_ms = std::max(out.max_ms, p);
  }
  if (!pauses_ms.empty()) out.mean_ms /= pauses_ms.size();
  const auto& ot = stats.op_totals;
  out.conserved = ot.size() == 5 && ot[1].tuples_in == ot[kSpout].tuples_out &&
                  ot[kSplitter].tuples_in == ot[1].tuples_out &&
                  ot[kCounter].tuples_in == ot[kSplitter].tuples_out &&
                  ot[4].tuples_in == ot[kCounter].tuples_out &&
                  telemetry->count() == ot[4].tuples_in;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_migration.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  bench::Banner("migration",
                "live pause-and-migrate cost (quiesce -> rebuild -> resume)");

  constexpr int kRounds = 15;
  const PauseStats pool = MeasurePauses(kRounds);

  const std::vector<int> widths = {12, 12, 12, 12};
  bench::PrintRule(widths);
  bench::PrintRow({"migrations", "mean ms", "max ms", "exact"}, widths);
  bench::PrintRule(widths);
  bench::PrintRow({std::to_string(pool.migrations),
                   std::to_string(pool.mean_ms), std::to_string(pool.max_ms),
                   pool.conserved ? "yes" : "NO"},
                  widths);
  bench::PrintRule(widths);

  bench::JsonObj pool_json, root;
  pool_json.Add("migrations", pool.migrations)
      .Add("pause_mean_ms", pool.mean_ms)
      .Add("pause_max_ms", pool.max_ms)
      .Add("tuples_conserved", pool.conserved);
  root.Add("experiment", "migration")
      .Add("rounds", kRounds)
      .Add("worker_pool", pool_json);
  bench::WriteJsonFile(out_path, root);

  // Zero-loss is the bench's gate too: a migration that drops tuples
  // is not a faster migration.
  return pool.conserved ? 0 : 1;
}
