// Fault-tolerance cost: what does a checkpoint pause, and how long is
// the crash→running-again window?
//
//   - Checkpoint pause vs interval: a supervised word_count runs with
//     periodic snapshots; the pause is the same quiesce a migration
//     pays (stop at a batch boundary, drain, sweep), plus the state
//     copy. Reported per checkpoint interval.
//   - Recovery latency: a counter replica is crashed mid-run; the
//     watchdog detects it, restores the last checkpoint, rewinds the
//     source, and the job finishes its bounded stream. Reported as
//     detect-to-restored latency, the replayed (duplicate) window,
//     and the post-recovery sink throughput.
//
// Zero-loss is the gate: every run must end with gap-free per-word
// counts whose maxima sum to the exact stream population, or the
// bench exits nonzero.
//
//   $ ./bench/bench_recovery [--quick] [--out BENCH_recovery.json]
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/word_count.h"
#include "bench_util.h"
#include "common/logging.h"
#include "engine/runtime.h"
#include "engine/supervisor.h"
#include "model/execution_plan.h"

using namespace brisk;

namespace {

constexpr int kCounter = 3;

struct TapLog {
  std::mutex mu;
  std::vector<std::pair<std::string, int64_t>> entries;
};

struct Rig {
  std::shared_ptr<SinkTelemetry> telemetry;
  std::shared_ptr<TapLog> tap;
  std::shared_ptr<const api::Topology> topo;
  std::unique_ptr<engine::BriskRuntime> rt;
};

Rig MakeRig(engine::EngineConfig config, apps::WordCountParams params) {
  Rig rig;
  rig.telemetry = std::make_shared<SinkTelemetry>();
  rig.tap = std::make_shared<TapLog>();
  auto tap = rig.tap;
  auto topo_or = apps::BuildWordCountDsl(
      rig.telemetry, params, [tap](const Tuple& in) {
        std::lock_guard<std::mutex> lock(tap->mu);
        tap->entries.emplace_back(std::string(in.GetString(0)), in.GetInt(1));
      });
  BRISK_CHECK(topo_or.ok()) << topo_or.status().ToString();
  rig.topo =
      std::make_shared<const api::Topology>(std::move(topo_or).value());
  auto plan_or = model::ExecutionPlan::Create(rig.topo.get(), {1, 1, 2, 2, 1});
  BRISK_CHECK(plan_or.ok()) << plan_or.status().ToString();
  model::ExecutionPlan plan = std::move(plan_or).value();
  for (int i = 0; i < plan.num_instances(); ++i) plan.SetSocket(i, i % 2);
  auto rt_or = engine::BriskRuntime::Create(rig.topo.get(), plan, config);
  BRISK_CHECK(rt_or.ok()) << rt_or.status().ToString();
  rig.rt = std::move(rt_or).value();
  return rig;
}

engine::EngineConfig BaseConfig() {
  engine::EngineConfig config;
  config.spout_rate_tps = 40000;
  config.seed = 0xfa17;
  config.drain_timeout_s = 2.0;
  return config;
}

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Gap-free dense counts + exact full-stream total (see file header).
bool Conserved(TapLog* tap, uint64_t expected_words) {
  std::lock_guard<std::mutex> lock(tap->mu);
  std::map<std::string, std::set<int64_t>> counts;
  for (const auto& [word, count] : tap->entries) counts[word].insert(count);
  uint64_t total = 0;
  for (const auto& [word, seen] : counts) {
    const int64_t max = *seen.rbegin();
    if (static_cast<int64_t>(seen.size()) != max || *seen.begin() != 1) {
      return false;
    }
    total += static_cast<uint64_t>(max);
  }
  return total == expected_words;
}

uint64_t SumOfMaxCounts(TapLog* tap) {
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

struct CheckpointPoint {
  double interval_s = 0.0;
  int checkpoints = 0;
  double pause_mean_ms = 0.0;
  uint64_t entries = 0;  ///< keyed-state entries in the last snapshot
};

/// Supervised steady-state run: periodic checkpoints, no faults.
CheckpointPoint MeasureCheckpointPause(double interval_s, double run_s) {
  Rig rig = MakeRig(BaseConfig(), apps::WordCountParams{});
  BRISK_CHECK(rig.rt->Start().ok());
  engine::SupervisorOptions opts;
  opts.heartbeat_interval_s = 0.02;
  opts.checkpoint_interval_s = interval_s;
  // No faults are injected here; a scheduling hiccup misread as a
  // stall would trigger a restore and pollute the pause numbers.
  opts.stall_probes = 1 << 20;
  engine::Supervisor sup(rig.rt.get(), opts);
  BRISK_CHECK(sup.Start().ok());
  SleepMs(static_cast<int>(run_s * 1000));
  // One direct snapshot for the payload-size column.
  auto cp = rig.rt->Checkpoint();
  const engine::SupervisionReport report = sup.Stop();
  (void)rig.rt->Stop();

  CheckpointPoint point;
  point.interval_s = interval_s;
  point.checkpoints = report.checkpoints;
  if (report.checkpoints > 0) {
    point.pause_mean_ms =
        1000.0 * report.checkpoint_pause_s / report.checkpoints;
  }
  if (cp.ok()) point.entries = cp.value().TotalEntries();
  return point;
}

struct RecoveryPoint {
  double detect_ms = 0.0;    ///< run start -> failure detected
  double restore_ms = 0.0;   ///< detect -> engine running again
  uint64_t replayed = 0;     ///< duplicate window, source tuples
  double resumed_tps = 0.0;  ///< sink throughput after the restore
  bool conserved = false;
};

/// Crash one counter replica mid-stream, recover, finish the bounded
/// run, audit conservation.
RecoveryPoint MeasureRecovery() {
  apps::WordCountParams params;
  params.max_sentences = 20000;
  const uint64_t expected = params.max_sentences * params.words_per_sentence;
  engine::EngineConfig config = BaseConfig();
  config.faults.Crash(kCounter, 0, /*after_tuples=*/40000);
  Rig rig = MakeRig(config, params);
  BRISK_CHECK(rig.rt->Start().ok());
  engine::SupervisorOptions opts;
  opts.heartbeat_interval_s = 0.02;
  opts.checkpoint_interval_s = 0.05;
  opts.backoff_initial_s = 0.01;
  // The 40 ms freeze threshold of the defaults is within reach of an
  // ordinary scheduling hiccup at this heartbeat; demand a longer
  // freeze and keep restart budget for the measured crash.
  opts.stall_probes = 5;
  opts.max_restarts = 8;
  engine::Supervisor sup(rig.rt.get(), opts);
  BRISK_CHECK(sup.Start().ok());

  // Wait out the restore, then sample the resumed throughput window.
  for (int waited = 0; waited < 20000 && sup.Snapshot().restarts < 1;
       waited += 5) {
    SleepMs(5);
  }
  const uint64_t sink_at_restore = rig.telemetry->count();
  const auto t_restore = std::chrono::steady_clock::now();
  for (int waited = 0;
       waited < 30000 && SumOfMaxCounts(rig.tap.get()) < expected;
       waited += 20) {
    SleepMs(20);
  }
  const double resumed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_restore)
          .count();
  const uint64_t sink_final = rig.telemetry->count();
  const engine::SupervisionReport report = sup.Stop();
  (void)rig.rt->Stop();

  RecoveryPoint point;
  for (const engine::RecoveryRecord& rec : report.recoveries) {
    if (rec.cause.find("injected crash") == std::string::npos) continue;
    point.detect_ms = 1000.0 * rec.at_seconds;
    point.restore_ms = 1000.0 * rec.recovery_seconds;
    break;
  }
  point.replayed = report.replayed_tuples;
  if (resumed_s > 0) {
    point.resumed_tps =
        static_cast<double>(sink_final - sink_at_restore) / resumed_s;
  }
  point.conserved = report.restarts >= 1 &&
                    Conserved(rig.tap.get(), expected);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_recovery.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  bench::Banner("recovery",
                "checkpoint pause and crash-recovery latency (supervised)");

  const std::vector<double> intervals =
      quick ? std::vector<double>{0.1} : std::vector<double>{0.05, 0.1, 0.25};
  const double run_s = quick ? 0.8 : 1.5;

  const std::vector<int> pause_widths = {14, 12, 14, 12};
  bench::PrintRule(pause_widths);
  bench::PrintRow({"interval ms", "snapshots", "pause ms", "entries"},
                  pause_widths);
  bench::PrintRule(pause_widths);
  bench::JsonObj root;
  root.Add("experiment", "recovery").Add("quick", quick);
  for (const double interval : intervals) {
    const CheckpointPoint p = MeasureCheckpointPause(interval, run_s);
    bench::PrintRow({std::to_string(interval * 1000),
                     std::to_string(p.checkpoints),
                     std::to_string(p.pause_mean_ms),
                     std::to_string(p.entries)},
                    pause_widths);
    bench::JsonObj obj;
    obj.Add("interval_ms", p.interval_s * 1000)
        .Add("checkpoints", p.checkpoints)
        .Add("pause_mean_ms", p.pause_mean_ms)
        .Add("state_entries", static_cast<double>(p.entries));
    root.Add("checkpoint_" +
                 std::to_string(static_cast<int>(p.interval_s * 1000)) +
                 "ms",
             obj);
  }
  bench::PrintRule(pause_widths);

  const std::vector<int> recovery_widths = {12, 12, 12, 14, 10};
  bench::PrintRule(recovery_widths);
  bench::PrintRow(
      {"detect ms", "restore ms", "replayed", "resumed tps", "exact"},
      recovery_widths);
  bench::PrintRule(recovery_widths);
  const RecoveryPoint rec = MeasureRecovery();
  bench::PrintRow({std::to_string(rec.detect_ms),
                   std::to_string(rec.restore_ms),
                   std::to_string(rec.replayed),
                   std::to_string(rec.resumed_tps),
                   rec.conserved ? "yes" : "NO"},
                  recovery_widths);
  bench::PrintRule(recovery_widths);
  bench::JsonObj rec_json;
  rec_json.Add("detect_ms", rec.detect_ms)
      .Add("restore_ms", rec.restore_ms)
      .Add("replayed_tuples", static_cast<double>(rec.replayed))
      .Add("resumed_sink_tps", rec.resumed_tps)
      .Add("tuples_conserved", rec.conserved);
  root.Add("recovery", rec_json);
  bench::WriteJsonFile(out_path, root);

  // Zero-loss is the gate: a fast recovery that lost tuples is not a
  // recovery.
  return rec.conserved ? 0 : 1;
}
