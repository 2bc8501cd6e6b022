// Worker-pool scheduling benchmark on word_count.
//
// Replication sweep: replication scales the splitter and counter
// ({1,1,r,r,1}) with every instance on socket 0, on channels bounded at
// 16 batches, so oversubscription (tasks per core) is the only
// variable. Each point records sink tuples/s,
// p99 latency and worker parks; the sweep is recorded, not gated. The
// last thread-per-task comparison on this workload is frozen in
// bench/BENCH_executor_legacy.json; the open target is pool p99 <=
// 100 ms at r64 (see ROADMAP.md).
//
// Skewed arm (gated): word_count r=64 with every heavy instance on
// socket 0 of an emulated two-socket machine, stealing on vs off, run
// as kSkewPairs off/on pairs that alternate which side runs first (a
// single steal-off run is bimodal on shared hosts). The bench exits
// nonzero unless the median on/off ratio is >= 1.5 and, over the
// summed steal-on counters, intra-socket steals are > 0 and
// cross-socket steals a strict minority. The gate is enforced on
// hosts with >= 2 cores.
//
// Flags: --quick (CI-sized points/durations), --out <path>,
// --qcap (experiment override).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/runtime.h"
#include "hardware/machine_spec.h"
#include "hardware/numa_emulator.h"
#include "model/execution_plan.h"

namespace brisk {
namespace {

using engine::EngineConfig;
using model::ExecutionPlan;
using model::PlanInstance;

int HostCores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

struct RunResult {
  double sink_tps = 0.0;
  double p99_ms = 0.0;
  int tasks = 0;
  int threads = 0;
  uint64_t parks = 0;
};

int g_qcap = 0;  // experiment override, 0 = default

/// Channel bound per edge, in batches, in the sweep and the skewed arm.
constexpr size_t kBoundedQueueBatches = 16;

/// Off/on pairs in the skewed arm; the gate reads their median ratio.
constexpr int kSkewPairs = 5;

RunResult RunOnce(int replication, double seconds) {
  auto app = apps::MakeApp(apps::AppId::kWordCount);
  if (!app.ok()) std::abort();
  auto plan = ExecutionPlan::Create(app->topology_ptr.get(),
                                    {1, 1, replication, replication, 1});
  if (!plan.ok()) std::abort();
  plan->PlaceAllOn(0);
  EngineConfig cfg = EngineConfig::Brisk();
  cfg.queue_capacity = kBoundedQueueBatches;
  cfg.drain_timeout_s = 0;  // metrics are read before Stop()
  if (g_qcap > 0) cfg.queue_capacity = static_cast<size_t>(g_qcap);
  auto rt = engine::BriskRuntime::Create(app->topology_ptr.get(), *plan, cfg);
  if (!rt.ok()) std::abort();
  if (!(*rt)->Start().ok()) std::abort();
  const int64_t t0 = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  // Steady-state snapshot BEFORE Stop(): the shutdown epilogue drains
  // the queued backlog single-threaded, which would otherwise pollute
  // both throughput and the latency histogram.
  const uint64_t steady_tuples = app->telemetry->count();
  const Histogram steady_latency = app->telemetry->LatencySnapshot();
  const int64_t t1 = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count();
  const engine::RunStats stats = (*rt)->Stop();
  RunResult res;
  res.tasks = static_cast<int>(stats.tasks.size());
  res.threads = stats.executor.threads;
  res.parks = stats.executor.parks;
  res.sink_tps = static_cast<double>(steady_tuples) /
                 (static_cast<double>(t1 - t0) * 1e-9);
  res.p99_ms = steady_latency.Percentile(0.99) / 1e6;
  return res;
}

/// One run of the skewed-assignment arm: word_count at replication 64
/// on an emulated two-socket machine where every heavy instance
/// (splitter + counter) is parked on socket 0 while socket 1 holds
/// only the light spout/parser/sink chain. With stealing off the
/// heavy backlog is bound to socket 0's workers; with stealing on the
/// idle socket-1 workers should pull it over and lift throughput.
struct SkewResult {
  double sink_tps = 0.0;
  int workers = 0;
  uint64_t parks = 0;
  uint64_t wakes = 0;
  uint64_t steals_intra = 0;
  uint64_t steals_cross = 0;
  uint64_t steal_failures = 0;
  uint64_t repatriations = 0;
};

SkewResult RunSkew(bool steal_on, double seconds) {
  constexpr int kSkewReplication = 64;
  auto app = apps::MakeApp(apps::AppId::kWordCount);
  if (!app.ok()) std::abort();
  auto plan = ExecutionPlan::Create(
      app->topology_ptr.get(),
      {1, 1, kSkewReplication, kSkewReplication, 1});
  if (!plan.ok()) std::abort();
  // Ops are {spout, parser, splitter, counter, sink}; the two replicated
  // heavy ops (ids 2 and 3) all land on socket 0.
  for (int i = 0; i < plan->num_instances(); ++i) {
    const PlanInstance& pi = plan->instance(i);
    plan->SetSocket(i, (pi.op == 2 || pi.op == 3) ? 0 : 1);
  }
  // Emulated two-socket machine: drives worker grouping and pinning but
  // charges no remote-fetch stalls (numa_emulation stays off), so the
  // measured delta is pure scheduling.
  const int cores = HostCores();
  const hw::MachineSpec machine = hw::MachineSpec::Symmetric(
      2, std::max(1, cores / 2), 1.0, 50, 300, 50, 10);
  const hw::NumaEmulator numa(machine);
  EngineConfig cfg = EngineConfig::Brisk();
  cfg.queue_capacity = kBoundedQueueBatches;
  cfg.drain_timeout_s = 0;  // metrics are read before Stop()
  cfg.pin_threads = true;
  cfg.steal_work = steal_on;
  // At least two workers per socket so intra-socket stealing is
  // structurally possible even on small hosts.
  cfg.workers_per_socket = std::max(2, cores / 2);
  auto rt = engine::BriskRuntime::Create(app->topology_ptr.get(), *plan,
                                         cfg, &numa);
  if (!rt.ok()) std::abort();
  if (!(*rt)->Start().ok()) std::abort();
  const int64_t t0 = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  const uint64_t steady_tuples = app->telemetry->count();
  const int64_t t1 = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count();
  const engine::RunStats stats = (*rt)->Stop();
  SkewResult res;
  res.sink_tps = static_cast<double>(steady_tuples) /
                 (static_cast<double>(t1 - t0) * 1e-9);
  res.workers = stats.executor.threads;
  res.parks = stats.executor.parks;
  res.wakes = stats.executor.wakes;
  res.steals_intra = stats.executor.steals_intra;
  res.steals_cross = stats.executor.steals_cross;
  res.steal_failures = stats.executor.steal_failures;
  res.repatriations = stats.executor.repatriations;
  return res;
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_executor.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
    if (std::strcmp(argv[i], "--qcap") == 0 && i + 1 < argc) {
      g_qcap = std::atoi(argv[++i]);
    }
  }
  const double seconds = quick ? 0.4 : 1.5;
  const int cores = HostCores();
  // Replication levels: 1, replication = cores, and the first level
  // putting total tasks >= 8x cores; in full mode also the paper-style
  // 1 -> 64 doubling sweep.
  const int r_cores = std::max(1, cores);
  const int r_oversub = std::max(r_cores + 1, (8 * cores - 3 + 1) / 2 + 1);
  std::set<int> levels = {1, r_cores, r_oversub};
  if (!quick) {
    for (int r = 2; r <= 64; r *= 2) levels.insert(r);
  }

  bench::Banner("executor",
                "worker pool, word_count replication sweep on fixed cores");
  std::printf("host cores: %d, run: %.1fs/point, channels bounded at %zu "
              "batches (sweep recorded, not gated)\n",
              cores, seconds, kBoundedQueueBatches);

  const std::vector<int> widths = {6, 7, 8, 13, 10, 8, 10};
  bench::PrintRule(widths);
  bench::PrintRow({"r", "tasks", "oversub", "tup/s", "p99 ms", "workers",
                   "parks"},
                  widths);
  bench::PrintRule(widths);
  bench::JsonObj points;
  for (const int r : levels) {
    const RunResult res = RunOnce(r, seconds);
    const double oversub =
        static_cast<double>(res.tasks) / static_cast<double>(cores);
    char rs[16], tasks_s[16], ov[16], tps[32], p99[16], wk[16], pk[32];
    std::snprintf(rs, sizeof(rs), "%d", r);
    std::snprintf(tasks_s, sizeof(tasks_s), "%d", res.tasks);
    std::snprintf(ov, sizeof(ov), "%.1fx", oversub);
    std::snprintf(tps, sizeof(tps), "%.0f", res.sink_tps);
    std::snprintf(p99, sizeof(p99), "%.1f", res.p99_ms);
    std::snprintf(wk, sizeof(wk), "%d", res.threads);
    std::snprintf(pk, sizeof(pk), "%llu", (unsigned long long)res.parks);
    bench::PrintRow({rs, tasks_s, ov, tps, p99, wk, pk}, widths);
    bench::JsonObj point;
    point.Add("replication", r)
        .Add("tasks", res.tasks)
        .Add("oversubscription", oversub)
        .Add("worker_pool_tps", res.sink_tps)
        .Add("worker_pool_p99_ms", res.p99_ms)
        .Add("pool_workers", res.threads)
        .Add("pool_parks", static_cast<double>(res.parks));
    points.Add("r" + std::to_string(r), point);
  }
  bench::PrintRule(widths);

  // Skewed-assignment arm: every heavy instance on socket 0 of an
  // emulated two-socket machine, stealing on vs off. The gate is only
  // meaningful with real parallelism, so it is recorded but not
  // enforced on single-core hosts.
  const bool steal_gate_enforced = cores >= 2;
  std::printf("skewed arm: word_count r=64, heavy ops pinned to socket 0 "
              "of an emulated 2-socket machine, steal on vs off, %d "
              "alternating pairs (%s on this host)\n",
              kSkewPairs,
              steal_gate_enforced ? "gated" : "recorded, ungated: <2 cores");
  // Alternate which side runs first so host drift between the two
  // runs of a pair biases neither side.
  std::vector<SkewResult> skew_off(kSkewPairs), skew_on(kSkewPairs);
  std::vector<double> ratios(kSkewPairs);
  for (int p = 0; p < kSkewPairs; ++p) {
    if (p % 2 == 0) {
      skew_off[p] = RunSkew(/*steal_on=*/false, seconds);
      skew_on[p] = RunSkew(/*steal_on=*/true, seconds);
    } else {
      skew_on[p] = RunSkew(/*steal_on=*/true, seconds);
      skew_off[p] = RunSkew(/*steal_on=*/false, seconds);
    }
    ratios[p] = skew_off[p].sink_tps > 0.0
                    ? skew_on[p].sink_tps / skew_off[p].sink_tps
                    : 0.0;
  }
  std::vector<double> sorted_ratios = ratios;
  std::sort(sorted_ratios.begin(), sorted_ratios.end());
  const double steal_ratio = sorted_ratios[kSkewPairs / 2];
  const std::vector<int> swidths = {7, 7, 13, 8, 7, 7, 7, 7, 7, 7};
  bench::PrintRule(swidths);
  bench::PrintRow({"pair", "steal", "tup/s", "workers", "parks", "wakes",
                   "intra", "cross", "fail", "repat"},
                  swidths);
  bench::PrintRule(swidths);
  auto print_skew = [&](int pair, const char* label, const SkewResult& r) {
    char pr[16], tps[32], wk[16], pk[16], wks[16], in[16], cr[16], fl[16],
        rp[16];
    std::snprintf(pr, sizeof(pr), "%d", pair + 1);
    std::snprintf(tps, sizeof(tps), "%.0f", r.sink_tps);
    std::snprintf(wk, sizeof(wk), "%d", r.workers);
    std::snprintf(pk, sizeof(pk), "%llu", (unsigned long long)r.parks);
    std::snprintf(wks, sizeof(wks), "%llu", (unsigned long long)r.wakes);
    std::snprintf(in, sizeof(in), "%llu",
                  (unsigned long long)r.steals_intra);
    std::snprintf(cr, sizeof(cr), "%llu",
                  (unsigned long long)r.steals_cross);
    std::snprintf(fl, sizeof(fl), "%llu",
                  (unsigned long long)r.steal_failures);
    std::snprintf(rp, sizeof(rp), "%llu",
                  (unsigned long long)r.repatriations);
    bench::PrintRow({pr, label, tps, wk, pk, wks, in, cr, fl, rp}, swidths);
  };
  uint64_t steals_intra = 0;
  uint64_t steals_cross = 0;
  for (int p = 0; p < kSkewPairs; ++p) {
    print_skew(p, "off", skew_off[p]);
    print_skew(p, "on", skew_on[p]);
    steals_intra += skew_on[p].steals_intra;
    steals_cross += skew_on[p].steals_cross;
  }
  bench::PrintRule(swidths);
  const uint64_t steals_total = steals_intra + steals_cross;
  const bool steal_ratio_pass = steal_ratio >= 1.5;
  const bool steal_intra_pass = steals_intra > 0;
  const bool steal_cross_minority =
      steals_cross * 2 < steals_total || steals_total == 0;
  const bool steal_pass =
      !steal_gate_enforced ||
      (steal_ratio_pass && steal_intra_pass && steal_cross_minority);
  std::printf("steal gate: median on/off over %d pairs = %.2f (min 1.50; "
              "pairs:",
              kSkewPairs, steal_ratio);
  for (const double r : ratios) std::printf(" %.2f", r);
  std::printf("), summed steal-on intra=%llu cross=%llu (cross must stay "
              "a strict minority)%s\n",
              (unsigned long long)steals_intra,
              (unsigned long long)steals_cross,
              steal_gate_enforced ? "" : " [not enforced: <2 cores]");

  auto skew_json = [](const SkewResult& r) {
    bench::JsonObj o;
    o.Add("sink_tps", r.sink_tps)
        .Add("workers", r.workers)
        .Add("parks", static_cast<double>(r.parks))
        .Add("wakes", static_cast<double>(r.wakes))
        .Add("steals_intra", static_cast<double>(r.steals_intra))
        .Add("steals_cross", static_cast<double>(r.steals_cross))
        .Add("steal_failures", static_cast<double>(r.steal_failures))
        .Add("repatriations", static_cast<double>(r.repatriations));
    return o;
  };
  bench::JsonObj pairs;
  for (int p = 0; p < kSkewPairs; ++p) {
    bench::JsonObj pair;
    pair.Add("first", p % 2 == 0 ? "off" : "on")
        .Add("ratio", ratios[p])
        .Add("steal_off", skew_json(skew_off[p]))
        .Add("steal_on", skew_json(skew_on[p]));
    pairs.Add(std::to_string(p + 1), pair);
  }
  bench::JsonObj gate_steal;
  gate_steal.Add("replication", 64)
      .Add("repeats", kSkewPairs)
      .Add("ratio_median", steal_ratio)
      .Add("min", 1.5)
      .Add("steals_intra_on", static_cast<double>(steals_intra))
      .Add("steals_cross_on", static_cast<double>(steals_cross))
      .Add("enforced", steal_gate_enforced)
      .Add("pass", steal_pass)
      .Add("pairs", pairs);
  bench::JsonObj doc;
  doc.Add("bench", "executor")
      .Add("workload",
           "word_count {1,1,r,r,1}, all instances on socket 0, sink "
           "throughput, channels bounded at 16 batches")
      .Add("quick", quick)
      .Add("host_cores", cores)
      .Add("seconds_per_point", seconds)
      .Add("bounded_queue_batches", static_cast<int>(kBoundedQueueBatches))
      .Add("points", points)
      .Add("legacy_reference", "bench/BENCH_executor_legacy.json")
      .Add("gate_steal", gate_steal);
  if (!bench::WriteJsonFile(out_path, doc)) return 1;
  std::printf("wrote %s\n", out_path.c_str());

  if (!steal_pass) {
    std::fprintf(stderr,
                 "FAIL: skewed arm — median steal-on/steal-off = %.2f "
                 "(min 1.50), summed steals_intra=%llu (must be > 0), "
                 "steals_cross=%llu (must be a strict minority)\n",
                 steal_ratio, (unsigned long long)steals_intra,
                 (unsigned long long)steals_cross);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace brisk

int main(int argc, char** argv) { return brisk::Main(argc, argv); }
