// Shared helpers for the experiment harness binaries (one per paper
// table/figure; bench/CMakeLists.txt lists them).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "hardware/machine_spec.h"
#include "model/perf_model.h"
#include "optimizer/baselines.h"
#include "optimizer/rlas.h"
#include "sim/simulator.h"

namespace brisk::bench {

/// An application optimized by RLAS for one machine.
struct OptimizedApp {
  apps::AppBundle bundle;
  model::ProfileSet profiles;  ///< for the chosen SystemKind
  opt::RlasResult rlas;
};

/// Runs the full RLAS loop for `app` on `machine` under the given
/// system's cost profiles.
StatusOr<OptimizedApp> OptimizeApp(
    apps::AppId app, const hw::MachineSpec& machine, int compress_ratio = 5,
    apps::SystemKind system = apps::SystemKind::kBrisk);

/// Default simulation window used across benches (kept short so the
/// whole harness runs in minutes).
sim::SimConfig DefaultSimConfig();

/// Simulated ("measured") throughput of a placed plan, tuples/sec.
StatusOr<double> MeasuredThroughput(const hw::MachineSpec& machine,
                                    const model::ProfileSet& profiles,
                                    const model::ExecutionPlan& plan);

/// Full simulation with the default window.
StatusOr<sim::SimResult> MeasureSim(const hw::MachineSpec& machine,
                                    const model::ProfileSet& profiles,
                                    const model::ExecutionPlan& plan);

/// One system's deployment of an application (Fig. 6/7/9 comparisons):
/// BriskStream uses RLAS; Storm-like uses NUMA-oblivious scaling + OS
/// placement; Flink-like uses its NUMA-aware-config equivalent,
/// round-robin across sockets (one task manager per socket, §6.3).
struct SystemRun {
  apps::SystemKind system;
  model::ProfileSet profiles;
  model::ExecutionPlan plan;
  sim::SimResult sim;
  /// Keeps the topology the plan points into alive.
  std::shared_ptr<const api::Topology> topology_keepalive;
};

/// Plans and simulates `app` as deployed by `system` on `machine`.
StatusOr<SystemRun> RunSystem(apps::AppId app, const hw::MachineSpec& machine,
                              apps::SystemKind system);

/// BriskStream with compiled fusion: greedy AutoFuse prices
/// kernel-backed chains at the measured compiled:interpreted per-tuple
/// ratio (opt::kMeasuredCompiledTeDiscount, from bench_pipeline.cc),
/// then RLAS plans and the simulator measures the fused topology.
/// Apps whose chains are not kernel-backed degrade gracefully to plain
/// interpreted fusion (or no fusion where it never helps).
StatusOr<SystemRun> RunBriskCompiled(apps::AppId app,
                                     const hw::MachineSpec& machine);

/// Formats tuples/sec as the paper's "K events/s" unit.
std::string Keps(double tuples_per_sec);

/// Fixed-width table printing.
void PrintRule(const std::vector<int>& widths);
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);

/// Prints the standard bench banner (experiment id + description).
void Banner(const std::string& experiment, const std::string& what);

/// Minimal ordered JSON writer for the machine-readable `BENCH_*.json`
/// files benches emit next to their human-readable tables (insertion
/// order preserved). Strings are fully escaped (quotes, backslashes,
/// control characters), and nested objects render at their true depth,
/// so arbitrarily deep structures stay valid JSON.
class JsonObj {
 public:
  JsonObj& Add(const std::string& key, const std::string& v);
  JsonObj& Add(const std::string& key, const char* v);
  JsonObj& Add(const std::string& key, double v);
  JsonObj& Add(const std::string& key, uint64_t v);
  JsonObj& Add(const std::string& key, int v);
  JsonObj& Add(const std::string& key, bool v);
  JsonObj& Add(const std::string& key, const JsonObj& v);  ///< nested object

  /// Serializes as a pretty-printed object at the given indent depth.
  std::string Str(int indent = 0) const;

 private:
  JsonObj& AddRaw(const std::string& key, std::string raw);

  /// Scalar items carry their rendered text; nested objects are kept
  /// as objects and rendered by Str at the actual depth (a pre-
  /// rendered nested string would bake in one fixed indent and
  /// mis-indent at any other depth).
  struct Item {
    std::string key;
    std::string raw;
    std::shared_ptr<const JsonObj> obj;
  };
  std::vector<Item> items_;
};

/// Writes `obj` to `path` with a trailing newline; returns false (and
/// prints to stderr) on I/O failure.
bool WriteJsonFile(const std::string& path, const JsonObj& obj);

}  // namespace brisk::bench
