// Word Count end-to-end (the paper's running example, Fig. 2):
// profile the operators, optimize the plan for an 8-socket target,
// inspect the plan, then execute it for real with emulated NUMA
// penalties.
//
//   $ ./examples/word_count_pipeline [seconds]
#include <cstdio>
#include <cstdlib>

#include "apps/apps.h"
#include "apps/word_count.h"
#include "engine/observed_profiles.h"
#include "engine/runtime.h"
#include "hardware/machine_spec.h"
#include "optimizer/rlas.h"

using namespace brisk;

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 1.0;

  auto app = apps::MakeApp(apps::AppId::kWordCount);
  if (!app.ok()) {
    std::fprintf(stderr, "%s\n", app.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", app->topology().ToString().c_str());

  // Profile the real operators (§3.1: a one-worker engine run) and
  // show how the measurements compare with the calibrated defaults.
  engine::ProfilerConfig pcfg;
  pcfg.samples = 5000;
  auto profiled = engine::ProfileTopology(app->topology(), pcfg);
  if (profiled.ok()) {
    std::printf("\nprofiled T_e (cycles @%.1f GHz ref, mean):\n",
                pcfg.reference_ghz);
    for (const auto& [name, m] : profiled->all()) {
      const auto calibrated = app->profiles.Get(name);
      std::printf("  %-10s measured %7.0f   calibrated %7.0f\n",
                  name.c_str(), m.te_cycles,
                  calibrated.ok() ? calibrated->te_cycles : 0.0);
    }
  }

  // Optimize for the paper's Server A and inspect the plan.
  const hw::MachineSpec machine = hw::MachineSpec::ServerA();
  opt::RlasOptimizer optimizer(&machine, &app->profiles);
  auto plan = optimizer.Optimize(app->topology());
  if (!plan.ok()) {
    std::fprintf(stderr, "optimize: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("\nRLAS plan for %s (predicted %.1f M words/s):\n%s",
              machine.name().c_str(), plan->model.throughput / 1e6,
              plan->plan.ToString().c_str());

  // Execute locally: scale the plan down to what this host can run
  // (one replica per operator), keep the virtual placement, and charge
  // NUMA stalls through the emulator.
  auto local_plan = model::ExecutionPlan::CreateDefault(
      app->topology_ptr.get());
  if (!local_plan.ok()) return 1;
  local_plan->PlaceAllOn(0);
  local_plan->SetSocket(3, 1);  // counter on a remote socket: see the cost

  hw::NumaEmulator numa(machine);
  engine::EngineConfig config = engine::EngineConfig::Brisk();
  config.numa_emulation = true;
  auto runtime = engine::BriskRuntime::Create(app->topology_ptr.get(),
                                              *local_plan, config, &numa);
  if (!runtime.ok()) {
    std::fprintf(stderr, "deploy: %s\n",
                 runtime.status().ToString().c_str());
    return 1;
  }
  auto stats = (*runtime)->RunFor(seconds);
  if (!stats.ok()) return 1;

  const Histogram latency = app->telemetry->LatencySnapshot();
  std::printf(
      "\nlocal run (%.2f s, counter remote via emulated NUMA): "
      "%llu words counted (%.0f/s),\n  end-to-end p50 %.2f ms, p99 %.2f "
      "ms\n",
      stats->duration_s,
      static_cast<unsigned long long>(app->telemetry->count()),
      app->telemetry->count() / stats->duration_s,
      latency.Percentile(0.5) / 1e6, latency.Percentile(0.99) / 1e6);
  return 0;
}
