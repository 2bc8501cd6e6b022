// briskadm — command-line front end to the library, the workflow an
// operator would script against:
//
//   briskadm machines
//       print the built-in machine descriptions
//   briskadm plan <wc|fd|sd|lr> [--machine a|b] [--sockets N] [--ratio R]
//                 [--save <file>]
//       run RLAS and print the execution plan + predicted throughput;
//       --save writes the plan in the brisk-plan v1 text format
//       (model/plan_io.h), for inspection or diffing
//   briskadm simulate <wc|fd|sd|lr> [--machine a|b] [--sockets N]
//       plan, then "measure" by discrete-event simulation
//   briskadm profile <wc|fd|sd|lr>
//       profile the real operators on this host: a one-worker engine
//       run measures T_e, N, M and per-stream selectivity (§3.1)
//   briskadm baselines <wc|fd|sd|lr> [--machine a|b]
//       compare RLAS against OS / FF / RR placements
#include <cstdio>
#include <cstring>
#include <string>

#include "apps/apps.h"
#include "engine/observed_profiles.h"
#include "hardware/machine_spec.h"
#include "model/perf_model.h"
#include "model/plan_io.h"
#include "optimizer/baselines.h"
#include "optimizer/rlas.h"
#include "sim/simulator.h"

using namespace brisk;

namespace {

struct Args {
  std::string command;
  std::string app;
  char machine = 'a';
  int sockets = 8;
  int ratio = 5;
  std::string save_path;
};

StatusOr<Args> Parse(int argc, char** argv) {
  Args args;
  if (argc < 2) return Status::InvalidArgument("missing command");
  args.command = argv[1];
  int i = 2;
  if (args.command != "machines") {
    if (argc < 3) return Status::InvalidArgument("missing application");
    args.app = argv[2];
    i = 3;
  }
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    auto need_value = [&]() -> StatusOr<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(flag + " needs a value");
      }
      return std::string(argv[++i]);
    };
    if (flag == "--machine") {
      BRISK_ASSIGN_OR_RETURN(std::string v, need_value());
      if (v != "a" && v != "b") {
        return Status::InvalidArgument("--machine must be a or b");
      }
      args.machine = v[0];
    } else if (flag == "--sockets") {
      BRISK_ASSIGN_OR_RETURN(std::string v, need_value());
      args.sockets = std::atoi(v.c_str());
    } else if (flag == "--ratio") {
      BRISK_ASSIGN_OR_RETURN(std::string v, need_value());
      args.ratio = std::atoi(v.c_str());
    } else if (flag == "--save") {
      BRISK_ASSIGN_OR_RETURN(args.save_path, need_value());
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  return args;
}

StatusOr<apps::AppId> AppFromName(const std::string& name) {
  if (name == "wc") return apps::AppId::kWordCount;
  if (name == "fd") return apps::AppId::kFraudDetection;
  if (name == "sd") return apps::AppId::kSpikeDetection;
  if (name == "lr") return apps::AppId::kLinearRoad;
  return Status::InvalidArgument("unknown app '" + name +
                                 "' (expected wc|fd|sd|lr)");
}

StatusOr<hw::MachineSpec> MachineFromArgs(const Args& args) {
  const hw::MachineSpec full = args.machine == 'a'
                                   ? hw::MachineSpec::ServerA()
                                   : hw::MachineSpec::ServerB();
  return full.Truncated(args.sockets);
}

Status CmdMachines() {
  std::printf("%s\n%s\n", hw::MachineSpec::ServerA().ToString().c_str(),
              hw::MachineSpec::ServerB().ToString().c_str());
  return Status::OK();
}

StatusOr<opt::RlasResult> PlanApp(const Args& args,
                                  apps::AppBundle* bundle_out,
                                  hw::MachineSpec* machine_out) {
  BRISK_ASSIGN_OR_RETURN(apps::AppId id, AppFromName(args.app));
  BRISK_ASSIGN_OR_RETURN(*bundle_out, apps::MakeApp(id));
  BRISK_ASSIGN_OR_RETURN(*machine_out, MachineFromArgs(args));
  opt::RlasOptions options;
  options.placement.compress_ratio = args.ratio;
  opt::RlasOptimizer optimizer(machine_out, &bundle_out->profiles, options);
  return optimizer.Optimize(bundle_out->topology());
}

Status CmdPlan(const Args& args) {
  apps::AppBundle bundle;
  hw::MachineSpec machine;
  BRISK_ASSIGN_OR_RETURN(opt::RlasResult plan,
                         PlanApp(args, &bundle, &machine));
  std::printf("%s on %s (compress r=%d)\n", bundle.name.c_str(),
              machine.name().c_str(), plan.compress_ratio);
  std::printf("%s", plan.plan.ToString().c_str());
  std::printf(
      "predicted throughput %.1f K events/s | %d scaling iterations, "
      "%llu B&B nodes, %.2f s\n",
      plan.model.throughput / 1e3, plan.scaling_iterations,
      static_cast<unsigned long long>(plan.nodes_explored),
      plan.optimize_seconds);
  if (!args.save_path.empty()) {
    std::FILE* f = std::fopen(args.save_path.c_str(), "w");
    if (f == nullptr) {
      return Status::Internal("cannot open " + args.save_path);
    }
    const std::string text = model::SerializePlan(plan.plan);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("plan saved to %s\n", args.save_path.c_str());
  }
  return Status::OK();
}

Status CmdSimulate(const Args& args) {
  apps::AppBundle bundle;
  hw::MachineSpec machine;
  BRISK_ASSIGN_OR_RETURN(opt::RlasResult plan,
                         PlanApp(args, &bundle, &machine));
  sim::SimConfig cfg;
  cfg.duration_s = 0.1;
  BRISK_ASSIGN_OR_RETURN(
      sim::SimResult sim,
      sim::Simulate(machine, bundle.profiles, plan.plan, cfg));
  std::printf("%s on %s\n", bundle.name.c_str(), machine.name().c_str());
  std::printf("  estimated : %10.1f K events/s (performance model)\n",
              plan.model.throughput / 1e3);
  std::printf("  measured  : %10.1f K events/s (simulation, %.0f ms)\n",
              sim.throughput_tps / 1e3, cfg.duration_s * 1e3);
  std::printf("  latency   : p50 %.2f ms, p99 %.2f ms\n",
              sim.latency_ns.Percentile(0.5) / 1e6,
              sim.latency_ns.Percentile(0.99) / 1e6);
  return Status::OK();
}

Status CmdProfile(const Args& args) {
  BRISK_ASSIGN_OR_RETURN(apps::AppId id, AppFromName(args.app));
  BRISK_ASSIGN_OR_RETURN(apps::AppBundle bundle, apps::MakeApp(id));
  engine::ProfilerConfig cfg;
  cfg.samples = 10000;
  BRISK_ASSIGN_OR_RETURN(model::ProfileSet profiles,
                         engine::ProfileTopology(bundle.topology(), cfg));
  std::printf("profiled %s on this host (%d spout tuples on one worker, "
              "mean cycles at %.1f GHz reference):\n",
              bundle.name.c_str(), cfg.samples, cfg.reference_ghz);
  std::printf("  %-16s %10s %10s  %s\n", "operator", "te", "M bytes",
              "selectivity / N bytes per output stream");
  for (const auto& op : bundle.topology().ops()) {
    BRISK_ASSIGN_OR_RETURN(model::OperatorProfile p, profiles.Get(op.name));
    std::printf("  %-16s %10.0f %10.1f ", op.name.c_str(), p.te_cycles,
                p.m_bytes);
    for (size_t s = 0; s < p.selectivity.size(); ++s) {
      std::printf(" %s %.4f / %.1f", op.output_streams[s].c_str(),
                  p.selectivity[s], p.output_bytes[s]);
    }
    std::printf("\n");
  }
  return Status::OK();
}

Status CmdBaselines(const Args& args) {
  apps::AppBundle bundle;
  hw::MachineSpec machine;
  BRISK_ASSIGN_OR_RETURN(opt::RlasResult plan,
                         PlanApp(args, &bundle, &machine));
  model::PerfModel model(&machine, &bundle.profiles);
  auto eval = [&](const model::ExecutionPlan& p) -> double {
    auto r = model.Evaluate(p, 1e12);
    return r.ok() ? r->throughput : -1.0;
  };
  BRISK_ASSIGN_OR_RETURN(model::ExecutionPlan os,
                         opt::PlaceOsDefault(machine, plan.plan));
  BRISK_ASSIGN_OR_RETURN(model::ExecutionPlan ff,
                         opt::PlaceFirstFit(model, plan.plan, 1e12));
  BRISK_ASSIGN_OR_RETURN(model::ExecutionPlan rr,
                         opt::PlaceRoundRobin(machine, plan.plan));
  std::printf("%s on %s — model-valued throughput (K events/s):\n",
              bundle.name.c_str(), machine.name().c_str());
  std::printf("  RLAS : %10.1f\n", plan.model.throughput / 1e3);
  std::printf("  OS   : %10.1f\n", eval(os) / 1e3);
  std::printf("  FF   : %10.1f\n", eval(ff) / 1e3);
  std::printf("  RR   : %10.1f\n", eval(rr) / 1e3);
  return Status::OK();
}

void Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  briskadm machines\n"
      "  briskadm plan      <wc|fd|sd|lr> [--machine a|b] [--sockets N] "
      "[--ratio R] [--save <file>]\n"
      "  briskadm simulate  <wc|fd|sd|lr> [--machine a|b] [--sockets N]\n"
      "  briskadm profile   <wc|fd|sd|lr>\n"
      "  briskadm baselines <wc|fd|sd|lr> [--machine a|b] [--sockets N]\n");
}

}  // namespace

int main(int argc, char** argv) {
  auto args = Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    Usage();
    return 2;
  }
  Status st;
  if (args->command == "machines") {
    st = CmdMachines();
  } else if (args->command == "plan") {
    st = CmdPlan(*args);
  } else if (args->command == "simulate") {
    st = CmdSimulate(*args);
  } else if (args->command == "profile") {
    st = CmdProfile(*args);
  } else if (args->command == "baselines") {
    st = CmdBaselines(*args);
  } else {
    std::fprintf(stderr, "error: unknown command '%s'\n",
                 args->command.c_str());
    Usage();
    return 2;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
