// bench_e2e: runs the end-to-end benchmark.
//
//   bench_e2e --workload <name|all> --seed <n> [--seconds <s>]
//             [--trace <trace.json>] [--out <result.json>]
//             [--tmpdir <dir>] [--benchmark <BENCHMARK.json>]
//   bench_e2e --self-test
//
// One workload runs in this process; "all" runs every workload, each in
// a fresh child process of this binary. Every metric is printed by
// name with its unit; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the metrics
// BENCHMARK.json lists — its end_to_end list for an untraced run, its
// per_layer list for a traced one (--trace). --out writes the full
// result (every metric, the per-operator ledger, the host fingerprint).
//
// Exit codes: 0 correct; 1 outputs differ from the reference or a
// checkpoint/drain failed; 2 usage; 3 the run itself failed.
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "report.h"

extern char** environ;

namespace brisk::e2e {

int RunSelfTest();  // self_test.cc

namespace {

struct Args {
  std::string workload = "all";
  RunOptions run;
  std::string out;
  std::string benchmark = "BENCHMARK.json";
  bool self_test = false;
};

int Usage(const std::string& error) {
  std::cerr << "bench_e2e: " << error << "\n"
            << "usage: bench_e2e --workload <name|all> --seed <n> "
               "[--seconds <s>] [--trace <file>] [--out <file>] "
               "[--tmpdir <dir>] [--benchmark <file>]\n"
            << "       bench_e2e --self-test\nworkloads:";
  for (const Workload& w : Workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->run.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->run.seconds = std::strtod(value.c_str(), &end);
      if (args->run.seconds < 2.0) {
        *error = "--seconds must be at least 2";
        return false;
      }
    } else if (flag == "--trace") {
      args->run.trace_path = value;
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--tmpdir") {
      args->run.tmpdir = value;
    } else if (flag == "--benchmark") {
      args->benchmark = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad number for " + flag + ": " + value;
      return false;
    }
  }
  return true;
}

/// Metric names (and units) BENCHMARK.json lists for this kind of run.
StatusOr<std::vector<std::pair<std::string, std::string>>> ListedMetrics(
    const std::string& path, bool traced) {
  BRISK_ASSIGN_OR_RETURN(Json doc, ReadJsonFile(path));
  const Json* list = doc.Find(traced ? "per_layer" : "end_to_end");
  if (list == nullptr || list->type != Json::Type::kArray) {
    return Status::InvalidArgument(path + " lists no metrics for this run");
  }
  std::vector<std::pair<std::string, std::string>> out;
  for (const Json& m : list->items) {
    const Json* name = m.Find("name");
    const Json* unit = m.Find("unit");
    if (name == nullptr || unit == nullptr) {
      return Status::InvalidArgument(path + ": metric without name/unit");
    }
    out.emplace_back(name->str, unit->str);
  }
  return out;
}

Json MetricJson(double value, const std::string& unit) {
  Json m = Json::Object();
  m.Set("value", value);
  m.Set("unit", unit);
  return m;
}

int RunOne(const Workload& workload, const Args& args) {
  const bool traced = !args.run.trace_path.empty();
  auto listed = ListedMetrics(args.benchmark, traced);
  if (!listed.ok()) {
    std::cerr << "bench_e2e: " << listed.status().ToString() << "\n";
    return 3;
  }
  auto run = RunWorkload(workload, args.run);
  if (!run.ok()) {
    std::cerr << "bench_e2e: " << workload.name << ": "
              << run.status().ToString() << "\n";
    return 3;
  }
  const WorkloadResult& r = *run;

  std::cout << "# bench_e2e " << workload.name << " seed=" << args.run.seed
            << " seconds=" << args.run.seconds
            << " trace=" << (traced ? args.run.trace_path : "off") << "\n";
  Json metrics_all = Json::Object();
  for (const Metric& m : r.metrics) {
    std::cout << "metric " << m.name << " " << Json(m.value).Dump() << " "
              << m.unit << "\n";
    metrics_all.Set(m.name, MetricJson(m.value, m.unit));
  }
  Json ops = Json::Array();
  for (const OpCost& c : r.ops) {
    std::cout << "op " << c.name << " tuples_in=" << c.tuples_in
              << " ns_per_tuple=" << c.ns_per_tuple
              << " busy_share=" << c.busy_share
              << " bp_parks_per_ktuple=" << c.bp_parks_per_ktuple << "\n";
    Json o = Json::Object();
    o.Set("name", c.name);
    o.Set("tuples_in", c.tuples_in);
    o.Set("ns_per_tuple", c.ns_per_tuple);
    o.Set("busy_share", c.busy_share);
    o.Set("bp_parks_per_ktuple", c.bp_parks_per_ktuple);
    ops.Push(std::move(o));
  }
  Json notes = Json::Array();
  for (const std::string& n : r.notes) {
    std::cout << "note " << n << "\n";
    notes.Push(n);
  }
  std::cout << "correct " << (r.correct() ? "true" : "false") << " attempted "
            << r.attempted << " failed " << r.failed << " error_rate "
            << r.error_rate() << "\n";

  Json metrics = Json::Object();
  for (const auto& [name, unit] : *listed) {
    const Metric* m = r.Find(name);
    if (m == nullptr || m->unit != unit) {
      std::cerr << "bench_e2e: " << workload.name << " produced no metric "
                << name << " in " << unit << "\n";
      return 3;
    }
    metrics.Set(name, MetricJson(m->value, unit));
  }

  if (!args.out.empty()) {
    Json fingerprint = HostFingerprint();
    fingerprint.Set("seed", args.run.seed);
    Json phases = Json::Object();
    phases.Set("seconds", args.run.seconds);
    phases.Set("rounds_per_phase", args.run.rounds());
    phases.Set("windows_per_round", RunOptions::kWindowsPerRound);
    phases.Set("window_s", RunOptions::kWindowS);
    phases.Set("first_warmup_s", RunOptions::kFirstWarmupS);
    phases.Set("warmup_s", RunOptions::kWarmupS);
    phases.Set("settle_s", RunOptions::kSettleS);
    phases.Set("events_per_replica", args.run.events_per_replica);
    fingerprint.Set("phases", std::move(phases));

    Json doc = Json::Object();
    doc.Set("workload", workload.name);
    doc.Set("machine", workload.machine_name);
    doc.Set("traced", traced);
    doc.Set("fingerprint", std::move(fingerprint));
    doc.Set("correct", r.correct());
    doc.Set("attempted", r.attempted);
    doc.Set("failed", r.failed);
    doc.Set("error_rate", r.error_rate());
    doc.Set("metrics", std::move(metrics_all));
    doc.Set("ops", std::move(ops));
    Json samples = Json::Object();
    for (const auto& [name, values] : r.samples) {
      Json list = Json::Array();
      for (const double v : values) list.Push(v);
      samples.Set(name, std::move(list));
    }
    doc.Set("samples", std::move(samples));
    doc.Set("notes", std::move(notes));
    const Status written = WriteTextFile(args.out, doc.Dump() + "\n");
    if (!written.ok()) {
      std::cerr << "bench_e2e: " << written.ToString() << "\n";
      return 3;
    }
  }

  Json line = Json::Object();
  line.Set("correct", r.correct());
  line.Set("attempted", r.attempted);
  line.Set("failed", r.failed);
  line.Set("metrics", std::move(metrics));
  std::cout << line.Dump() << std::endl;
  return r.exit_code();
}

/// `path` with "-<workload>" inserted before its extension.
std::string PerWorkload(const std::string& path, const std::string& workload) {
  if (path.empty()) return path;
  const std::filesystem::path p(path);
  return (p.parent_path() /
          (p.stem().string() + "-" + workload + p.extension().string()))
      .string();
}

/// Runs every workload in a fresh child process of this binary.
int RunAll(const Args& args) {
  int worst = 0;
  for (const Workload& w : Workloads()) {
    std::vector<std::string> argv_s = {
        "/proc/self/exe", "--workload", w.name, "--seed",
        std::to_string(args.run.seed), "--seconds",
        Json(args.run.seconds).Dump(), "--tmpdir", args.run.tmpdir,
        "--benchmark", args.benchmark};
    if (!args.run.trace_path.empty()) {
      argv_s.push_back("--trace");
      argv_s.push_back(PerWorkload(args.run.trace_path, w.name));
    }
    if (!args.out.empty()) {
      argv_s.push_back("--out");
      argv_s.push_back(PerWorkload(args.out, w.name));
    }
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    std::cout.flush();
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
      std::cerr << "bench_e2e: cannot spawn the " << w.name << " run\n";
      return 3;
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) return 3;
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 3;
    worst = std::max(worst, code);
  }
  return worst;
}

}  // namespace
}  // namespace brisk::e2e

int main(int argc, char** argv) {
  using namespace brisk::e2e;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error);
  if (args.self_test) return RunSelfTest();
  if (args.workload == "all") return RunAll(args);
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) return Usage("unknown workload " + args.workload);
  return RunOne(*workload, args);
}
