// Figure 6 — Throughput speedup of BriskStream over Storm and Flink.
//
// Paper (Server A, 8 sockets): Brisk/Storm = 20.2 (WC), 4.6 (FD),
// 3.2 (SD), 18.7 (LR); Brisk/Flink = 11.2, 8.4, 2.8, 12.8.
// The legacy systems here are priced by their operator profiles
// (apps::ProfilesFor: serialization, per-tuple headers, bigger
// instruction footprints) and planned without RLAS (README, "Hardware
// substitution"); the expected reproduction is the *shape*:
// order-of-magnitude wins on WC/LR, smaller wins on FD/SD where the
// operator function dominates per-tuple cost.
#include <cstdio>

#include "bench_util.h"
#include "optimizer/fusion.h"

using namespace brisk;

int main() {
  bench::Banner("Figure 6", "throughput speedup over Storm/Flink, Server A");
  const hw::MachineSpec machine = hw::MachineSpec::ServerA();

  const std::vector<int> widths = {22, 10, 10, 10, 10};
  bench::PrintRule(widths);
  bench::PrintRow({"K events/s", "WC", "FD", "SD", "LR"}, widths);
  bench::PrintRule(widths);

  std::vector<std::vector<std::string>> rows(7);
  rows[0] = {"BriskStream"};
  rows[1] = {"Brisk (compiled)"};
  rows[2] = {"Storm"};
  rows[3] = {"Flink"};
  rows[4] = {"BriskStream/Storm"};
  rows[5] = {"BriskStream/Flink"};
  rows[6] = {"Compiled/Storm"};

  for (const auto app : apps::kAllApps) {
    double tput[3] = {0, 0, 0};
    const apps::SystemKind kinds[] = {apps::SystemKind::kBrisk,
                                      apps::SystemKind::kStormLike,
                                      apps::SystemKind::kFlinkLike};
    for (int k = 0; k < 3; ++k) {
      auto run = bench::RunSystem(app, machine, kinds[k]);
      if (!run.ok()) {
        std::fprintf(stderr, "%s/%s: %s\n", apps::AppName(app),
                     apps::SystemName(kinds[k]),
                     run.status().ToString().c_str());
        return 1;
      }
      tput[k] = run->sim.throughput_tps;
    }
    auto compiled = bench::RunBriskCompiled(app, machine);
    if (!compiled.ok()) {
      std::fprintf(stderr, "%s/compiled: %s\n", apps::AppName(app),
                   compiled.status().ToString().c_str());
      return 1;
    }
    const double tput_compiled = compiled->sim.throughput_tps;
    rows[0].push_back(bench::Keps(tput[0]));
    rows[1].push_back(bench::Keps(tput_compiled));
    rows[2].push_back(bench::Keps(tput[1]));
    rows[3].push_back(bench::Keps(tput[2]));
    char s1[32], s2[32], s3[32];
    std::snprintf(s1, sizeof(s1), "%.1fx", tput[0] / tput[1]);
    std::snprintf(s2, sizeof(s2), "%.1fx", tput[0] / tput[2]);
    std::snprintf(s3, sizeof(s3), "%.1fx", tput_compiled / tput[1]);
    rows[4].push_back(s1);
    rows[5].push_back(s2);
    rows[6].push_back(s3);
  }
  for (const auto& row : rows) bench::PrintRow(row, widths);
  bench::PrintRule(widths);
  std::printf(
      "Paper (Fig. 6): Brisk/Storm 20.2 / 4.6 / 3.2 / 18.7; "
      "Brisk/Flink 11.2 / 8.4 / 2.8 / 12.8\n  (WC/LR an order of "
      "magnitude, FD/SD a few x).\n"
      "'Brisk (compiled)' adds auto-fusion with compiled pipelines "
      "(kernel-backed\n  chains priced at the measured x%.2f per-tuple "
      "ratio from bench_pipeline);\n  apps without kernel chains match "
      "plain BriskStream.\n",
      opt::kMeasuredCompiledTeDiscount);
  return 0;
}
