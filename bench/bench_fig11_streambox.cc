// Figure 11 — BriskStream vs StreamBox on WC with growing core counts
// (2 .. 144 cores = up to 8 sockets of Server A).
//
// Paper: BriskStream wins at every core count; StreamBox — even with
// ordering disabled — flattens past one socket because of (1) its
// centralized locked scheduler and (2) remote misses from data
// shuffling. Reproduction strategy (README, "Hardware substitution"):
// BriskStream points come from RLAS + simulation at each core budget;
// StreamBox points come from its contention model calibrated against
// the real morsel-driven engine in src/streambox (which also runs
// here, on this host's cores, as a functional check).
#include <cstdio>

#include "bench_util.h"
#include "streambox/streambox.h"

using namespace brisk;

int main() {
  bench::Banner("Figure 11", "BriskStream vs StreamBox, WC (K events/s)");
  const hw::MachineSpec full = hw::MachineSpec::ServerA();

  // Calibrate the StreamBox model's per-record work from a real run of
  // the morsel-driven engine on this host (single worker: no
  // contention, no remote misses).
  streambox::StreamBoxConfig sb_cfg;
  sb_cfg.num_workers = 1;
  sb_cfg.ordered = true;
  auto calibration = streambox::MakeWordCountStreamBox(sb_cfg).Run(0.4);
  if (!calibration.ok()) {
    std::fprintf(stderr, "%s\n", calibration.status().ToString().c_str());
    return 1;
  }
  const double work_ns = 1e9 / calibration->throughput_tps;
  std::printf(
      "calibration: real StreamBox engine, 1 worker: %.0f K records/s "
      "(%.0f ns/record),\n  %llu scheduler lock acquisitions\n",
      calibration->throughput_tps / 1e3, work_ns,
      static_cast<unsigned long long>(calibration->scheduler_acquisitions));

  const std::vector<int> widths = {8, 14, 14, 16};
  bench::PrintRule(widths);
  bench::PrintRow({"cores", "BriskStream", "StreamBox", "StreamBox(ooo)"},
                  widths);
  bench::PrintRule(widths);

  const int kCores[] = {2, 4, 8, 16, 32, 72, 144};
  for (const int cores : kCores) {
    // BriskStream: RLAS with a replica budget of `cores` on however
    // many sockets that needs.
    const int sockets =
        std::min(8, (cores + full.cores_per_socket() - 1) /
                        full.cores_per_socket());
    auto m = full.Truncated(sockets);
    if (!m.ok()) return 1;
    auto bundle = apps::MakeApp(apps::AppId::kWordCount);
    if (!bundle.ok()) return 1;
    opt::RlasOptions options;
    options.placement.compress_ratio = 5;
    options.max_total_replicas = cores;
    opt::RlasOptimizer optimizer(&*m, &bundle->profiles, options);
    auto rlas = optimizer.Optimize(bundle->topology());
    if (!rlas.ok()) {
      std::fprintf(stderr, "rlas@%d: %s\n", cores,
                   rlas.status().ToString().c_str());
      return 1;
    }
    auto brisk = bench::MeasuredThroughput(*m, bundle->profiles, rlas->plan);
    if (!brisk.ok()) return 1;

    // StreamBox: contention model calibrated above. Scheduler critical
    // section ~600 ns (lock + queue scan); shuffle RMA ~ one max-hop
    // line fetch per record once sockets are spanned.
    const double sched_ns = 600.0;
    const double shuffle_rma = full.LatencyNs(0, 4);
    const double sb = streambox::StreamBoxModelThroughput(
        cores, full.cores_per_socket(), work_ns, sched_ns, shuffle_rma,
        sb_cfg.morsel_size, /*ordered=*/true);
    const double sb_ooo = streambox::StreamBoxModelThroughput(
        cores, full.cores_per_socket(), work_ns, sched_ns, shuffle_rma,
        sb_cfg.morsel_size, /*ordered=*/false);

    bench::PrintRow({std::to_string(cores), bench::Keps(*brisk),
                     bench::Keps(sb), bench::Keps(sb_ooo)},
                    widths);
  }
  bench::PrintRule(widths);
  std::printf(
      "Paper (Fig. 11): BriskStream above StreamBox at every core count "
      "(471.2 K/s for\n  StreamBox-ordered at 144 cores); the "
      "out-of-order variant is competitive at\n  small counts but "
      "flattens across sockets. Same shape expected here.\n");
  return 0;
}
