// Table 2 — Characteristics of the two evaluation servers.
//
// Prints the modeled machines (README, "Hardware substitution"):
// the latency/bandwidth matrices RLAS optimizes against, built from the
// paper's published numbers.
#include <cstdio>

#include "bench_util.h"

using namespace brisk;

namespace {

void PrintMachine(const hw::MachineSpec& m) {
  std::printf("\n%s\n", m.ToString().c_str());
  std::printf("  1-hop latency  : %.1f ns\n", m.LatencyNs(0, 1));
  std::printf("  max-hop latency: %.1f ns\n", m.LatencyNs(0, 7));
  std::printf("  1-hop B/W      : %.1f GB/s\n", m.ChannelBandwidthGbps(0, 1));
  std::printf("  max-hop B/W    : %.1f GB/s\n", m.ChannelBandwidthGbps(0, 7));
  std::printf("  total local B/W: %.1f GB/s\n",
              m.local_bandwidth_gbps() * m.num_sockets());
}

}  // namespace

int main() {
  bench::Banner("Table 2", "modeled server characteristics");
  PrintMachine(hw::MachineSpec::ServerA());
  PrintMachine(hw::MachineSpec::ServerB());
  std::printf(
      "\nPaper (Table 2): Server A local 50 ns / 307.7 / 548.0; "
      "54.3 / 13.2 / 5.8 GB/s.\n  Server B local 50 ns / 185.2 / 349.6; "
      "24.2 / 10.6 / 10.8 GB/s.\n");
  return 0;
}
