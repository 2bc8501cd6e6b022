#include "hardware/topology.h"

#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

namespace brisk::hw {

namespace {

/// Largest CPU id a cpulist piece may name: above any kernel's NR_CPUS.
constexpr long kMaxCpuId = 65535;

HostTopology FlatTopology() {
  HostTopology topo;
  topo.nodes = 1;
  topo.real = false;
  topo.source = "flat";
  const unsigned hc = std::thread::hardware_concurrency();
  std::vector<int> cpus(hc > 0 ? hc : 1);
  std::iota(cpus.begin(), cpus.end(), 0);
  topo.node_cpus.push_back(std::move(cpus));
  return topo;
}

bool DetectViaSysfs(HostTopology* topo) {
  // Nodes are numbered densely from 0; stop at the first gap. The 4096
  // bound is the kernel's own MAX_NUMNODES ceiling.
  for (int node = 0; node < 4096; ++node) {
    std::ifstream in("/sys/devices/system/node/node" +
                     std::to_string(node) + "/cpulist");
    if (!in.good()) break;
    std::string line;
    std::getline(in, line);
    topo->node_cpus.push_back(ParseCpuList(line));
  }
  if (topo->node_cpus.empty()) return false;
  topo->nodes = static_cast<int>(topo->node_cpus.size());
  topo->real = topo->nodes > 1;
  topo->source = "sysfs";
  return true;
}

}  // namespace

std::vector<int> ParseCpuList(const std::string& text) {
  std::vector<int> cpus;
  std::stringstream ss(text);
  std::string piece;
  while (std::getline(ss, piece, ',')) {
    if (piece.empty()) continue;
    char* end = nullptr;
    const long lo = std::strtol(piece.c_str(), &end, 10);
    if (end == piece.c_str() || lo < 0) continue;  // malformed piece
    long hi = lo;
    if (*end == '-') {
      const char* hi_begin = end + 1;
      hi = std::strtol(hi_begin, &end, 10);
      if (end == hi_begin || hi < lo) continue;
    }
    if (hi > kMaxCpuId) continue;
    for (long cpu = lo; cpu <= hi; ++cpu) {
      cpus.push_back(static_cast<int>(cpu));
    }
  }
  return cpus;
}

HostTopology DetectHostTopology() {
  HostTopology topo;
  if (DetectViaSysfs(&topo)) return topo;
  return FlatTopology();
}

}  // namespace brisk::hw
