// Real-hardware NUMA topology detection.
//
// Everything upstream of this file reasons about *plan* sockets — the
// virtual machine the RLAS optimizer placed operators on. This module
// answers the other question: what does the host actually look like?
// Detection parses /sys/devices/system/node/node*/cpulist and degrades
// to a flat single-node view of std::thread::hardware_concurrency()
// everywhere else — so plans execute on real multi-socket boxes with
// node-aware worker pinning, and identically (minus the pinning) on
// laptops and CI.
#pragma once

#include <string>
#include <vector>

namespace brisk::hw {

struct HostTopology {
  /// Memory nodes; >= 1. node_cpus[n] lists the logical CPUs of node n
  /// (possibly empty for a memory-only node).
  int nodes = 1;
  std::vector<std::vector<int>> node_cpus;

  /// True only when more than one memory node was actually detected —
  /// the gate for node-aware pinning.
  bool real = false;

  /// Where the answer came from: "sysfs" or "flat".
  std::string source = "flat";

  int total_cpus() const {
    size_t n = 0;
    for (const auto& cpus : node_cpus) n += cpus.size();
    return n > 0 ? static_cast<int>(n) : 1;
  }

  /// CPUs of `node` (modulo the node count, so plan sockets beyond the
  /// host map round-robin); empty only for a CPU-less node.
  const std::vector<int>& CpusOfNode(int node) const {
    static const std::vector<int> kNone;
    if (node_cpus.empty()) return kNone;
    return node_cpus[static_cast<size_t>(node) % node_cpus.size()];
  }
};

/// Parses the kernel's cpulist format ("0-3,8,10-11"); malformed
/// pieces, and pieces naming an implausibly large CPU id, are skipped.
/// Exposed for unit tests.
std::vector<int> ParseCpuList(const std::string& text);

/// Probes once per call (callers cache the result; the runtime detects
/// it once at Create).
HostTopology DetectHostTopology();

}  // namespace brisk::hw
