// NUMA penalty emulation for the real multithreaded engine.
//
// This repo runs on single-socket hardware, so genuine remote-memory
// latencies are unavailable. The emulator charges Formula 2's per-tuple
// fetch cost as a calibrated busy-wait: when a consumer placed on
// (virtual) socket j pops a batch produced on socket i != j, it spins
// for ceil(N/S) * L(i,j) ns before processing each tuple — the same
// stall pattern a dependent remote cache-line walk produces. README,
// "Hardware substitution", documents this substitution.
#pragma once

#include <chrono>
#include <cstdint>

#include "hardware/machine_spec.h"

namespace brisk::hw {

/// Spins the calling thread for approximately `ns` nanoseconds.
/// Accurate to ~tens of ns for the sub-microsecond stalls we emulate;
/// intentionally burns cycles (a remote fetch stalls the core too).
void SpinForNs(int64_t ns);

/// Per-edge NUMA fetch-delay injector.
class NumaEmulator {
 public:
  explicit NumaEmulator(const MachineSpec& machine, bool enabled = true)
      : machine_(machine), enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Charges the remote-fetch stall for one tuple of `tuple_bytes`
  /// crossing from socket `from` to socket `to`. No-op when collocated
  /// or disabled.
  void ChargeFetch(int from, int to, double tuple_bytes) const {
    if (!enabled_ || from == to || from < 0 || to < 0) return;
    SpinForNs(static_cast<int64_t>(
        machine_.FetchCostNs(from, to, tuple_bytes)));
  }

  const MachineSpec& machine() const { return machine_; }

 private:
  MachineSpec machine_;
  bool enabled_;
};

}  // namespace brisk::hw
