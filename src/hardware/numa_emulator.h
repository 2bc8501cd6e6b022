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

/// The emulated machine whose Formula-2 fetch costs the engine charges.
/// Whether a run charges them is EngineConfig::numa_emulation's call:
/// Task::Consume spins only when that is set and an emulator was
/// passed to BriskRuntime::Create.
class NumaEmulator {
 public:
  explicit NumaEmulator(const MachineSpec& machine) : machine_(machine) {}

  const MachineSpec& machine() const { return machine_; }

 private:
  MachineSpec machine_;
};

}  // namespace brisk::hw
