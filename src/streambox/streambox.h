// StreamBox-like morsel-driven comparator engine (Fig. 11, §6.3).
//
// StreamBox [Miao et al., ATC'17] executes a pipeline by having a pool
// of workers pull "morsels" (record batches tagged with their pipeline
// stage) from a centralized, lock-protected scheduler. That design
// trades pipeline parallelism for lower per-operator communication —
// and its two scaling limiters, which the paper measures, are exactly
// what this implementation reproduces for real:
//   1. the centralized task queue with locking primitives, which
//      serializes scheduling as core counts grow;
//   2. state shuffling (e.g. WC's word -> counter partitioning) through
//      lock-guarded containers, which adds contention (and, on real
//      NUMA hardware, remote misses).
// An optional epoch-ordering mode reproduces StreamBox's
// order-guaranteeing containers; disabling it gives the paper's
// "StreamBox (out-of-order)" variant.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"

namespace brisk::streambox {

/// A batch of records at a given pipeline stage.
struct Morsel {
  int stage = 0;
  uint64_t epoch = 0;  ///< ordering domain (ordered mode)
  std::vector<Tuple> records;
};

/// One pipeline stage: transforms a morsel's records into zero or more
/// output records (which the engine wraps into next-stage morsels).
/// Must be thread-safe: any worker may run any stage at any time, so
/// shared state needs its own locking (that contention is the point).
using StageFn =
    std::function<void(const Morsel& in, std::vector<Tuple>* out)>;

struct StreamBoxConfig {
  int num_workers = 4;
  int morsel_size = 256;
  /// Epoch-ordered processing (StreamBox's default): stage s admits
  /// epoch e only after e-1 completed at s. Off = out-of-order variant.
  bool ordered = true;
  /// Bound on pending morsels before the source throttles.
  size_t max_pending = 4096;
};

struct StreamBoxStats {
  uint64_t records_processed = 0;  ///< records through the final stage
  double duration_s = 0.0;
  double throughput_tps = 0.0;
  uint64_t scheduler_acquisitions = 0;
};

/// The engine: construct with a source + stages, then Run for a
/// wall-clock duration.
class StreamBoxEngine {
 public:
  /// `source` fills a morsel's records (stage 0 input); `stages[i]`
  /// processes stage i and feeds stage i+1; the last stage's output
  /// count is the measured throughput.
  StreamBoxEngine(std::function<void(std::vector<Tuple>*)> source,
                  std::vector<StageFn> stages, StreamBoxConfig config)
      : source_(std::move(source)),
        stages_(std::move(stages)),
        config_(config) {}

  StatusOr<StreamBoxStats> Run(double seconds);

 private:
  std::function<void(std::vector<Tuple>*)> source_;
  std::vector<StageFn> stages_;
  StreamBoxConfig config_;
};

/// Builds the WC pipeline used in Fig. 11: sentence generation ->
/// split -> hash-partitioned count (lock-guarded hash containers —
/// StreamBox's shuffle step).
StreamBoxEngine MakeWordCountStreamBox(const StreamBoxConfig& config,
                                       uint64_t seed = 11);

/// Analytic scaling curve for core counts beyond this host (README,
/// "Hardware substitution"): throughput under a centralized scheduler with
/// per-morsel critical section `sched_ns`, per-record work `work_ns`,
/// morsel size B, and per-record shuffle RMA `shuffle_rma_ns` charged
/// once workers span more than `cores_per_socket` cores.
double StreamBoxModelThroughput(int cores, int cores_per_socket,
                                double work_ns, double sched_ns,
                                double shuffle_rma_ns, int morsel_size,
                                bool ordered);

}  // namespace brisk::streambox
