// The end-to-end benchmark harness: four paper workloads driven
// through the public stack (Job::Deploy with calibrated profiles, RLAS,
// the NUMA emulator, the worker pool), measured from outside.
//
// Every number comes from calls into public functions (timed here) or
// from counters the layers already export (RunStats, TaskStats,
// ExecutorStats, RlasResult, MappingCounters, SerializeCheckpoint). The
// only code this harness puts inside a job is two decorators, both
// applied to a copy of the application topology rebuilt through
// TopologyBuilder:
//   - PacedSpout wraps each source replica: an open-loop generator
//     (paced phase) or a fixed-length cut of the source (correctness
//     phase);
//   - RecordingSink wraps each sink replica: latency from due time to
//     sink, and per-key tallies for the reference comparison.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/operator.h"
#include "api/topology.h"
#include "common/histogram.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "hardware/machine_spec.h"
#include "model/operator_profile.h"

namespace brisk::e2e {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class App { kWordCount, kSpikeDetection, kLinearRoad, kFileWordCount };

struct Workload {
  std::string name;
  App app;
  std::string machine_name;
  hw::MachineSpec machine;
  /// Pool workers per plan socket; chosen so each workload runs on
  /// exactly four engine workers.
  int workers_per_socket = 1;
  /// Open-loop input rate of the paced phase, source events/s (whole
  /// topology, split evenly across source replicas).
  double paced_rate_tps = 0.0;
  /// Checkpoint cadence while measuring; 0 = only the checkpoints
  /// every workload takes after its saturated window.
  double checkpoint_interval_s = 0.0;
  /// Sink tuples are (word, running count): each word's counts must
  /// arrive as exactly 1..n.
  bool word_sequences = false;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

struct RunOptions {
  uint64_t seed = 1;
  /// Measured seconds per run: half in the saturated phase, half in
  /// the paced phase, each half spread over fresh deployments (rounds)
  /// that each measure kWindowsPerRound windows of kWindowS.
  double seconds = 14.0;
  static constexpr double kWindowS = 0.5;
  static constexpr int kWindowsPerRound = 2;
  /// Deployments per phase. How tasks settle onto workers (the steal
  /// equilibrium) differs from one deployment to the next and then
  /// holds; the median over several deployments keeps that out of a
  /// run's number.
  int rounds() const {
    return std::max(1, static_cast<int>(std::lround(
                           seconds / (2 * kWindowsPerRound * kWindowS))));
  }
  /// Unmeasured lead-in of each saturated deployment; the process's
  /// first deployment also faults in its memory, so it gets longer.
  static constexpr double kFirstWarmupS = 1.5;
  static constexpr double kWarmupS = 0.5;
  static constexpr double kSettleS = 0.5;  ///< per paced deployment
  /// Source events per source replica in the correctness pass.
  uint64_t events_per_replica = 200000;
  /// Where the file workload writes its seeded corpus.
  std::string tmpdir = ".bench_build/tmp";
  /// Non-empty: traced run, Chrome trace-event JSON written here.
  std::string trace_path;
  /// Self-test hook: the sink decorator swallows one tuple of the
  /// checked pass, so the reference comparison must fail.
  bool drop_one_sink_tuple = false;
};

/// One freshly built application (every phase gets its own).
struct AppInstance {
  std::shared_ptr<const api::Topology> topology;
  std::shared_ptr<SinkTelemetry> telemetry;
  model::ProfileSet profiles;
};

/// Builds the workload's application through its public build
/// function. The file workload reads its seeded corpus from
/// `corpus_path`; building does not open it.
StatusOr<AppInstance> BuildApp(const Workload& workload, uint64_t seed,
                               const std::string& corpus_path);

// ---------------------------------------------------------------------------
// Source decorator
// ---------------------------------------------------------------------------

/// Open-loop schedule of one source replica: tuple k is due at
/// t0 + k / rate, whatever the engine does — so an engine stall delays
/// every later tuple's delivery, not its due time.
struct PaceSchedule {
  double rate_tps = 0.0;  ///< this replica's share of the input rate
  int64_t t0_ns = 0;

  int64_t DueNs(uint64_t k) const {
    return t0_ns + static_cast<int64_t>(static_cast<double>(k) * 1e9 /
                                        rate_tps);
  }
  /// Number of tuples due by `now_ns` (tuple 0 is due at t0).
  uint64_t DueCount(int64_t now_ns) const {
    if (now_ns < t0_ns) return 0;
    return static_cast<uint64_t>(static_cast<double>(now_ns - t0_ns) *
                                 rate_tps / 1e9) +
           1;
  }
};

/// Counters of one source replica. Single writer (the replica's
/// current worker), read by the harness thread.
struct GenStats {
  std::atomic<uint64_t> produced{0};
  /// Largest delay between a tuple's due time and its emission, while
  /// the control's `recording` flag was set.
  std::atomic<int64_t> max_lag_ns{0};
};

/// Shared by every source replica of one rebuilt topology.
class SourceControl {
 public:
  SourceControl(double rate_tps, uint64_t limit_per_replica,
                std::function<int64_t()> clock);

  double rate_tps() const { return rate_tps_; }
  uint64_t limit_per_replica() const { return limit_; }
  int64_t Now() const { return clock_(); }

  std::atomic<bool> recording{false};

  std::shared_ptr<GenStats> Register();
  size_t replicas() const;
  uint64_t Produced() const;
  double MaxLagMs() const;

 private:
  const double rate_tps_;
  const uint64_t limit_;
  const std::function<int64_t()> clock_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<GenStats>> replicas_;  // guarded by mu_
};

/// Paces (rate > 0) and/or bounds (limit > 0) one source replica.
/// Paced: emits exactly the tuples whose due time has passed, stamps
/// origin_ts_ns with the due time, and returns 0 with Exhausted() ==
/// false when nothing is due. Replay and checkpoint hooks forward to
/// the wrapped source.
class PacedSpout final : public api::Spout {
 public:
  PacedSpout(std::unique_ptr<api::Spout> inner,
             std::shared_ptr<SourceControl> control);

  Status Prepare(const api::OperatorContext& ctx) override;
  size_t NextBatch(size_t max_tuples, api::OutputCollector* out) override;
  bool Exhausted() const override { return done_; }
  bool Replayable() const override { return inner_->Replayable(); }
  api::SourcePosition Position() const override { return inner_->Position(); }
  bool Rewind(const api::SourcePosition& position) override {
    return inner_->Rewind(position);
  }
  Status CheckpointGuard() const override { return inner_->CheckpointGuard(); }

  const PaceSchedule& schedule() const { return schedule_; }

 private:
  std::unique_ptr<api::Spout> inner_;
  std::shared_ptr<SourceControl> control_;
  std::shared_ptr<GenStats> stats_;
  PaceSchedule schedule_;
  uint64_t produced_ = 0;
  bool started_ = false;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Sink decorator
// ---------------------------------------------------------------------------

/// Per-key tally of sink tuples (key = field 0).
struct KeyTally {
  uint64_t count = 0;
  /// word_sequences: bit c is set once running count c arrived; a
  /// second arrival of c is a duplicate.
  std::vector<uint64_t> seen;
  uint64_t duplicates = 0;
};
using KeyTallies = std::unordered_map<std::string, KeyTally>;

/// What one sink replica observed. Written only by that replica; read
/// by the harness after the engine joined.
struct SinkSlot {
  std::vector<Histogram> latency_ns;  ///< one per measurement window
  uint64_t tuples = 0;
  KeyTallies keys;
};

class SinkControl {
 public:
  SinkControl(int windows, bool group_keys, bool word_sequences,
              bool drop_one)
      : windows_(windows),
        group_keys_(group_keys),
        word_sequences_(word_sequences),
        drop_one_(drop_one) {}

  bool group_keys() const { return group_keys_; }
  bool word_sequences() const { return word_sequences_; }

  /// Measurement window that latency samples arriving now belong to;
  /// -1 while not measuring.
  std::atomic<int> window{-1};

  /// New replica slot; `drop_one` is true for the single replica that
  /// must swallow its first tuple.
  std::shared_ptr<SinkSlot> Register(bool* drop_one);

  /// Merged over replicas; call only after the engine stopped.
  Histogram Latency(int window) const;
  uint64_t Tuples() const;
  KeyTallies Keys() const;

 private:
  const int windows_;
  const bool group_keys_;
  const bool word_sequences_;
  const bool drop_one_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<SinkSlot>> slots_;  // guarded by mu_
};

class RecordingSink final : public api::Operator {
 public:
  RecordingSink(std::unique_ptr<api::Operator> inner,
                std::shared_ptr<SinkControl> control);

  Status Prepare(const api::OperatorContext& ctx) override {
    return inner_->Prepare(ctx);
  }
  void Process(const Tuple& in, api::OutputCollector* out) override;
  void Flush(api::OutputCollector* out) override { inner_->Flush(out); }

 private:
  void Tally(const Tuple& in);

  std::unique_ptr<api::Operator> inner_;
  std::shared_ptr<SinkControl> control_;
  std::shared_ptr<SinkSlot> slot_;
  bool drop_next_ = false;
};

// ---------------------------------------------------------------------------
// Topology rebuild
// ---------------------------------------------------------------------------

/// Rebuilds `topo` with TopologyBuilder from Topology::ops(): same
/// names, groupings, key fields, streams, kernels and chains; only the
/// spout factories (when `source` is set) and the sink factories (when
/// `sink` is set) are wrapped.
StatusOr<api::Topology> Rebuild(const api::Topology& topo,
                                std::shared_ptr<SourceControl> source,
                                std::shared_ptr<SinkControl> sink);

/// OK when both topologies have the same structure (operators, flags,
/// parallelism, streams, subscriptions, edges, kernel and chain
/// counts); otherwise names the first difference.
Status SameStructure(const api::Topology& a, const api::Topology& b);

// ---------------------------------------------------------------------------
// Running a workload
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Per-operator costs over the saturated window.
struct OpCost {
  std::string name;
  uint64_t tuples_in = 0;
  double ns_per_tuple = 0.0;
  double busy_share = 0.0;  ///< busy / (workers × window)
  double bp_parks_per_ktuple = 0.0;
};

struct WorkloadResult {
  std::vector<Metric> metrics;
  std::vector<OpCost> ops;
  /// Checked operations: reference sink tuples, Checkpoint() calls and
  /// engine drains.
  uint64_t attempted = 0;
  /// Missing or extra sink tuples, word-sequence violations, failed
  /// checkpoints and drain timeouts.
  uint64_t failed = 0;
  std::vector<std::string> notes;
  /// Raw per-window and per-deployment values behind the medians, by
  /// name (e.g. every saturated slice's throughput), for the result file.
  std::vector<std::pair<std::string, std::vector<double>>> samples;

  void Add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  const Metric* Find(const std::string& name) const;
  double error_rate() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 1.0;
  }
  bool correct() const { return attempted > 0 && failed == 0; }
  /// Process exit code for this result: nonzero on any failure.
  int exit_code() const { return correct() ? 0 : 1; }
};

/// Setup, saturated, paced and correctness phases of one workload.
StatusOr<WorkloadResult> RunWorkload(const Workload& workload,
                                     const RunOptions& options);

/// The correctness phase alone (the self-test drives it with a sink
/// that drops a tuple).
StatusOr<WorkloadResult> RunCorrectnessOnly(const Workload& workload,
                                            const RunOptions& options);

}  // namespace brisk::e2e
