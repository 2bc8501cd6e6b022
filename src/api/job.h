// brisk::Job — the one-call driver over the whole BriskStream stack.
//
// Job::Of(pipeline_or_topology)
//     .WithMachine(spec)          // Table 2 server or a custom spec
//     .WithConfig(engine_config)  // §5 engine modes, NUMA emulation
//     .WithPlanner(Planner::kRlas)
//     .Run(seconds);              // profile → optimize → deploy → report
//
// Run()/Deploy() internally execute the pipeline every caller used to
// hand-wire: profile the operators with a one-worker engine run (§3.1,
// engine::ProfileTopology) unless profiles were supplied, construct an execution plan with the selected planner
// (RLAS, §4, or a §6.4 baseline), stand up the NUMA emulator when the
// engine config asks for it, and drive BriskRuntime. The JobReport
// bundles the plan, the model's prediction for it, the engine's
// RunStats, and sink telemetry — the quantities the paper's figures
// are built from.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/dsl.h"
#include "api/topology.h"
#include "common/histogram.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "engine/config.h"
#include "engine/fault.h"
#include "engine/observed_profiles.h"
#include "engine/runtime.h"
#include "engine/supervisor.h"
#include "hardware/machine_spec.h"
#include "hardware/numa_emulator.h"
#include "model/execution_plan.h"
#include "model/operator_profile.h"
#include "model/perf_model.h"
#include "optimizer/dynamic.h"
#include "optimizer/rlas.h"

namespace brisk {

/// Plan-construction strategy: RLAS (§4) or one of the §6.4 baselines.
enum class Planner { kRlas, kFirstFit, kRoundRobin, kOsDefault };

const char* PlannerName(Planner planner);

/// One autopilot observe → re-optimize → migrate decision that led to
/// a live plan switch (ReoptDecision outcomes that kept the current
/// plan are not recorded).
struct MigrationRecord {
  double at_seconds = 0.0;  ///< wall-clock offset from engine start
  double drift = 0.0;       ///< observed profile drift that triggered it
  double expected_gain = 0.0;  ///< modeled relative throughput gain
  int moves = 0;
  int starts = 0;
  int stops = 0;
  bool applied = false;  ///< ApplyMigration succeeded
  std::string error;     ///< nonempty when applying failed
};

/// Everything one run produced, in one object.
struct JobReport {
  std::string job_name;
  Planner planner = Planner::kRlas;

  /// Keeps the plan's topology pointer valid for the report's lifetime.
  std::shared_ptr<const api::Topology> topology;

  /// True when the §3.1 profiling run ran (no profiles were supplied).
  bool profiled = false;
  model::ProfileSet profiles;  ///< profiles the planner consumed

  model::ExecutionPlan plan;
  model::ModelResult model;  ///< the model's prediction for `plan`
  int scaling_iterations = 0;  ///< RLAS Algorithm 1 rounds (0 = baseline)
  double optimize_seconds = 0.0;

  engine::RunStats stats;      ///< engine-side counters
  uint64_t sink_tuples = 0;    ///< observed at the sink (§2.2's counter)
  Histogram sink_latency_ns;   ///< sampled end-to-end latency

  /// OK unless some quiesce drain ran past the configured timeout
  /// (then DeadlineExceeded, mirroring RunStats::drain_timed_out).
  Status drain_status;
  /// Checkpoint/recovery counters (all zero without WithSupervision /
  /// WithCheckpointing). final_status is Unavailable when the restart
  /// circuit breaker opened.
  engine::SupervisionReport supervision;

  /// Live migrations the autopilot applied (empty without
  /// WithAutopilot); `plan` remains the *initial* plan — the plan the
  /// job ended on is stats-side (BriskRuntime::plan()) and recorded
  /// step-wise here.
  std::vector<MigrationRecord> migrations;

  double sink_throughput_tps() const {
    return stats.duration_s > 0 ? static_cast<double>(sink_tuples) /
                                      stats.duration_s
                                : 0.0;
  }

  /// Tuples that went through compiled-pipeline batch dispatch, and
  /// their share of all task ingress (spout production included, so
  /// the ratio is an indicator, not an exact bolt share). > 0 proves
  /// compiled execution engaged; 0 means fully interpreted (no
  /// kernel-backed operators).
  uint64_t vectorized_tuples() const {
    uint64_t n = 0;
    for (const auto& t : stats.tasks) n += t.tuples_vec;
    return n;
  }
  double vectorized_ratio() const {
    uint64_t vec = 0;
    uint64_t all = 0;
    for (size_t i = 0; i < stats.tasks.size(); ++i) {
      vec += stats.tasks[i].tuples_vec;
      all += stats.tasks[i].tuples_in;
    }
    return all > 0 ? static_cast<double>(vec) / static_cast<double>(all)
                   : 0.0;
  }

  /// Share of pool-worker time spent in the emulated NUMA stall (all
  /// operators, across migration epochs); 0 with emulation off.
  double numa_stall_share() const {
    uint64_t stall = 0;
    for (const auto& t : stats.op_totals) stall += t.numa_stall_ns;
    const double worker_ns =
        stats.duration_s * 1e9 * static_cast<double>(stats.executor.threads);
    return worker_ns > 0.0 ? static_cast<double>(stall) / worker_ns : 0.0;
  }

  std::string ToString() const;
};

/// Fluent facade owning the profile → optimize → deploy pipeline.
/// Every With* is optional; defaults are a CI-sized 2-socket machine,
/// BriskStream's native engine config, and the RLAS planner.
class Job {
 public:
  /// Lowers the DSL pipeline immediately; lowering errors surface from
  /// Run()/Deploy().
  static Job Of(dsl::Pipeline pipeline);
  static Job Of(api::Topology topology);
  static Job Of(std::shared_ptr<const api::Topology> topology);

  /// Hardware the planner optimizes for (and the NUMA emulator
  /// charges). Default: MachineSpec::Symmetric(2, 4, 2.0, 100, 300,
  /// 40, 12) — small enough that optimized plans run on CI hosts.
  Job& WithMachine(hw::MachineSpec machine);

  /// Engine configuration (§5): batching, queue bound, NUMA
  /// emulation, ingress rate, and the run seed, drain budget and fault
  /// plan (EngineConfig::{seed, drain_timeout_s, faults}). Default:
  /// EngineConfig::Brisk().
  Job& WithConfig(engine::EngineConfig config);

  Job& WithPlanner(Planner planner);

  /// RLAS search knobs (replica ceiling, placement options). The
  /// placement input rate also feeds the baseline planners.
  Job& WithPlannerOptions(opt::RlasOptions options);

  /// Supplies operator cost profiles, skipping the profiling run.
  Job& WithProfiles(model::ProfileSet profiles);

  /// Knobs of the profiling run (engine::ProfileTopology) Run() and
  /// Deploy() make when no profiles were supplied.
  Job& WithProfiler(engine::ProfilerConfig config);

  /// Telemetry the application's sinks report into; the report reads
  /// tuple counts and latency from it. (DSL pipelines wire this into
  /// their Sink lambdas; reset happens right before the engine starts
  /// so profiling traffic is not counted.)
  Job& WithTelemetry(std::shared_ptr<SinkTelemetry> telemetry);

  /// Fault tolerance: supervise the deployed job with periodic
  /// checkpoints every `interval_s` (plus the initial one) and
  /// automatic crash/stall recovery with default SupervisorOptions.
  Job& WithCheckpointing(double interval_s);

  /// Fault tolerance with explicit knobs (heartbeat cadence, restart
  /// budget, backoff).
  Job& WithSupervision(engine::SupervisorOptions options);

  /// Autopilot: closes the paper's §5.3 loop on the deployed job. A
  /// controller thread wakes every `interval_s`, derives observed
  /// operator profiles from the engine's counters over the last window
  /// (engine/observed_profiles), runs DynamicReoptimizer::Check
  /// against the plan the job is running, and — when drift and modeled
  /// gain clear their thresholds — hands the new plan to
  /// BriskRuntime::ApplyMigration, which switches the job live. Each
  /// applied (or failed) switch is recorded in JobReport::migrations.
  /// This one-argument form inherits the job's RLAS planner options for
  /// re-optimization. Either form re-plans under the pool's worker
  /// budget unless the options set rlas.workers_per_socket.
  Job& WithAutopilot(double interval_s);
  /// Autopilot with explicit policy knobs (drift threshold, minimum
  /// modeled gain, RLAS options for the re-plan).
  Job& WithAutopilot(double interval_s, opt::DynamicOptions options);

  /// A deployed, running job. Stop() joins the autopilot (if any) and
  /// the engine, then finalizes the report; the destructor stops
  /// implicitly.
  class Deployment {
   public:
    ~Deployment();
    Deployment(const Deployment&) = delete;
    Deployment& operator=(const Deployment&) = delete;

    /// Stops the autopilot and the engine (idempotent) and returns the
    /// full report.
    const JobReport& Stop();

    /// Report so far (plan + prediction; run stats and the migration
    /// log only after Stop).
    const JobReport& report() const { return report_; }

    engine::BriskRuntime& runtime() { return *runtime_; }

    /// The fault-tolerance supervisor, or nullptr when the job was not
    /// configured with WithSupervision/WithCheckpointing. Useful for
    /// polling recovery progress (Supervisor::Snapshot).
    engine::Supervisor* supervisor() { return supervisor_.get(); }

    /// Applied-migration count so far (racy read; exact after Stop).
    int migrations_applied() const {
      return runtime_ ? runtime_->epoch() : 0;
    }

   private:
    friend class Job;
    Deployment() = default;

    /// Spawns the controller thread (Deploy calls this when the job
    /// was configured WithAutopilot). `observation` must express
    /// observed T_e in the same reference clock as the profiles the
    /// plan was built from, or unit mismatch reads as drift.
    void StartAutopilot(double interval_s, opt::DynamicOptions options,
                        hw::MachineSpec machine,
                        engine::ObservationConfig observation);
    void AutopilotLoop();
    void StopAutopilot();

    std::shared_ptr<const api::Topology> topo_;
    std::shared_ptr<SinkTelemetry> telemetry_;
    std::unique_ptr<hw::NumaEmulator> numa_;
    std::unique_ptr<engine::BriskRuntime> runtime_;
    std::unique_ptr<engine::Supervisor> supervisor_;
    bool stopped_ = false;
    JobReport report_;

    // Autopilot state (all owned by the controller thread between
    // StartAutopilot and StopAutopilot).
    double autopilot_interval_s_ = 0.0;
    opt::DynamicOptions autopilot_options_;
    hw::MachineSpec autopilot_machine_;
    engine::ObservationConfig autopilot_observation_;
    model::ExecutionPlan autopilot_plan_;       ///< plan the engine runs
    model::ProfileSet autopilot_profiles_;      ///< what it was planned for
    std::thread autopilot_thread_;
    std::mutex autopilot_mu_;
    std::condition_variable autopilot_cv_;
    bool autopilot_stop_ = false;
    std::vector<MigrationRecord> autopilot_records_;
  };

  /// Profile → optimize → deploy, run `seconds` of wall-clock, stop,
  /// report.
  StatusOr<JobReport> Run(double seconds);

  /// Profile → optimize → create and *start* the runtime; the caller
  /// owns when to Stop().
  StatusOr<std::unique_ptr<Deployment>> Deploy();

 private:
  Job() = default;

  Status init_error_;  ///< deferred pipeline-lowering error
  std::string name_;
  std::shared_ptr<const api::Topology> topo_;
  hw::MachineSpec machine_ =
      hw::MachineSpec::Symmetric(2, 4, 2.0, 100, 300, 40, 12);
  engine::EngineConfig config_ = engine::EngineConfig::Brisk();
  Planner planner_ = Planner::kRlas;
  opt::RlasOptions options_;
  std::optional<model::ProfileSet> profiles_;
  engine::ProfilerConfig profiler_config_;
  std::shared_ptr<SinkTelemetry> telemetry_;
  bool autopilot_enabled_ = false;
  double autopilot_interval_s_ = 0.5;
  /// Explicit autopilot policy; unset = inherit the job's RLAS options.
  std::optional<opt::DynamicOptions> autopilot_options_;
  bool supervision_enabled_ = false;
  engine::SupervisorOptions supervisor_options_;
};

}  // namespace brisk
