#include "api/job.h"

#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "engine/executor.h"
#include "optimizer/baselines.h"

namespace brisk {

const char* PlannerName(Planner planner) {
  switch (planner) {
    case Planner::kRlas:
      return "RLAS";
    case Planner::kFirstFit:
      return "FF";
    case Planner::kRoundRobin:
      return "RR";
    case Planner::kOsDefault:
      return "OS";
  }
  return "?";
}

std::string JobReport::ToString() const {
  std::ostringstream os;
  os << "Job '" << job_name << "' — planner " << PlannerName(planner)
     << (profiled ? ", profiled" : ", supplied profiles") << "\n";
  os << plan.ToString();
  os << "predicted throughput: " << model.throughput << " tuples/s";
  if (scaling_iterations > 0) {
    os << " (" << scaling_iterations << " scaling iterations, "
       << optimize_seconds << " s to optimize)";
  }
  os << "\n";
  if (stats.duration_s > 0.0) {
    os << "ran " << stats.duration_s << " s on " << stats.tasks.size()
       << " tasks (" << stats.executor.threads
       << " pool workers): " << sink_tuples << " tuples at the sink ("
       << sink_throughput_tps() << " tuples/s), p99 latency "
       << sink_latency_ns.Percentile(0.99) / 1e6 << " ms\n";
    const double stall = numa_stall_share();
    if (stall > 0.0) {
      os << "emulated NUMA stall: " << stall * 100
         << "% of pool-worker time\n";
    }
    const uint64_t vec = vectorized_tuples();
    if (vec > 0) {
      os << "compiled pipelines: " << vec
         << " tuples batch-dispatched (" << vectorized_ratio() * 100
         << "% of task ingress)\n";
    }
  }
  for (const MigrationRecord& m : migrations) {
    os << "migration @" << m.at_seconds << " s: drift " << m.drift * 100
       << "%, expected gain " << m.expected_gain * 100 << "% (" << m.moves
       << " moves, " << m.starts << " starts, " << m.stops << " stops) "
       << (m.applied ? "applied" : "FAILED: " + m.error) << "\n";
  }
  if (supervision.checkpoints > 0 || supervision.failures_detected > 0) {
    os << "fault tolerance: " << supervision.checkpoints << " checkpoints ("
       << supervision.checkpoint_pause_s << " s paused), "
       << supervision.failures_detected << " failures detected, "
       << supervision.restarts << " restarts, "
       << supervision.replayed_tuples << " source tuples replayed";
    if (!supervision.final_status.ok()) {
      os << " — " << supervision.final_status.ToString();
    }
    os << "\n";
  }
  if (!drain_status.ok()) os << drain_status.ToString() << "\n";
  return os.str();
}

Job Job::Of(dsl::Pipeline pipeline) {
  Job job;
  job.name_ = pipeline.name();
  auto topo = std::move(pipeline).Build();
  if (!topo.ok()) {
    job.init_error_ = topo.status();
  } else {
    job.topo_ = std::make_shared<const api::Topology>(std::move(topo).value());
  }
  return job;
}

Job Job::Of(api::Topology topology) {
  Job job;
  job.name_ = topology.name();
  job.topo_ = std::make_shared<const api::Topology>(std::move(topology));
  return job;
}

Job Job::Of(std::shared_ptr<const api::Topology> topology) {
  Job job;
  if (topology == nullptr) {
    job.init_error_ = Status::InvalidArgument("Job::Of: null topology");
    return job;
  }
  job.name_ = topology->name();
  job.topo_ = std::move(topology);
  return job;
}

Job& Job::WithMachine(hw::MachineSpec machine) {
  machine_ = std::move(machine);
  return *this;
}

Job& Job::WithConfig(engine::EngineConfig config) {
  config_ = config;
  return *this;
}

Job& Job::WithPlanner(Planner planner) {
  planner_ = planner;
  return *this;
}

Job& Job::WithPlannerOptions(opt::RlasOptions options) {
  options_ = std::move(options);
  return *this;
}

Job& Job::WithProfiles(model::ProfileSet profiles) {
  profiles_ = std::move(profiles);
  return *this;
}

Job& Job::WithProfiler(engine::ProfilerConfig config) {
  profiler_config_ = config;
  return *this;
}

Job& Job::WithTelemetry(std::shared_ptr<SinkTelemetry> telemetry) {
  telemetry_ = std::move(telemetry);
  return *this;
}

Job& Job::WithCheckpointing(double interval_s) {
  supervision_enabled_ = true;
  supervisor_options_.checkpoint_interval_s = interval_s;
  return *this;
}

Job& Job::WithSupervision(engine::SupervisorOptions options) {
  supervision_enabled_ = true;
  supervisor_options_ = options;
  return *this;
}

Job& Job::WithAutopilot(double interval_s) {
  autopilot_enabled_ = true;
  autopilot_interval_s_ = interval_s;
  autopilot_options_.reset();  // inherit the job's RLAS options
  return *this;
}

Job& Job::WithAutopilot(double interval_s, opt::DynamicOptions options) {
  autopilot_enabled_ = true;
  autopilot_interval_s_ = interval_s;
  autopilot_options_ = std::move(options);
  return *this;
}

StatusOr<std::unique_ptr<Job::Deployment>> Job::Deploy() {
  BRISK_RETURN_NOT_OK(init_error_);

  auto deployment = std::unique_ptr<Deployment>(new Deployment());
  deployment->topo_ = topo_;
  deployment->telemetry_ = telemetry_;
  JobReport& report = deployment->report_;
  report.job_name = name_;
  report.planner = planner_;
  report.topology = topo_;

  // 1. Operator cost profiles: supplied, or measured by a one-worker
  // engine run (§3.1).
  if (profiles_.has_value()) {
    report.profiles = *profiles_;
  } else {
    BRISK_ASSIGN_OR_RETURN(report.profiles,
                           engine::ProfileTopology(*topo_, profiler_config_));
    report.profiled = true;
  }

  // 2. Replication + placement with the selected planner. RLAS runs
  // its joint scaling+placement search; every baseline shares one
  // shape: base-parallelism plan -> placement heuristic -> evaluate.
  // Both plan for the workers the pool will run per socket, not for
  // the machine's cores.
  opt::RlasOptions options = options_;
  options.workers_per_socket = engine::WorkersPerSocketFor(
      config_, &machine_, machine_.num_sockets());
  const model::PerfModel perf_model(&machine_, &report.profiles,
                                    options.workers_per_socket);
  const double rate = options.placement.input_rate_tps;
  if (planner_ == Planner::kRlas) {
    const opt::RlasOptimizer optimizer(&machine_, &report.profiles, options);
    BRISK_ASSIGN_OR_RETURN(opt::RlasResult result, optimizer.Optimize(*topo_));
    report.plan = std::move(result.plan);
    report.model = std::move(result.model);
    report.scaling_iterations = result.scaling_iterations;
    report.optimize_seconds = result.optimize_seconds;
  } else {
    BRISK_ASSIGN_OR_RETURN(model::ExecutionPlan plan,
                           model::ExecutionPlan::CreateDefault(topo_.get()));
    auto place = [&]() -> StatusOr<model::ExecutionPlan> {
      switch (planner_) {
        case Planner::kFirstFit:
          return opt::PlaceFirstFit(perf_model, std::move(plan), rate);
        case Planner::kRoundRobin:
          return opt::PlaceRoundRobin(machine_, std::move(plan));
        default:
          return opt::PlaceOsDefault(machine_, std::move(plan));
      }
    };
    BRISK_ASSIGN_OR_RETURN(report.plan, place());
    BRISK_ASSIGN_OR_RETURN(report.model,
                           perf_model.Evaluate(report.plan, rate));
  }

  // 3. Deploy on the engine, with the NUMA emulator charging remote
  // fetches when the config asks for it. The pool runs the W workers
  // per socket the plan was made for, also on a plan that leaves
  // sockets empty.
  engine::EngineConfig config = config_;
  if (config.workers_per_socket <= 0) {
    config.workers_per_socket = options.workers_per_socket;
  }
  if (config.numa_emulation) {
    deployment->numa_ = std::make_unique<hw::NumaEmulator>(machine_);
  }
  BRISK_ASSIGN_OR_RETURN(
      deployment->runtime_,
      engine::BriskRuntime::Create(topo_.get(), report.plan, config,
                                   deployment->numa_.get()));

  // The profiling run executes sink operators, which report into the
  // same telemetry; reset so the report covers only the live run.
  if (deployment->telemetry_) deployment->telemetry_->Reset();
  BRISK_RETURN_NOT_OK(deployment->runtime_->Start());

  if (supervision_enabled_) {
    // Start supervision before the autopilot so the initial checkpoint
    // exists before any live migration can fail.
    deployment->supervisor_ = std::make_unique<engine::Supervisor>(
        deployment->runtime_.get(), supervisor_options_);
    BRISK_RETURN_NOT_OK(deployment->supervisor_->Start());
  }

  if (autopilot_enabled_) {
    opt::DynamicOptions dyn;
    if (autopilot_options_.has_value()) {
      dyn = *autopilot_options_;
    } else {
      dyn.rlas = options_;  // re-optimize with the job's planner knobs
    }
    // Re-plan for the workers the pool runs, as the first plan was.
    if (dyn.rlas.workers_per_socket <= 0) {
      dyn.rlas.workers_per_socket = options.workers_per_socket;
    }
    engine::ObservationConfig observation;
    // Express observed T_e in the same reference clock the planner's
    // profiles use, or the unit mismatch itself reads as drift. With
    // user-supplied profiles the caller owns the convention (the
    // robust pattern is supplying engine-observed profiles, which are
    // 1 GHz-referenced — the default).
    if (report.profiled) {
      observation.reference_ghz = profiler_config_.reference_ghz;
    }
    deployment->StartAutopilot(autopilot_interval_s_, std::move(dyn),
                               machine_, observation);
  }
  return deployment;
}

StatusOr<JobReport> Job::Run(double seconds) {
  BRISK_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> deployment, Deploy());
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  return deployment->Stop();
}

Job::Deployment::~Deployment() {
  StopAutopilot();  // BriskRuntime stops itself
}

void Job::Deployment::StartAutopilot(double interval_s,
                                     opt::DynamicOptions options,
                                     hw::MachineSpec machine,
                                     engine::ObservationConfig observation) {
  autopilot_interval_s_ = interval_s;
  autopilot_options_ = std::move(options);
  autopilot_machine_ = std::move(machine);
  autopilot_observation_ = observation;
  autopilot_plan_ = report_.plan;
  autopilot_profiles_ = report_.profiles;
  autopilot_stop_ = false;
  autopilot_thread_ = std::thread([this] { AutopilotLoop(); });
}

void Job::Deployment::StopAutopilot() {
  if (!autopilot_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(autopilot_mu_);
    autopilot_stop_ = true;
  }
  autopilot_cv_.notify_all();
  autopilot_thread_.join();
}

void Job::Deployment::AutopilotLoop() {
  engine::BriskRuntime& rt = *runtime_;
  const opt::DynamicReoptimizer reopt(&autopilot_machine_,
                                      autopilot_options_);
  const engine::ObservationConfig observation = autopilot_observation_;
  engine::RunStats base = rt.SnapshotStats();
  int base_epoch = rt.epoch();
  // Damping state: windowed T_e on a busy host jitters far more than
  // real drift, so raw windows feed an EWMA and a freshly migrated
  // engine gets settle_windows of grace before the next check.
  model::ProfileSet smoothed;
  bool have_smoothed = false;
  int settle = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(autopilot_mu_);
      if (autopilot_cv_.wait_for(
              lock, std::chrono::duration<double>(autopilot_interval_s_),
              [this] { return autopilot_stop_; })) {
        return;
      }
    }
    engine::RunStats now = rt.SnapshotStats();
    // A stale window (the instance space changed under us) only resets
    // the baseline; the next interval observes the new epoch.
    if (rt.epoch() != base_epoch || now.tasks.size() != base.tasks.size()) {
      base = std::move(now);
      base_epoch = rt.epoch();
      continue;
    }
    // Windowed deltas: observe the *recent* workload, not the
    // whole-run average, so drift shows up within one interval.
    const engine::RunStats window = engine::StatsWindow(base, now);
    base = std::move(now);
    if (window.total_consumed == 0) continue;  // idle: nothing to learn

    auto observed = engine::ObserveProfiles(*topo_, autopilot_plan_, window,
                                            autopilot_profiles_, observation);
    if (!observed.ok()) continue;
    if (!have_smoothed) {
      smoothed = std::move(*observed);
      have_smoothed = true;
    } else {
      engine::BlendProfiles(&smoothed, *observed,
                            autopilot_options_.observation_ewma_alpha);
    }
    if (settle > 0) {
      --settle;  // keep smoothing, skip the check while warming up
      continue;
    }
    auto decision =
        reopt.Check(*topo_, autopilot_plan_, autopilot_profiles_, smoothed);
    if (!decision.ok() || !decision->reoptimized) continue;

    MigrationRecord record;
    record.at_seconds = base.duration_s;
    record.drift = decision->drift;
    record.expected_gain = decision->expected_gain;
    record.moves = decision->migration.moves;
    record.starts = decision->migration.starts;
    record.stops = decision->migration.stops;
    const Status applied = rt.ApplyMigration(decision->new_plan);
    record.applied = applied.ok();
    if (!applied.ok()) record.error = applied.ToString();
    {
      std::lock_guard<std::mutex> lock(autopilot_mu_);
      autopilot_records_.push_back(std::move(record));
    }
    if (applied.ok()) {
      // The new plan was optimized *for* the smoothed observation: it
      // becomes the planned baseline the next drift is measured from,
      // the EWMA restarts (the rebuilt engine is a new measurement
      // context), and the check sits out the settle grace.
      autopilot_plan_ = decision->new_plan;
      autopilot_profiles_ = smoothed;
      have_smoothed = false;
      settle = autopilot_options_.settle_windows;
    }
    base = rt.SnapshotStats();
    base_epoch = rt.epoch();
  }
}

const JobReport& Job::Deployment::Stop() {
  StopAutopilot();
  if (stopped_) return report_;
  stopped_ = true;
  if (supervisor_) report_.supervision = supervisor_->Stop();
  report_.stats = runtime_->Stop();
  report_.migrations = std::move(autopilot_records_);
  if (report_.stats.drain_timed_out) {
    report_.drain_status = Status::DeadlineExceeded(
        "a quiesce drain ran past the configured drain timeout; the "
        "residual sweep delivered the backlog");
  }
  if (telemetry_) {
    report_.sink_tuples = telemetry_->count();
    report_.sink_latency_ns = telemetry_->LatencySnapshot();
  }
  return report_;
}

}  // namespace brisk
