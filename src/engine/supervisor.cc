#include "engine/supervisor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace brisk::engine {

Supervisor::~Supervisor() { Stop(); }

Status Supervisor::Start() {
  if (thread_.joinable()) {
    return Status::FailedPrecondition("supervisor already started");
  }
  started_at_ = std::chrono::steady_clock::now();
  BRISK_RETURN_NOT_OK(TakeCheckpoint());
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

SupervisionReport Supervisor::Stop() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  return report_;
}

SupervisionReport Supervisor::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return report_;
}

bool Supervisor::SleepFor(double seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  return !cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                       [this] { return stop_; });
}

Status Supervisor::TakeCheckpoint() {
  auto cp = runtime_->Checkpoint();
  if (!cp.ok()) return cp.status();
  SerializeCheckpoint(cp.value(), &checkpoint_bytes_);
  checkpoint_plan_ = cp.value().plan;
  last_checkpoint_ = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  ++report_.checkpoints;
  report_.checkpoint_pause_s += cp.value().pause_seconds;
  return Status::OK();
}

std::string Supervisor::DetectFailure(const HealthReport& health) {
  if (health.dead) {
    return "engine down (a migration or restore failed past its point "
           "of no return)";
  }
  for (const auto& t : health.tasks) {
    if (t.failed) return "task failure: " + t.failure_message;
  }
  // Stall / drain-deadlock detection: a task whose progress counter
  // froze across consecutive probes while it holds work — queued
  // input (backlog) or a parked envelope it never retires (the wedge
  // scenario) — is stuck; an idle task with nothing to do is not.
  const int epoch = runtime_->epoch();
  if (epoch != tracked_epoch_ || last_tuples_.size() != health.tasks.size()) {
    tracked_epoch_ = epoch;
    last_tuples_.assign(health.tasks.size(), 0);
    no_progress_.assign(health.tasks.size(), 0);
    for (size_t i = 0; i < health.tasks.size(); ++i) {
      last_tuples_[i] = health.tasks[i].tuples_in;
    }
    last_heartbeats_ = health.worker_heartbeats;
    worker_no_progress_.assign(health.worker_heartbeats.size(), 0);
    return std::string();
  }
  // Attribution: under back-pressure every producer upstream of a
  // stuck consumer also freezes (holding parked output), so prefer the
  // culprit — a stalled task refusing queued *input* — and among
  // those the downstream-most, where the collapse originates.
  int blamed = -1;
  for (size_t i = 0; i < health.tasks.size(); ++i) {
    const TaskHealth& t = health.tasks[i];
    const bool holds_work = t.backlog > 0 || t.pending_live > 0;
    if (t.tuples_in == last_tuples_[i] && holds_work) {
      if (++no_progress_[i] >= options_.stall_probes) {
        if (blamed < 0 ||
            (t.backlog > 0 &&
             (health.tasks[blamed].backlog == 0 ||
              t.op >= health.tasks[blamed].op))) {
          blamed = static_cast<int>(i);
        }
      }
    } else {
      no_progress_[i] = 0;
    }
    last_tuples_[i] = t.tuples_in;
  }
  if (blamed >= 0) {
    const TaskHealth& t = health.tasks[blamed];
    return "stalled: operator '" + t.op_name + "' replica " +
           std::to_string(t.replica) + " made no progress over " +
           std::to_string(no_progress_[blamed]) +
           " probes while holding work";
  }
  // Stuck-worker detection (pool mode): a heartbeat frozen across
  // consecutive probes while the same worker's run queue holds tasks
  // is a wedged scheduler thread. Idle workers stay off this radar —
  // a parked worker keeps heart-beating because the park timeout
  // (500 us) is far below the probe interval, and an empty
  // queue means its tasks were stolen by siblings, which is progress.
  if (health.worker_heartbeats.size() == health.worker_queue_depths.size() &&
      last_heartbeats_.size() == health.worker_heartbeats.size()) {
    int stuck = -1;
    for (size_t w = 0; w < health.worker_heartbeats.size(); ++w) {
      const bool frozen =
          health.worker_heartbeats[w] == last_heartbeats_[w];
      if (frozen && health.worker_queue_depths[w] > 0) {
        if (++worker_no_progress_[w] >= options_.stall_probes &&
            stuck < 0) {
          stuck = static_cast<int>(w);
        }
      } else {
        worker_no_progress_[w] = 0;
      }
      last_heartbeats_[w] = health.worker_heartbeats[w];
    }
    if (stuck >= 0) {
      return "stuck worker " + std::to_string(stuck) +
             ": heartbeat frozen over " +
             std::to_string(worker_no_progress_[stuck]) +
             " probes with " +
             std::to_string(health.worker_queue_depths[stuck]) +
             " tasks queued";
    }
  } else {
    // Worker fleet changed shape (executor restart mid-probe): re-arm.
    last_heartbeats_ = health.worker_heartbeats;
    worker_no_progress_.assign(health.worker_heartbeats.size(), 0);
  }
  return std::string();
}

void Supervisor::Recover(const std::string& cause) {
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryRecord rec;
  rec.at_seconds =
      std::chrono::duration<double>(t0 - started_at_).count();
  rec.cause = cause;

  // Bounded exponential backoff before touching the engine: transient
  // conditions (a migration in flight) get a chance to clear, and
  // repeated failures do not busy-loop the recovery path.
  const double delay =
      std::min(options_.backoff_max_s,
               options_.backoff_initial_s *
                   std::pow(options_.backoff_multiplier, backoff_step_));
  ++backoff_step_;
  if (!SleepFor(delay)) return;

  auto cp = DeserializeCheckpoint(checkpoint_bytes_, checkpoint_plan_);
  Status restored = cp.ok()
                        ? runtime_->Restore(cp.value(), &rec.replayed_tuples)
                        : cp.status();
  rec.succeeded = restored.ok();
  if (!restored.ok()) rec.error = restored.ToString();
  rec.recovery_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  BRISK_LOG(Warn) << "supervisor recovery (" << cause << "): "
                  << (rec.succeeded ? "restored" : rec.error) << " in "
                  << rec.recovery_seconds << " s, replaying "
                  << rec.replayed_tuples << " source tuples";

  // The restored graph starts from the checkpoint; stale stall state
  // must not carry over.
  tracked_epoch_ = -1;

  std::lock_guard<std::mutex> lock(mu_);
  if (rec.succeeded) {
    ++report_.restarts;
    report_.replayed_tuples += rec.replayed_tuples;
  }
  report_.recoveries.push_back(std::move(rec));
}

void Supervisor::Loop() {
  for (;;) {
    if (!SleepFor(options_.heartbeat_interval_s)) return;
    const HealthReport health = runtime_->ProbeHealth();
    // Not running and not dead: the owner stopped the job; nothing to
    // supervise this tick.
    if (!health.running && !health.dead) continue;

    const std::string cause = DetectFailure(health);
    if (cause.empty()) {
      backoff_step_ = 0;  // healthy probe: backoff resets
      if (options_.checkpoint_interval_s > 0 &&
          std::chrono::steady_clock::now() - last_checkpoint_ >=
              std::chrono::duration<double>(
                  options_.checkpoint_interval_s)) {
        const Status cp = TakeCheckpoint();
        if (!cp.ok()) {
          BRISK_LOG(Warn) << "periodic checkpoint failed: "
                          << cp.ToString();
        }
      }
      continue;
    }

    bool circuit_open = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++report_.failures_detected;
      if (report_.restarts >= options_.max_restarts) {
        report_.final_status = Status::Unavailable(
            "supervisor circuit breaker open: " +
            std::to_string(report_.restarts) +
            " restarts exhausted; last failure: " + cause);
        circuit_open = true;
      }
    }
    if (circuit_open) {
      BRISK_LOG(Error) << "supervisor giving up after "
                       << options_.max_restarts << " restarts (" << cause
                       << ")";
      return;  // fail cleanly: no further recovery attempts
    }
    Recover(cause);
  }
}

}  // namespace brisk::engine
