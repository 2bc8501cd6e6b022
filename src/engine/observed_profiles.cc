#include "engine/observed_profiles.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"

namespace brisk::engine {

namespace {

/// Wall-clock bound on one profiling run: long enough for every bundled
/// app under a sanitizer on a shared host, short enough that an
/// operator nothing reaches fails the run instead of hanging it.
constexpr std::chrono::seconds kProfileDeadline{5};

/// Snapshot cadence of the profiling run; also the width of the
/// windows ProfileTopology reports for Fig. 3.
constexpr std::chrono::milliseconds kProfilePoll{1};

uint64_t Value(const std::vector<RelaxedCounter>& v, size_t i) {
  return i < v.size() ? v[i].value() : 0;
}

uint64_t SpoutTuples(const api::Topology& topo,
                     const model::ExecutionPlan& plan, const RunStats& s) {
  uint64_t n = 0;
  for (const int op : topo.spouts()) {
    n += s.tasks[plan.InstanceId(op, 0)].tuples_in;
  }
  return n;
}

/// Names of the operators that processed no tuple in `window`.
std::string StarvedOperators(const api::Topology& topo,
                             const model::ExecutionPlan& plan,
                             const RunStats& window) {
  std::string names;
  for (const auto& op : topo.ops()) {
    if (window.tasks[plan.InstanceId(op.id, 0)].tuples_in > 0) continue;
    names += (names.empty() ? "'" : ", '") + op.name + "'";
  }
  return names;
}

}  // namespace

RunStats StatsWindow(const RunStats& base, const RunStats& now) {
  BRISK_CHECK(base.tasks.size() == now.tasks.size() &&
              base.op_totals.size() == now.op_totals.size())
      << "StatsWindow needs two snapshots of one plan epoch";
  RunStats w;
  w.duration_s = now.duration_s - base.duration_s;
  w.total_emitted = now.total_emitted - base.total_emitted;
  w.total_consumed = now.total_consumed - base.total_consumed;
  w.tasks.reserve(now.tasks.size());
  for (size_t i = 0; i < now.tasks.size(); ++i) {
    w.tasks.push_back(now.tasks[i].Since(base.tasks[i]));
  }
  w.op_totals.reserve(now.op_totals.size());
  for (size_t i = 0; i < now.op_totals.size(); ++i) {
    w.op_totals.push_back(now.op_totals[i].Since(base.op_totals[i]));
  }
  return w;
}

StatusOr<model::ProfileSet> ObserveProfiles(
    const api::Topology& topo, const model::ExecutionPlan& plan,
    const RunStats& stats, const model::ProfileSet& planned,
    const ObservationConfig& config) {
  if (static_cast<int>(stats.tasks.size()) != plan.num_instances()) {
    return Status::InvalidArgument(
        "RunStats covers " + std::to_string(stats.tasks.size()) +
        " tasks but the plan has " + std::to_string(plan.num_instances()));
  }
  if (config.reference_ghz <= 0) {
    return Status::InvalidArgument("reference_ghz must be positive");
  }

  // Per-operator sums over replicas.
  struct OpSums {
    uint64_t tuples_in = 0;
    uint64_t busy_ns = 0;
    std::vector<uint64_t> out;      ///< tuples per output stream
    std::vector<uint64_t> flushed;  ///< tuples `bytes` covers
    std::vector<uint64_t> bytes;    ///< bytes per output stream
  };
  std::vector<OpSums> sums(topo.num_operators());
  for (const auto& op : topo.ops()) {
    OpSums& s = sums[op.id];
    const size_t streams = op.output_streams.size();
    s.out.assign(streams, 0);
    s.flushed.assign(streams, 0);
    s.bytes.assign(streams, 0);
    for (int r = 0; r < plan.replication(op.id); ++r) {
      const TaskStats& t = stats.tasks[plan.InstanceId(op.id, r)];
      s.tuples_in += t.tuples_in;
      s.busy_ns += t.busy_ns;
      for (size_t k = 0; k < streams; ++k) {
        s.out[k] += Value(t.stream_tuples_out, k);
        s.flushed[k] += Value(t.stream_tuples_flushed, k);
        s.bytes[k] += Value(t.stream_bytes_out, k);
      }
    }
  }

  model::ProfileSet observed;
  for (const auto& op : topo.ops()) {
    const OpSums& s = sums[op.id];
    const auto prior = planned.Get(op.name);
    // Tuples without busy time measure nothing: a task records a
    // batch's busy time before its tuple count, and a snapshot copies
    // the count first, so one that lands between the two writes moves
    // the batch's busy time into the previous window and its tuples
    // into this one.
    if (s.tuples_in == 0 || s.busy_ns == 0) {
      if (prior.ok()) observed.Set(op.name, *prior);
      continue;
    }
    model::OperatorProfile profile =
        prior.ok() ? *prior : model::OperatorProfile{};
    const auto in = static_cast<double>(s.tuples_in);
    const size_t streams = op.output_streams.size();
    profile.te_cycles =
        static_cast<double>(s.busy_ns) / in * config.reference_ghz;
    profile.selectivity.assign(streams, 0.0);
    profile.output_bytes.resize(streams, 64.0);
    double out_bytes = 0.0;
    for (size_t k = 0; k < streams; ++k) {
      profile.selectivity[k] = static_cast<double>(s.out[k]) / in;
      if (s.flushed[k] > 0) {
        profile.output_bytes[k] = static_cast<double>(s.bytes[k]) /
                                  static_cast<double>(s.flushed[k]);
      }
      out_bytes += static_cast<double>(s.out[k]) * profile.output_bytes[k];
    }
    // Input size: the byte-weighted mean over the producer streams this
    // operator subscribes to.
    double in_bytes = 0.0, in_tuples = 0.0;
    for (const auto& sub : op.inputs) {
      const OpSums& p = sums[sub.producer_op];
      if (sub.stream_id < p.bytes.size()) {
        in_bytes += static_cast<double>(p.bytes[sub.stream_id]);
        in_tuples += static_cast<double>(p.flushed[sub.stream_id]);
      }
    }
    const double in_size = in_tuples > 0 ? in_bytes / in_tuples : 0.0;
    profile.m_bytes = in_size + out_bytes / in;
    observed.Set(op.name, profile);
  }
  return observed;
}

StatusOr<model::ProfileSet> ProfileTopology(
    const api::Topology& topo, const ProfilerConfig& config,
    std::vector<model::ProfileSet>* windows) {
  if (config.samples < 1 || config.warmup_samples < 0 ||
      config.reference_ghz <= 0) {
    return Status::InvalidArgument(
        "profiler config needs samples >= 1, warmup_samples >= 0 and a "
        "positive reference_ghz");
  }
  BRISK_ASSIGN_OR_RETURN(
      model::ExecutionPlan plan,
      model::ExecutionPlan::Create(
          &topo, std::vector<int>(topo.num_operators(), 1)));
  plan.PlaceAllOn(0);
  EngineConfig engine = EngineConfig::Brisk();
  engine.workers_per_socket = 1;
  engine.drain_timeout_s = 0.0;  // the window is closed before Stop
  BRISK_ASSIGN_OR_RETURN(std::unique_ptr<BriskRuntime> rt,
                         BriskRuntime::Create(&topo, plan, engine));
  BRISK_RETURN_NOT_OK(rt->Start());

  const ObservationConfig observation{config.reference_ghz};
  const auto deadline = std::chrono::steady_clock::now() + kProfileDeadline;
  const auto before_deadline = [&] {
    std::this_thread::sleep_for(kProfilePoll);
    return std::chrono::steady_clock::now() < deadline;
  };
  RunStats base = rt->SnapshotStats();
  while (SpoutTuples(topo, plan, base) <
             static_cast<uint64_t>(config.warmup_samples) &&
         before_deadline()) {
    base = rt->SnapshotStats();
  }
  const uint64_t target =
      SpoutTuples(topo, plan, base) + static_cast<uint64_t>(config.samples);
  RunStats prev = base;
  RunStats now = base;
  std::string starved = StarvedOperators(topo, plan, StatsWindow(base, now));
  while (before_deadline()) {
    now = rt->SnapshotStats();
    if (windows != nullptr) {
      auto w = ObserveProfiles(topo, plan, StatsWindow(prev, now), {},
                               observation);
      if (w.ok() && w->size() > 0) windows->push_back(std::move(*w));
    }
    prev = now;
    starved = StarvedOperators(topo, plan, StatsWindow(base, now));
    if (SpoutTuples(topo, plan, now) >= target && starved.empty()) break;
  }
  rt->Stop();
  if (!starved.empty()) {
    return Status::DeadlineExceeded(
        "profiling: operator(s) " + starved + " processed no tuples within " +
        std::to_string(kProfileDeadline.count()) +
        " s; their inputs may be (near) empty");
  }
  return ObserveProfiles(topo, plan, StatsWindow(base, now), {}, observation);
}

void BlendProfiles(model::ProfileSet* into, const model::ProfileSet& sample,
                   double alpha) {
  alpha = std::clamp(alpha, 0.0, 1.0);
  for (const auto& [name, s] : sample.all()) {
    auto prev = into->Get(name);
    if (!prev.ok()) {
      into->Set(name, s);
      continue;
    }
    model::OperatorProfile blended = s;
    blended.te_cycles = alpha * s.te_cycles + (1 - alpha) * prev->te_cycles;
    const size_t n =
        std::min(blended.selectivity.size(), prev->selectivity.size());
    for (size_t i = 0; i < n; ++i) {
      blended.selectivity[i] = alpha * s.selectivity[i] +
                               (1 - alpha) * prev->selectivity[i];
    }
    into->Set(name, blended);
  }
}

}  // namespace brisk::engine
