// Rate-based performance model (§3.1) and resource constraints (§3.2).
//
// Given a machine, per-operator profiles, an execution plan, and the
// external ingress rate I, the evaluator propagates expected output
// rates topologically (Formula 1), charging each instance the
// relative-location-dependent fetch cost T_f (Formula 2). It reports
// application throughput R = Σ_sink r̄_o, per-instance rates and
// bottleneck flags, per-socket resource usage, the inter-socket traffic
// matrix, and any violated constraints (Eq. 3–5 plus core occupancy).
//
// Worker budget. The paper's model gives every instance its own core.
// An engine that runs fewer workers per socket than the machine has
// cores is modelled by processor sharing: a socket's instances share
// its W workers, so a socket whose CPU demand Σ r̄_o·T would exceed
// W·1e9 ns/s paces the whole plan (back-pressure), as does an
// instance whose one thread cannot keep up; the result describes the
// plan fed at the rate the first of these can serve. Instances share
// workers instead of owning cores, so core occupancy is no constraint.
// Under a budget, chain edges the plan wires one-to-one
// (WiredOneToOne) are delivered replica k -> replica k, as the engine
// wires them. With W >= cores per socket (the default) every result
// is the paper's model unchanged.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "hardware/machine_spec.h"
#include "model/execution_plan.h"
#include "model/operator_profile.h"

namespace brisk::model {

/// How T_f is charged — RLAS vs the fixed-capability ablations (§6.4).
enum class FetchCostMode {
  /// Formula 2 with the plan's actual relative locations (RLAS).
  kRelativeLocation,
  /// T_f = 0 everywhere: RLAS_fix(U), ignores RMA entirely.
  kAlwaysLocal,
  /// T_f = worst-case latency regardless of placement: RLAS_fix(L),
  /// pessimistically anti-collocates every operator from its producers.
  kAlwaysRemote,
};

/// Evaluation knobs.
struct ModelOptions {
  FetchCostMode fetch_mode = FetchCostMode::kRelativeLocation;

  /// Treat unplaced instances (socket == -1) as collocated with all of
  /// their producers (T_f = 0) — the B&B bounding relaxation (§4).
  /// When false, evaluating a plan with unplaced instances is an error.
  bool allow_unplaced = false;

  /// Relative slack before an instance counts as a bottleneck.
  double bottleneck_epsilon = 1e-9;
};

/// One constraint violation (Eq. 3–5 or core occupancy).
struct ConstraintViolation {
  enum Kind { kCpu, kLocalBandwidth, kChannelBandwidth, kCoreCount } kind;
  int socket_from = -1;  ///< the constrained socket (Eq. 3/4/core) or link src
  int socket_to = -1;    ///< link destination for Eq. 5, else -1
  double demand = 0.0;
  double limit = 0.0;
  std::string ToString() const;
};

/// Per-instance model outputs.
struct InstanceStats {
  double input_rate = 0.0;   ///< Σ r_i from all producers, tuples/sec
  double t_ns = 0.0;         ///< T(p) = T_e + avg T_f, ns/tuple
  double capacity = 0.0;     ///< 1 / T(p), tuples/sec
  double processed = 0.0;    ///< r̄_o before selectivity
  bool bottleneck = false;   ///< over-supplied (Case 1, §3.1)
};

/// Per-socket aggregated demand.
struct SocketUsage {
  double cpu_ns_per_sec = 0.0;  ///< Σ r_o · T (Eq. 3 LHS)
  double bw_bytes_per_sec = 0.0;  ///< Σ r_o · M (Eq. 4 LHS)
  int instances = 0;
};

/// Complete evaluation result.
struct ModelResult {
  double throughput = 0.0;  ///< R = Σ_sink r̄_o, tuples/sec
  std::vector<InstanceStats> instances;
  std::vector<SocketUsage> sockets;
  /// Inter-socket traffic, bytes/sec, row-major [from * n + to]
  /// (the Eq. 5 LHS and Fig. 15's communication matrix).
  std::vector<double> link_traffic;
  std::vector<ConstraintViolation> violations;

  /// Logical operator with the largest over-supply ratio, -1 if none —
  /// the scaling algorithm's next target.
  int bottleneck_op = -1;
  double bottleneck_ratio = 1.0;  ///< r_i / r̄_o of that operator

  /// Service-time lower bound on end-to-end latency: the longest
  /// spout→sink path of per-operator worst-instance T(p) (ns). Queueing
  /// is excluded — the simulator measures that — so this bounds the
  /// best latency any batching configuration could reach.
  double critical_path_ns = 0.0;

  bool feasible() const { return violations.empty(); }
};

/// The evaluator. Stateless; all inputs are explicit.
class PerfModel {
 public:
  /// `workers_per_socket` is the engine's worker budget per socket;
  /// <= 0 means one core per instance (dedicated cores, the paper's
  /// setting).
  PerfModel(const hw::MachineSpec* machine, const ProfileSet* profiles,
            int workers_per_socket = 0)
      : machine_(machine),
        profiles_(profiles),
        workers_per_socket_(workers_per_socket) {}

  /// Evaluates `plan` under external ingress rate `input_rate_tps`.
  /// Fails if a profile is missing or (without allow_unplaced) an
  /// instance is unplaced. Constraint violations do NOT fail the call —
  /// they are reported in the result, because the B&B explores invalid
  /// intermediate nodes by design.
  StatusOr<ModelResult> Evaluate(const ExecutionPlan& plan,
                                 double input_rate_tps,
                                 const ModelOptions& options = {}) const;

  /// The B&B bounding function (§4): upper-bounds the best throughput
  /// any completion of this partial plan can reach, by letting every
  /// unplaced instance sit with all of its producers (T_f = 0).
  StatusOr<double> Bound(const ExecutionPlan& plan,
                         double input_rate_tps) const;

  const hw::MachineSpec& machine() const { return *machine_; }
  const ProfileSet& profiles() const { return *profiles_; }

  /// True when the worker budget is below the machine's cores per
  /// socket, so instances share workers.
  bool budgeted() const {
    return workers_per_socket_ > 0 &&
           workers_per_socket_ < machine_->cores_per_socket();
  }
  /// Workers per socket the model charges against (cores when
  /// unbudgeted).
  int workers_per_socket() const {
    return budgeted() ? workers_per_socket_ : machine_->cores_per_socket();
  }

 private:
  /// Formulas 1–3 at one ingress rate.
  StatusOr<ModelResult> Propagate(const ExecutionPlan& plan,
                                  double input_rate_tps,
                                  const ModelOptions& options) const;

  /// Eq. 3–5 and core occupancy on `result`'s usage (Eq. 3 against the
  /// budget's workers).
  void CheckConstraints(ModelResult* result) const;

  const hw::MachineSpec* machine_;
  const ProfileSet* profiles_;
  int workers_per_socket_;
};

}  // namespace brisk::model
