#include "model/perf_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace brisk::model {

namespace {

constexpr double kNsPerSec = 1e9;

/// Per-consumer-instance arrival bucket: rate arriving from producer
/// instances that share a socket and tuple size (fetch cost only
/// depends on those, so bucketing keeps evaluation O(edges · sockets)).
struct Arrival {
  double rate = 0.0;      // tuples/sec
  double fetch_ns = 0.0;  // T_f per tuple from this bucket
  double bytes = 0.0;     // N, for Eq. 5 traffic
  int from_socket = -1;
};

}  // namespace

std::string ConstraintViolation::ToString() const {
  std::ostringstream os;
  switch (kind) {
    case kCpu:
      os << "CPU demand on S" << socket_from;
      break;
    case kLocalBandwidth:
      os << "local DRAM bandwidth on S" << socket_from;
      break;
    case kChannelBandwidth:
      os << "channel bandwidth S" << socket_from << "->S" << socket_to;
      break;
    case kCoreCount:
      os << "core count on S" << socket_from;
      break;
  }
  os << ": demand " << demand << " > limit " << limit;
  return os.str();
}

StatusOr<ModelResult> PerfModel::Evaluate(const ExecutionPlan& plan,
                                          double input_rate_tps,
                                          const ModelOptions& options) const {
  if (!budgeted()) return Propagate(plan, input_rate_tps, options);

  // Processor sharing. Below saturation the model is linear in the
  // ingress rate, so one pass at 1 tuple/s gives each socket's CPU per
  // ingress tuple, of which its worker group serves W·1e9 ns/s, and
  // each instance's share of the ingress, of which its one thread
  // serves 1/T. Back-pressure paces the whole plan to the first of
  // these to run out: the plan runs as if fed at that rate.
  BRISK_ASSIGN_OR_RETURN(ModelResult result, Propagate(plan, 1.0, options));
  const double cap = workers_per_socket_ * kNsPerSec;
  double paced = input_rate_tps;
  for (const SocketUsage& u : result.sockets) {
    if (u.cpu_ns_per_sec > 0.0) paced = std::min(paced, cap / u.cpu_ns_per_sec);
  }
  for (const InstanceStats& st : result.instances) {
    if (st.processed > 0.0) paced = std::min(paced, st.capacity / st.processed);
  }
  result.throughput *= paced;
  for (InstanceStats& st : result.instances) {
    st.input_rate *= paced;
    st.processed *= paced;
  }
  for (SocketUsage& u : result.sockets) {
    u.cpu_ns_per_sec *= paced;
    u.bw_bytes_per_sec *= paced;
  }
  for (double& t : result.link_traffic) t *= paced;
  result.violations.clear();
  CheckConstraints(&result);
  return result;
}

void PerfModel::CheckConstraints(ModelResult* result) const {
  const int n_sockets = machine_->num_sockets();
  const double cpu_limit = budgeted() ? workers_per_socket_ * kNsPerSec
                                      : machine_->cpu_ns_per_sec();
  for (int s = 0; s < n_sockets; ++s) {
    const SocketUsage& u = result->sockets[s];
    if (u.cpu_ns_per_sec > cpu_limit * (1 + 1e-9)) {
      result->violations.push_back({ConstraintViolation::kCpu, s, -1,
                                    u.cpu_ns_per_sec, cpu_limit});
    }
    if (u.bw_bytes_per_sec > machine_->local_bandwidth_bps() * (1 + 1e-9)) {
      result->violations.push_back({ConstraintViolation::kLocalBandwidth, s,
                                    -1, u.bw_bytes_per_sec,
                                    machine_->local_bandwidth_bps()});
    }
    // Under a worker budget instances share workers, not cores.
    if (!budgeted() && u.instances > machine_->cores_per_socket()) {
      result->violations.push_back(
          {ConstraintViolation::kCoreCount, s, -1,
           static_cast<double>(u.instances),
           static_cast<double>(machine_->cores_per_socket())});
    }
    for (int t = 0; t < n_sockets; ++t) {
      if (s == t) continue;
      const double traffic =
          result->link_traffic[static_cast<size_t>(s) * n_sockets + t];
      if (traffic > machine_->ChannelBandwidthBps(s, t) * (1 + 1e-9)) {
        result->violations.push_back({ConstraintViolation::kChannelBandwidth,
                                      s, t, traffic,
                                      machine_->ChannelBandwidthBps(s, t)});
      }
    }
  }
}

StatusOr<ModelResult> PerfModel::Propagate(const ExecutionPlan& plan,
                                           double input_rate_tps,
                                           const ModelOptions& options) const {
  const api::Topology& topo = plan.topology();
  const int n_sockets = machine_->num_sockets();
  const int n_inst = plan.num_instances();
  const bool budgeted = this->budgeted();

  if (input_rate_tps < 0) {
    return Status::InvalidArgument("negative input rate");
  }

  // Resolve profiles and validate placement once up front.
  std::vector<const OperatorProfile*> prof(topo.num_operators());
  for (const auto& op : topo.ops()) {
    prof[op.id] = profiles_->Find(op.name);
    if (prof[op.id] == nullptr) return profiles_->Get(op.name).status();
    const size_t n_streams = op.output_streams.size();
    if (prof[op.id]->selectivity.size() < n_streams ||
        prof[op.id]->output_bytes.size() < n_streams) {
      return Status::InvalidArgument(
          "profile for '" + op.name + "' covers fewer streams (" +
          std::to_string(prof[op.id]->selectivity.size()) +
          ") than declared (" + std::to_string(n_streams) + ")");
    }
  }
  for (int i = 0; i < n_inst; ++i) {
    const int s = plan.instance(i).socket;
    if (s >= n_sockets) {
      return Status::InvalidArgument(
          "instance placed on socket " + std::to_string(s) + " but machine '" +
          machine_->name() + "' has " + std::to_string(n_sockets));
    }
    if (s < 0 && !options.allow_unplaced) {
      return Status::FailedPrecondition(
          "plan has unplaced instances; evaluate with allow_unplaced or "
          "complete the placement");
    }
  }

  // Worst remote latency for the RLAS_fix(L) ablation.
  double worst_latency = 0.0;
  for (int i = 0; i < n_sockets; ++i) {
    for (int j = 0; j < n_sockets; ++j) {
      if (i != j) worst_latency = std::max(worst_latency, machine_->LatencyNs(i, j));
    }
  }
  if (n_sockets == 1) worst_latency = machine_->LatencyNs(0, 0);

  auto fetch_cost_ns = [&](int from, int to, double bytes) -> double {
    switch (options.fetch_mode) {
      case FetchCostMode::kAlwaysLocal:
        return 0.0;
      case FetchCostMode::kAlwaysRemote: {
        const double lines = std::ceil(bytes / machine_->cache_line_bytes());
        return lines * worst_latency;
      }
      case FetchCostMode::kRelativeLocation:
        break;
    }
    if (from < 0 || to < 0) return 0.0;  // bounding relaxation
    return machine_->FetchCostNs(from, to, bytes);
  };

  ModelResult result;
  result.instances.assign(n_inst, InstanceStats{});
  result.sockets.assign(std::max(n_sockets, 1), SocketUsage{});
  result.link_traffic.assign(static_cast<size_t>(n_sockets) * n_sockets, 0.0);

  // Per-instance, per-stream expected output rates, instance-major.
  std::vector<size_t> out_base(n_inst + 1, 0);
  for (int i = 0; i < n_inst; ++i) {
    out_base[i + 1] =
        out_base[i] + topo.op(plan.instance(i).op).output_streams.size();
  }
  std::vector<double> out_rate(out_base[n_inst], 0.0);
  // Arrival buckets per consumer instance, in one array: instance i
  // fills [arrival_end[i] from arrival_begin[i]), sized for every
  // producer replica that can deliver to it.
  std::vector<size_t> arrival_begin(n_inst + 1, 0);
  for (const auto& e : topo.edges()) {
    const bool one_to_one = budgeted && WiredOneToOne(plan, e);
    for (int c = 0; c < plan.replication(e.consumer_op); ++c) {
      size_t senders = static_cast<size_t>(plan.replication(e.producer_op));
      if (one_to_one) {
        senders = 1;
      } else if (e.grouping == api::GroupingType::kGlobal && c != 0) {
        senders = 0;
      }
      arrival_begin[plan.InstanceId(e.consumer_op, c) + 1] += senders;
    }
  }
  for (int i = 0; i < n_inst; ++i) arrival_begin[i + 1] += arrival_begin[i];
  std::vector<size_t> arrival_end(arrival_begin.begin(),
                                  arrival_begin.end() - 1);
  std::vector<Arrival> arrivals(arrival_begin[n_inst]);

  // Propagate in topological operator order (producers before consumers
  // — the DAG is validated acyclic at Build()).
  for (const int op_id : topo.topological_order()) {
    const auto& op = topo.op(op_id);
    const OperatorProfile& p = *prof[op_id];
    const double te_ns = machine_->CyclesToNs(p.te_cycles);
    const int repl = plan.replication(op_id);

    for (int r = 0; r < repl; ++r) {
      const int inst = plan.InstanceId(op_id, r);
      InstanceStats& st = result.instances[inst];

      double ri = 0.0;
      double fetch_weighted = 0.0;
      if (op.is_spout) {
        // External input splits evenly across spout replicas (§3.1: r_i
        // of the source operator is I).
        ri = input_rate_tps / repl;
      } else {
        for (size_t k = arrival_begin[inst]; k < arrival_end[inst]; ++k) {
          ri += arrivals[k].rate;
          fetch_weighted += arrivals[k].rate * arrivals[k].fetch_ns;
        }
      }

      const double avg_fetch = ri > 0 ? fetch_weighted / ri : 0.0;
      const double t_ns = te_ns + avg_fetch;
      const double capacity = t_ns > 0 ? kNsPerSec / t_ns
                                       : std::numeric_limits<double>::infinity();
      const double processed = std::min(ri, capacity);

      st.input_rate = ri;
      st.t_ns = t_ns;
      st.capacity = capacity;
      st.processed = processed;
      st.bottleneck = ri > capacity * (1.0 + options.bottleneck_epsilon);

      // Expected output per stream (selectivity, Appendix B).
      for (size_t s = 0; s < out_base[inst + 1] - out_base[inst]; ++s) {
        out_rate[out_base[inst] + s] = processed * p.selectivity[s];
      }

      // Attribute processed tuples back to producers (Case 1's
      // proportional split) for the Eq. 5 traffic matrix.
      const int to_socket = plan.instance(inst).socket;
      if (ri > 0) {
        const double scale = processed / ri;
        for (size_t k = arrival_begin[inst]; k < arrival_end[inst]; ++k) {
          const Arrival& a = arrivals[k];
          if (a.from_socket >= 0 && to_socket >= 0 &&
              a.from_socket != to_socket) {
            result.link_traffic[static_cast<size_t>(a.from_socket) *
                                    n_sockets +
                                to_socket] += a.rate * scale * a.bytes;
          }
        }
      }
    }

    // Deliver this operator's output to consumer instances.
    for (const auto& edge : topo.OutEdges(op_id)) {
      const int consumer_repl = plan.replication(edge.consumer_op);
      const double out_bytes = p.output_bytes[edge.stream_id];
      const bool one_to_one = budgeted && WiredOneToOne(plan, edge);
      for (int r = 0; r < repl; ++r) {
        const int pinst = plan.InstanceId(op_id, r);
        const double rate = out_rate[out_base[pinst] + edge.stream_id];
        if (rate <= 0.0) continue;
        const int from_socket = plan.instance(pinst).socket;

        auto deliver = [&](int consumer_replica, double delivered_rate) {
          const int cinst =
              plan.InstanceId(edge.consumer_op, consumer_replica);
          const int to_socket = plan.instance(cinst).socket;
          arrivals[arrival_end[cinst]++] = {
              delivered_rate, fetch_cost_ns(from_socket, to_socket, out_bytes),
              out_bytes, from_socket};
        };

        switch (edge.grouping) {
          case api::GroupingType::kShuffle:
            if (one_to_one) {
              deliver(r, rate);
              break;
            }
            [[fallthrough]];
          case api::GroupingType::kFields:
            // Uniform split across replicas (keys assumed balanced; the
            // engine's hash grouping approximates this).
            for (int c = 0; c < consumer_repl; ++c) {
              deliver(c, rate / consumer_repl);
            }
            break;
          case api::GroupingType::kBroadcast:
            for (int c = 0; c < consumer_repl; ++c) deliver(c, rate);
            break;
          case api::GroupingType::kGlobal:
            deliver(0, rate);
            break;
        }
      }
    }
  }

  // Throughput R = Σ over sink instances of r̄_o (§3.1).
  for (const int sink : topo.sinks()) {
    for (int r = 0; r < plan.replication(sink); ++r) {
      result.throughput +=
          result.instances[plan.InstanceId(sink, r)].processed;
    }
  }

  // Socket usage and constraint checks (Eq. 3–5 + core occupancy).
  for (int i = 0; i < n_inst; ++i) {
    const int s = plan.instance(i).socket;
    if (s < 0) continue;
    const InstanceStats& st = result.instances[i];
    const OperatorProfile& p = *prof[plan.instance(i).op];
    result.sockets[s].cpu_ns_per_sec += st.processed * st.t_ns;
    result.sockets[s].bw_bytes_per_sec += st.processed * p.m_bytes;
    result.sockets[s].instances += 1;
  }
  CheckConstraints(&result);

  // Critical path: longest chain of per-operator worst-instance T(p),
  // spouts to sinks, in topological order.
  {
    std::vector<double> path(topo.num_operators(), 0.0);
    for (const int op_id : topo.topological_order()) {
      double worst_t = 0.0;
      for (int r = 0; r < plan.replication(op_id); ++r) {
        worst_t = std::max(
            worst_t, result.instances[plan.InstanceId(op_id, r)].t_ns);
      }
      double upstream = 0.0;
      for (const auto& e : topo.InEdges(op_id)) {
        upstream = std::max(upstream, path[e.producer_op]);
      }
      path[op_id] = upstream + worst_t;
      result.critical_path_ns =
          std::max(result.critical_path_ns, path[op_id]);
    }
  }

  // Bottleneck operator: the one with the largest aggregate over-supply
  // ratio — Algorithm 1's next scaling target.
  for (const auto& op : topo.ops()) {
    double ri_sum = 0.0, ro_sum = 0.0;
    bool any_bottleneck = false;
    for (int r = 0; r < plan.replication(op.id); ++r) {
      const InstanceStats& st =
          result.instances[plan.InstanceId(op.id, r)];
      ri_sum += st.input_rate;
      ro_sum += st.processed;
      any_bottleneck |= st.bottleneck;
    }
    if (!any_bottleneck || ro_sum <= 0.0) continue;
    const double ratio = ri_sum / ro_sum;
    if (ratio > result.bottleneck_ratio) {
      result.bottleneck_ratio = ratio;
      result.bottleneck_op = op.id;
    }
  }

  return result;
}

StatusOr<double> PerfModel::Bound(const ExecutionPlan& plan,
                                  double input_rate_tps) const {
  ModelOptions opts;
  opts.allow_unplaced = true;
  BRISK_ASSIGN_OR_RETURN(ModelResult r, Evaluate(plan, input_rate_tps, opts));
  return r.throughput;
}

}  // namespace brisk::model
