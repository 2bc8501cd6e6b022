#include "optimizer/placement_bb.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <tuple>
#include <vector>

#include "common/logging.h"

namespace brisk::opt {

namespace {

using model::ExecutionPlan;
using model::ModelOptions;
using model::ModelResult;
using model::PerfModel;

/// DFS branch-and-bound solver for one placement problem.
class Solver {
 public:
  Solver(const PerfModel& model, ExecutionPlan plan,
         const PlacementOptions& opts, int ratio)
      : model_(model),
        plan_(std::move(plan)),
        opts_(opts),
        graph_(CompressedGraph::Build(plan_, ratio, model.budgeted(),
                                      model.machine().num_sockets())),
        n_sockets_(model.machine().num_sockets()),
        // Under a worker budget instances share workers, so a socket
        // hosts any number of them.
        socket_capacity_(model.budgeted()
                             ? std::numeric_limits<int>::max() / 2
                             : model.machine().cores_per_socket()) {}

  StatusOr<PlacementResult> Run();

 private:
  struct Node {
    std::vector<int16_t> unit_socket;  // -1 = unplaced
    int placed = 0;
  };

  /// Writes a node's unit placement into the shared plan scratch.
  void ApplyToPlan(const Node& node) {
    for (int u = 0; u < graph_.num_units(); ++u) {
      for (const int inst : graph_.units()[u].instance_ids) {
        plan_.SetSocket(inst, node.unit_socket[u]);
      }
    }
  }

  /// Bounding function: throughput upper bound of any completion.
  double Bound(const Node& node) {
    ApplyToPlan(node);
    ModelOptions mo;
    mo.fetch_mode = opts_.fetch_mode;
    mo.allow_unplaced = true;
    auto r = model_.Evaluate(plan_, opts_.input_rate_tps, mo);
    BRISK_CHECK(r.ok()) << r.status().ToString();
    return r->throughput;
  }

  /// Free cores on `socket` under `node`'s partial placement.
  int FreeCores(const Node& node, int socket) const {
    int used = 0;
    for (int u = 0; u < graph_.num_units(); ++u) {
      if (node.unit_socket[u] == socket) used += graph_.units()[u].size();
    }
    return socket_capacity_ - used;
  }

  bool CanPlace(const Node& node, int unit, int socket) const {
    return FreeCores(node, socket) >= graph_.units()[unit].size();
  }

  /// True when every unit of every producer operator of `op` is placed.
  bool AllProducersPlaced(const Node& node, int op) const {
    for (const int prod_op : graph_.ProducersOf(op)) {
      for (const int u : graph_.UnitsOf(prod_op)) {
        if (node.unit_socket[u] < 0) return false;
      }
    }
    return true;
  }

  /// Sockets worth branching to for `unit`: capacity-feasible, with
  /// redundancy elimination — empty sockets that are indistinguishable
  /// from an already-listed empty socket (identical latency/bandwidth
  /// signature w.r.t. every used socket) are skipped (§4 heuristic 2;
  /// Fig. 5's "S1 is identical to S0 at this point").
  std::vector<int> CandidateSockets(const Node& node, int unit) const {
    std::vector<bool> used(n_sockets_, false);
    for (int u = 0; u < graph_.num_units(); ++u) {
      if (node.unit_socket[u] >= 0) used[node.unit_socket[u]] = true;
    }
    const auto& machine = model_.machine();
    std::vector<int> out;
    std::vector<std::vector<double>> seen_signatures;
    for (int s = 0; s < n_sockets_; ++s) {
      if (!CanPlace(node, unit, s)) continue;
      if (used[s] || !opts_.use_redundancy_elimination) {
        out.push_back(s);
        continue;
      }
      std::vector<double> sig;
      for (int us = 0; us < n_sockets_; ++us) {
        if (!used[us]) continue;
        sig.push_back(machine.LatencyNs(us, s));
        sig.push_back(machine.LatencyNs(s, us));
        sig.push_back(machine.ChannelBandwidthGbps(us, s));
        sig.push_back(machine.ChannelBandwidthGbps(s, us));
      }
      if (std::find(seen_signatures.begin(), seen_signatures.end(), sig) !=
          seen_signatures.end()) {
        continue;  // identical to an empty socket already branched to
      }
      seen_signatures.push_back(std::move(sig));
      out.push_back(s);
    }
    return out;
  }

  /// Best-fit placement of `unit` (all predecessors placed): the socket
  /// maximizing the unit's own processed rate; ties break to the
  /// fullest socket, and only one child is generated (§4 heuristic 2).
  /// Under a worker budget a unit's own rate ignores the workers it
  /// takes from its socket-mates, so the socket maximizing the plan's
  /// budget-scaled throughput wins instead, ties to the emptiest.
  StatusOr<int> BestFitSocket(const Node& node, int unit) {
    const auto& candidates = CandidateSockets(node, unit);
    if (candidates.empty()) {
      return Status::ResourceExhausted("no socket can host unit");
    }
    const bool budgeted = model_.budgeted();
    int best = -1;
    double best_rate = -1.0;
    int best_free = 0;
    for (const int s : candidates) {
      Node child = node;
      child.unit_socket[unit] = static_cast<int16_t>(s);
      ApplyToPlan(child);
      ModelOptions mo;
      mo.fetch_mode = opts_.fetch_mode;
      mo.allow_unplaced = true;
      auto r = model_.Evaluate(plan_, opts_.input_rate_tps, mo);
      BRISK_CHECK(r.ok()) << r.status().ToString();
      double rate = 0.0;
      if (budgeted) {
        rate = r->throughput;
      } else {
        for (const int inst : graph_.units()[unit].instance_ids) {
          rate += r->instances[inst].processed;
        }
      }
      const int free_after =
          FreeCores(node, s) - graph_.units()[unit].size();
      const bool wins_tie = budgeted ? free_after > best_free
                                     : free_after < best_free;
      if (rate > best_rate + 1e-9 ||
          (rate > best_rate - 1e-9 && best >= 0 && wins_tie)) {
        best = s;
        best_rate = rate;
        best_free = free_after;
      }
    }
    return best;
  }

  const PerfModel& model_;
  ExecutionPlan plan_;  // scratch: sockets rewritten per evaluation
  const PlacementOptions& opts_;
  CompressedGraph graph_;
  const int n_sockets_;
  const int socket_capacity_;  // instances a socket can host
};

StatusOr<PlacementResult> Solver::Run() {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              opts_.max_seconds > 0 ? opts_.max_seconds : 1e9));
  const int n_units = graph_.num_units();
  {
    // Structural feasibility: total replicas must fit in total cores.
    int64_t total = 0;
    for (const auto& u : graph_.units()) total += u.size();
    const int64_t cores =
        static_cast<int64_t>(n_sockets_) * socket_capacity_;
    if (total > cores) {
      return Status::ResourceExhausted(
          "plan needs " + std::to_string(total) + " cores; machine has " +
          std::to_string(cores));
    }
  }

  PlacementResult result;
  result.search_complete = true;
  bool have_solution = false;
  double incumbent = -1.0;
  Node best_node;

  if (opts_.seed_with_first_fit) {
    // Appendix D: a valid first-fit plan as the initial incumbent lets
    // the bounding function prune from the very first node.
    Node seed;
    seed.unit_socket.assign(n_units, -1);
    bool ok = true;
    for (int u = 0; u < n_units && ok; ++u) {
      ok = false;
      for (int s = 0; s < n_sockets_; ++s) {
        if (CanPlace(seed, u, s)) {
          seed.unit_socket[u] = static_cast<int16_t>(s);
          ok = true;
          break;
        }
      }
    }
    if (ok) {
      seed.placed = n_units;
      ApplyToPlan(seed);
      ModelOptions mo;
      mo.fetch_mode = opts_.fetch_mode;
      auto r = model_.Evaluate(plan_, opts_.input_rate_tps, mo);
      if (r.ok() && r->feasible()) {
        incumbent = r->throughput;
        best_node = seed;
        have_solution = true;
      }
    }
  }

  std::vector<Node> stack;
  Node root;
  root.unit_socket.assign(n_units, -1);
  stack.push_back(std::move(root));

  while (!stack.empty()) {
    if (result.nodes_explored >= opts_.max_nodes) {
      result.search_complete = false;
      break;
    }
    if ((result.nodes_explored & 0xFF) == 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      result.search_complete = false;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    ++result.nodes_explored;

    // Prune against the incumbent (safe: a live node's bound upper-
    // bounds every descendant's value).
    if (opts_.use_pruning && have_solution &&
        Bound(node) <= incumbent + 1e-9) {
      ++result.nodes_pruned;
      continue;
    }

    if (node.placed == n_units) {
      // Candidate solution: valid only if no constraint is violated.
      ApplyToPlan(node);
      ModelOptions mo;
      mo.fetch_mode = opts_.fetch_mode;
      auto r = model_.Evaluate(plan_, opts_.input_rate_tps, mo);
      BRISK_CHECK(r.ok()) << r.status().ToString();
      if (r->feasible() && r->throughput > incumbent) {
        incumbent = r->throughput;
        best_node = node;
        have_solution = true;
      }
      continue;
    }

    // Heuristic 1: take the first collocation decision with an
    // unplaced endpoint; resolved decisions are skipped (discarded).
    // When both endpoints are unplaced the producer goes first (its
    // rate does not depend on the consumer), and the decision is
    // revisited on the next expansion for the consumer.
    // Under a worker budget, units go in topological order instead, so
    // every unit past the sources finds its producers placed and is
    // placed best-fit: balancing the workers is a question about the
    // whole plan, which best-fit answers from the budget-scaled bound.
    int branch_unit = -1;
    for (const auto& d : graph_.decisions()) {
      if (model_.budgeted()) break;
      const bool p_placed = node.unit_socket[d.producer_unit] >= 0;
      const bool c_placed = node.unit_socket[d.consumer_unit] >= 0;
      if (p_placed && c_placed) continue;
      branch_unit = p_placed ? d.consumer_unit : d.producer_unit;
      break;
    }
    if (branch_unit < 0) {
      // No unresolved decision but units remain (operators without
      // edges, e.g. a spout-only topology): place the first unplaced
      // unit; it falls through to the branching below.
      for (int u = 0; u < n_units; ++u) {
        if (node.unit_socket[u] < 0) {
          branch_unit = u;
          break;
        }
      }
    }
    BRISK_CHECK(branch_unit >= 0);

    // Heuristic 2: best-fit when the unit's rate is already fully
    // determined by its predecessors' placement.
    if (opts_.use_best_fit &&
        AllProducersPlaced(node, graph_.units()[branch_unit].op)) {
      auto best = BestFitSocket(node, branch_unit);
      if (!best.ok()) continue;  // dead end: no socket fits
      Node child = node;
      child.unit_socket[branch_unit] = static_cast<int16_t>(*best);
      child.placed = node.placed + 1;
      stack.push_back(std::move(child));
      continue;
    }

    // General branching: one child per candidate socket. Children are
    // pushed so the lowest-id (typically collocated/most-used) socket
    // is explored first, which finds good incumbents early for pruning.
    const auto candidates = CandidateSockets(node, branch_unit);
    if (candidates.empty()) continue;  // dead end
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      Node child = node;
      child.unit_socket[branch_unit] = static_cast<int16_t>(*it);
      child.placed = node.placed + 1;
      stack.push_back(std::move(child));
    }
  }

  if (!have_solution) {
    return Status::ResourceExhausted(
        "no placement satisfies the resource constraints");
  }

  ApplyToPlan(best_node);
  ModelOptions mo;
  mo.fetch_mode = opts_.fetch_mode;
  auto final_eval = model_.Evaluate(plan_, opts_.input_rate_tps, mo);
  BRISK_CHECK(final_eval.ok());
  result.plan = plan_;
  result.model = std::move(*final_eval);
  return result;
}

/// True when the uncompressed search tree fits `max_nodes`: one level
/// per unit, each node branching to at most `sockets` children, so at
/// most Σ_{k=0..n} S^k nodes. Stops summing once past the budget.
bool UncompressedSearchFits(int sockets, int units, uint64_t max_nodes) {
  if (max_nodes < 1) return false;
  const auto s = static_cast<uint64_t>(std::max(sockets, 1));
  uint64_t level = 1;
  uint64_t total = 1;
  for (int k = 0; k < units; ++k) {
    if (level > (max_nodes - total) / s) return false;
    level *= s;
    total += level;
  }
  return true;
}

}  // namespace

StatusOr<PlacementResult> OptimizePlacement(const PerfModel& model,
                                            ExecutionPlan plan,
                                            const PlacementOptions& options) {
  if (options.compress_ratio < 1) {
    return Status::InvalidArgument("compress_ratio must be >= 1");
  }
  // Compression trades optimality for search time; when the exact
  // search already fits the node budget it buys nothing.
  const int ratio =
      UncompressedSearchFits(
          model.machine().num_sockets(),
          CompressedGraph::ExactUnitCount(plan, model.budgeted()),
          options.max_nodes)
          ? 1
          : options.compress_ratio;
  Solver solver(model, std::move(plan), options, ratio);
  BRISK_ASSIGN_OR_RETURN(PlacementResult result, solver.Run());
  result.compress_ratio = ratio;
  return result;
}

}  // namespace brisk::opt
