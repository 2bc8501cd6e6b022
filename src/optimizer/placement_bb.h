// Branch-and-bound placement optimization (Algorithm 2, §4).
//
// Given an ExecutionPlan with fixed replication, searches for the
// placement maximizing modelled throughput subject to Eq. 3–5 and core
// occupancy. Nodes are partial placements of *units* (compressed groups
// of replicas); the bounding function relaxes every unplaced unit to be
// collocated with all of its producers (T_f = 0), which upper-bounds
// any completion. The three §4 heuristics are implemented:
//   1. collocation decisions per producer→consumer edge,
//   2. best-fit with redundancy elimination when all predecessors of a
//      unit are already placed (plus empty-socket symmetry breaking),
//   3. graph compression (see CompressedGraph), applied only when the
//      uncompressed search could exceed the node budget.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "model/perf_model.h"
#include "optimizer/compressed_graph.h"

namespace brisk::opt {

/// Knobs for one placement search.
struct PlacementOptions {
  /// Heuristic-3 compression ratio (1 = per-replica placement). Used
  /// only when the uncompressed tree bound, Σ_{k=0..n} S^k for n
  /// instances on S sockets, exceeds `max_nodes`; otherwise the search
  /// places replica by replica (PlacementResult::compress_ratio says
  /// which).
  int compress_ratio = 5;
  /// Hard cap on explored nodes; the search returns the incumbent when
  /// exhausted (reported via PlacementResult::search_complete).
  uint64_t max_nodes = 60000;
  /// Wall-clock budget for one placement search; on expiry the best
  /// incumbent found so far is returned (Appendix D reports <5 s per
  /// placement on the paper's DAGs). <= 0 disables the budget.
  double max_seconds = 2.0;
  /// Over-supplied external ingress rate used during optimization
  /// (§5.3: plans are optimized at maximum system capacity).
  double input_rate_tps = 1e12;
  /// Fetch-cost mode the *search* optimizes under. RLAS uses relative
  /// location; the RLAS_fix ablations use the fixed modes.
  model::FetchCostMode fetch_mode = model::FetchCostMode::kRelativeLocation;

  // --- Ablation switches (Appendix D / §6.4 "correctness of
  // heuristics" studies; leave all on for RLAS proper). ---

  /// Heuristic 2a: single-child best-fit when all predecessors of the
  /// unit are placed. Off = branch over every candidate socket.
  bool use_best_fit = true;
  /// Heuristic 2b: skip empty sockets indistinguishable from one
  /// already branched to. Off = branch to every socket with capacity.
  bool use_redundancy_elimination = true;
  /// Bounding-function pruning against the incumbent. Off = exhaustive
  /// DFS within the node/time budget (for measuring pruning power).
  bool use_pruning = true;
  /// Appendix D: seed the incumbent with a first-fit plan so pruning
  /// bites from the first node.
  bool seed_with_first_fit = false;
};

/// Output of a placement search.
struct PlacementResult {
  model::ExecutionPlan plan;       ///< fully placed (valid) plan
  model::ModelResult model;        ///< evaluation under the search's fetch mode
  uint64_t nodes_explored = 0;
  uint64_t nodes_pruned = 0;
  bool search_complete = true;     ///< false if max_nodes was hit
  int compress_ratio = 1;          ///< ratio the search actually used
};

/// Runs Algorithm 2. Returns ResourceExhausted when no placement
/// satisfies all constraints (the scaling loop treats that as its
/// termination signal).
StatusOr<PlacementResult> OptimizePlacement(const model::PerfModel& model,
                                            model::ExecutionPlan plan,
                                            const PlacementOptions& options);

}  // namespace brisk::opt
