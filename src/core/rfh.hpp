// Routing-First Heuristic (Section V-A), basic and iterative.
//
// Phase I   builds the shortest-path "fat tree" (all minimum-energy paths).
// Phase II  trims it into a tree while *concentrating* routing workload on
//           few posts (those posts then get many nodes and thus a high
//           charging efficiency).
// Phase III opportunistically re-homes sibling posts onto a cheap-to-reach
//           sibling head, concentrating workload further.
// Phase IV  deploys nodes proportionally to workload via Lagrange
//           multipliers with the paper's smallest-share-first rounding.
//
// The iterative variant repeats I-IV with charging-aware edge weights
// derived from the previous deployment; the paper reports convergence
// within ~7 iterations (possibly oscillating in a tiny band, Fig. 6).
#pragma once

#include <vector>

#include "core/cost.hpp"
#include "core/solution.hpp"
#include "graph/dijkstra.hpp"

namespace wrsn::obs {
class Sink;
}

namespace wrsn::core {

/// What Phase IV uses as the per-post workload alpha_i.
enum class WorkloadKind {
  /// alpha_i = E(p_i), the per-round energy (minimizes the true objective).
  Energy,
  /// alpha_i = 1 + D(p_i), the per-round bits transmitted (the paper's
  /// literal "routing workload").
  Bits,
};

/// How Phase IV turns the fractional Lagrange shares into integers.
enum class AllocationRule {
  /// The paper's iterative smallest-share-first rounding
  /// (core::lagrange_allocate).  Can misplace a node on small instances --
  /// the measured 3-6 % Fig. 7a gap traces to it (EXPERIMENTS.md note 1).
  kPaperRounding,
  /// Exact integer optimum of the Phase IV subproblem by greedy
  /// marginal-gain assignment (core::greedy_allocate).  Never worse than
  /// the paper's rounding for a fixed tree.
  kGreedyExact,
};

struct RfhOptions {
  /// Number of I-IV passes; 1 = basic RFH. The paper uses 7 for its figures.
  int iterations = 7;
  /// Phase II workload concentration (off = plain first-parent SPT).
  bool concentrate_workload = true;
  /// Phase III sibling merging.
  bool merge_siblings = true;
  /// Include receiver energy e_r in the Phase I edge weight. The paper's
  /// Phase I definition omits it; the charging-aware iterations always
  /// include it (it is part of the true cost).
  bool rx_in_weight = false;
  WorkloadKind workload_kind = WorkloadKind::Energy;
  /// Phase IV integerization rule (paper rounding vs exact greedy).
  AllocationRule allocation = AllocationRule::kPaperRounding;
  /// Observer notified after every iteration (obs/sink.hpp); nullptr = none.
  /// Purely observational: never perturbs the solver's decisions.
  obs::Sink* sink = nullptr;
};

struct RfhResult {
  Solution solution;
  /// Cost of `solution` (the best iteration's).
  double cost = 0.0;
  /// Cost after each iteration, for convergence plots (Fig. 6); the same
  /// series the sink's RfhIterationEvent stream carries.
  std::vector<double> per_iteration_cost;
  int best_iteration = 0;
};

/// Runs (iterative) RFH on `instance`.
RfhResult solve_rfh(const Instance& instance, const RfhOptions& options = {});

namespace rfh_detail {

/// Phase II: trims the DAG's parent lists in decreasing-workload order so
/// each examined post captures its potential descendants, then extracts the
/// resulting tree. Mutates `dag`.
graph::RoutingTree trim_fat_tree(graph::ShortestPathDag& dag);

/// One Phase II step for post `p`: every descendant of p drops its parent
/// edges outside {p} union descendants(p).  `reach` must equal
/// graph::compute_dag_reach(dag) on entry; it is updated in place so that it
/// still does on return.
void trim_subtree(graph::ShortestPathDag& dag, graph::DagReach& reach, int p);

/// Phase III: re-homes children onto sibling heads where strictly cheaper
/// than reaching the parent. `weight` prices a directed hop (the weight
/// used to build the tree); instantiated for EnergyWeight and
/// RechargingWeight. Mutates `tree` in place.
template <class WeightT>
void merge_siblings(const Instance& instance, const WeightT& weight, graph::RoutingTree& tree);

/// Phase IV workload vector for `tree` under the chosen kind.
std::vector<double> phase4_weights(const Instance& instance, const graph::RoutingTree& tree,
                                   WorkloadKind kind);

}  // namespace rfh_detail

}  // namespace wrsn::core
