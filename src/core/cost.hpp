// The paper's objective: total recharging cost.
//
// One "round" = every post reports one bit to the base station along the
// routing tree.  A post p with descendant count D(p) transmits 1 + D(p)
// bits at its chosen level and receives D(p) bits, so its per-round energy
// is   E(p) = (1 + D(p)) * e_tx(p) + D(p) * e_r.
// Replenishing E(p) at a post holding m_p nodes costs the charger
// E(p) / (k(m_p) * eta), and the objective is the sum over posts.
#pragma once

#include <optional>
#include <vector>

#include "core/solution.hpp"
#include "graph/dijkstra.hpp"

namespace wrsn::core {

/// Subtree report-rate sums: S(p) = r_p + sum of S over p's children --
/// the bits (in report units) post p transmits per round. With the paper's
/// uniform workload this is 1 + D(p).
std::vector<double> subtree_rates(const Instance& instance, const graph::RoutingTree& tree);

/// Per-round energy E(p) consumed at each post under `tree`:
/// E(p) = S(p) e_tx + (S(p) - r_p) e_r + static_p.
std::vector<double> per_post_energy(const Instance& instance, const graph::RoutingTree& tree);

/// Sum of E(p): the network's per-round energy consumption, charger aside.
double tree_energy(const Instance& instance, const graph::RoutingTree& tree);

/// The objective value: total charger energy per round for `solution`.
double total_recharging_cost(const Instance& instance, const Solution& solution);

/// Charging-aware edge weight used by iterative RFH, IDB, local search and
/// the exact solver:
///   w(u,v) = e_tx(u->v)/(k(m_u) eta) + [v != base] e_r/(k(m_v) eta).
/// With this weight, the sum over all posts of their shortest-path distance
/// to the base equals the total recharging cost of the induced tree -- so a
/// single Dijkstra run both *finds* the optimal routing for a fixed
/// deployment and *prices* it.
///
/// The hot form is the 3-argument packed-tx call: the relaxation loops
/// stream each edge's tx energy from the ReachAdjacency arrays, so
/// evaluating a weight is one multiply with no (N+1)^2 matrix behind it --
/// which is what lets sparse-path solves skip the dense tx cache entirely.
/// The 2-argument form stays for cold random-access call sites and looks
/// the edge up through the instance.  Rebindable with zero allocation -- a
/// single-node move a -> b updates exactly the two touched efficiencies via
/// `set_node_count` -- and exposes `bounds()` so the Dijkstra can size its
/// bucket queue.
class RechargingWeight {
 public:
  RechargingWeight(const Instance& instance, const std::vector<int>& deployment);

  /// Rebinds every post's efficiency to `deployment` (no allocation).
  void assign(const std::vector<int>& deployment);
  /// Post `post` now holds `m` nodes; O(1).
  void set_node_count(int post, int m);
  /// Takes post `post` out of service: every edge into or out of it weighs
  /// +infinity (DeploymentPricer::disable_post).
  void disable(int post) { inv_eff_.at(static_cast<std::size_t>(post)) = graph::kInfinity; }
  /// Post `post`'s entry becomes `from`'s, bit for bit (disabled or not); O(1).
  void copy_entry(int post, const RechargingWeight& from) {
    inv_eff_.at(static_cast<std::size_t>(post)) = from.inv_eff_.at(static_cast<std::size_t>(post));
  }
  /// 1/(k(m) eta) of post `post`'s current node count.
  double inv_efficiency(int post) const { return inv_eff_[static_cast<std::size_t>(post)]; }
  const Instance& instance() const noexcept { return *instance_; }

  /// Packed-tx hot path: `tx` is the per-edge transmit energy streamed from
  /// the adjacency arrays.  `from` is always a post here: the reversed-edge
  /// Dijkstra never relaxes an edge out of the base station (it settles
  /// first), and the tight-edge scan only prices post -> * edges.
  double operator()(int from, int to, double tx) const noexcept {
    double w = tx * inv_eff_[static_cast<std::size_t>(from)];
    if (to != bs_) w += rx_ * inv_eff_[static_cast<std::size_t>(to)];
    return w;
  }

  /// Cold random-access form; throws when the pair is unreachable.
  double operator()(int from, int to) const {
    return (*this)(from, to, instance_->tx_energy(from, to));
  }

  /// Conservative weight bounds for the current efficiency table -- the
  /// bucket Dijkstra sizes its queue from these.  O(num_posts).
  graph::WeightBounds bounds() const;

 private:
  const Instance* instance_;
  double rx_;
  int bs_;
  std::vector<double> inv_eff_;  // 1/(k(m) eta), indexed by post
};

/// Edge weight for basic RFH Phase I and the balanced baseline:
/// w(u,v) = e_tx(u->v), plus e_r when `include_rx` and v is not the base
/// station.  Same packed-tx/random-access split as RechargingWeight.
class EnergyWeight {
 public:
  EnergyWeight(const Instance& instance, bool include_rx);

  double operator()(int /*from*/, int to, double tx) const noexcept {
    double w = tx;
    if (include_rx_ && to != bs_) w += rx_;
    return w;
  }

  double operator()(int from, int to) const {
    return (*this)(from, to, instance_->tx_energy(from, to));
  }

  graph::WeightBounds bounds() const;

 private:
  const Instance* instance_;
  double rx_;
  int bs_;
  bool include_rx_;
};

/// Reusable deployment-pricing state: one Dijkstra run's buffers plus the
/// rebindable weight.  Lets callers price thousands of deployments with
/// zero steady-state allocation; use one per thread in parallel loops (the
/// buffers are not synchronized).
struct CostEvalScratch {
  graph::DijkstraScratch dijkstra;
  std::optional<RechargingWeight> weight;  // bound lazily per instance
};

/// Total recharging cost of the *optimal* routing for a fixed deployment:
/// sum over posts of the charging-aware shortest-path distance.
/// Returns graph::kInfinity when some post cannot reach the base station.
double optimal_cost_for_deployment(const Instance& instance, const std::vector<int>& deployment);

/// Scratch-reusing overload of the above -- identical result, but the
/// solver hot loops (local search, IDB, RFH iterations) call it with a
/// long-lived scratch so per-candidate pricing allocates nothing and skips
/// the tight-edge DAG extraction entirely.
double optimal_cost_for_deployment(const Instance& instance, const std::vector<int>& deployment,
                                   CostEvalScratch& scratch);

/// Extracts a single-parent shortest-path tree from a DAG (first tight
/// parent, deterministic).
graph::RoutingTree spt_from_dag(const graph::ShortestPathDag& dag);

}  // namespace wrsn::core
