// Dynamic deployment pricing: incremental shortest-path repair for every
// single-post deployment change.
//
// Deployment searches (IDB, local search, the exact branch-and-bound) price
// thousands of candidate deployments, each differing from a committed one at
// one or two posts.  A fresh Dijkstra per candidate costs O(N^2); but a
// deployment change at post j only reweights the edges incident to j, so the
// new shortest-path distances can be repaired from the old ones:
//
//   * additions (m_j + 1) only *decrease* weights: improve-only relaxation
//     seeded at j restores the exact fixpoint, usually touching a handful of
//     vertices;
//   * removals (m_j - 1) *increase* weights: only vertices whose shortest
//     path routes through j can get worse.  The pricer maintains one tight
//     parent per vertex, invalidates exactly j's subtree in that tree
//     (the "repair region"), re-seeds each region vertex from its intact
//     out-neighbors, and re-runs a Dijkstra bounded to the region.  When the
//     region exceeds `Options::full_recompute_fraction` of the posts it
//     falls back to one full recompute instead;
//   * moves (a -> b) compose a removal repair and an addition relaxation.
//     The pricer keeps the post-removal distances and efficiencies of the
//     last donor priced (the "donor cache"), so a scan over every receiver
//     b of one donor -- local search's order -- repairs a's removal once
//     and pays only b's relaxation per move.  Any commit drops the cache;
//     a price never depends on what was priced before it;
//   * disabling a post (site destroyed, all nodes lost) drives its edge
//     weights to +infinity and repairs the survivors the same way a removal
//     does -- the online fault-repair loop in sim::NetworkSim re-attaches
//     orphaned subtrees from the repaired parent tree instead of re-running
//     Dijkstra per fault.
//
// This turns candidate pricing from O(N * Dijkstra) into nearly
// O(N + affected region) -- a >= 5x win at the paper's largest scales
// (N = 300, bench/micro_hotpaths BM_move_price_*), with region sizes
// recorded in the `pricer/repair_region_size` histogram and fallbacks in
// `pricer/full_fallbacks` (docs/observability.md), one record per removal
// repair: per donor scanned, not per candidate move.
//
// Correctness: every repaired distance equals a fresh Dijkstra on the
// modified deployment up to floating-point summation order (relative 1e-9,
// the library-wide FP-tolerance contract; see docs/performance.md).  The
// add-only path preserves the historical arithmetic exactly.  Instances of
// this class are not thread-safe; parallel searches keep one per worker.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "core/cost.hpp"
#include "core/instance.hpp"

namespace wrsn::core {

/// Maintains charging-aware shortest-path distances for a deployment and
/// prices single-post additions, removals and moves without full
/// recomputation.
class DeploymentPricer {
 public:
  struct Options {
    /// Decremental repairs whose region exceeds this fraction of the posts
    /// fall back to one full recompute (the bounded repair would do more
    /// work than a fresh Dijkstra).
    double full_recompute_fraction = 0.5;
  };

  /// `deployment` must have one entry >= 1 per post. Runs one full Dijkstra.
  /// (Two overloads rather than `Options options = {}`: a nested class with
  /// default member initializers cannot be brace-defaulted in an enclosing
  /// class's default argument.)
  DeploymentPricer(const Instance& instance, std::vector<int> deployment);
  DeploymentPricer(const Instance& instance, std::vector<int> deployment, Options options);

  const std::vector<int>& deployment() const noexcept { return deployment_; }
  /// Total recharging cost of the current deployment under optimal routing.
  double base_cost() const noexcept { return base_cost_; }

  /// Cost if one extra node were placed at post `j` (const: does not
  /// commit). Exact, up to floating-point summation order.
  double cost_with_extra_node(int j) const;
  /// Cost if one node were removed from post `a` (requires m_a >= 2).
  double cost_with_removed_node(int a) const;
  /// Cost if one node moved from post `a` to post `b` (requires m_a >= 2).
  /// `a == b` returns `base_cost()`.
  double cost_with_moved_node(int a, int b) const;
  /// Cost with `extra[i].second >= 0` additional nodes at post
  /// `extra[i].first` (posts must be distinct): one multi-seeded improve-only
  /// relaxation.  Prices the exact solver's optimistic tail bound.
  double cost_with_added_nodes(const std::vector<std::pair<int, int>>& extra) const;

  /// Commits an extra node at post `j`, updating distances incrementally.
  void add_node(int j);
  /// Commits removing one node from post `a` (requires m_a >= 2).
  void remove_node(int a);
  /// Commits moving one node from post `a` to post `b` (requires m_a >= 2).
  void move_node(int a, int b);
  /// Commits taking post `a` out of service entirely (site destroyed, all
  /// nodes lost): its deployment drops to zero, every edge through it
  /// becomes unusable, and its report no longer contributes to the cost.
  /// Survivors cut off from the base station keep `distance() == infinity`
  /// and `parent() == -1`; `base_cost()` is infinite while any enabled post
  /// is unreachable.  Throws std::invalid_argument if already disabled.
  void disable_post(int a);
  bool is_disabled(int p) const {
    return !disabled_.empty() && disabled_.at(static_cast<std::size_t>(p)) != 0;
  }
  int num_disabled() const noexcept { return num_disabled_; }

  /// Current distance of `v` to the base station (for tests/diagnostics).
  double distance(int v) const { return dist_.at(static_cast<std::size_t>(v)); }
  /// Current tight next hop of post `p` toward the base station
  /// (for tests/diagnostics).
  int parent(int p) const { return parent_.at(static_cast<std::size_t>(p)); }

 private:
  /// Improve-only relaxation seeded at `sources` (posts whose efficiency
  /// just improved): restores the fixpoint after weight decreases.  Updates
  /// `parents` when non-null.
  void improve_relax(const std::vector<int>& sources, const RechargingWeight& weight,
                     std::vector<double>& dist, std::vector<int>* parents) const;
  /// Decremental repair after a weight increase at post `a`: invalidates
  /// a's parent-tree subtree, re-seeds it, and reruns a bounded Dijkstra
  /// over the region (or falls back to `full_recompute`).
  void repair_increase(int a, const RechargingWeight& weight, std::vector<double>& dist,
                       std::vector<int>* parents) const;
  /// One fresh Dijkstra under `weight`; rebuilds `parents` from scratch when
  /// non-null.
  void full_recompute(const RechargingWeight& weight, std::vector<double>& dist,
                      std::vector<int>* parents) const;
  /// Loads the donor cache with the state after removing one node from post
  /// `a` (m_a >= 2): the committed efficiencies with a's entry lowered, and
  /// the distances `repair_increase` repairs under them.  No-op on a hit.
  void load_donor(int a) const;
  /// Forgets the cached donor; every commit calls it.
  void drop_donor() noexcept { donor_ = -1; }
  /// Collects a's subtree in the committed parent tree into `region_` /
  /// `in_region_` (caller must clear `in_region_` flags afterwards).
  void collect_region(int a) const;
  /// Rebuilds the cached children lists of the parent tree when stale.
  void refresh_children() const;
  /// Sum over posts of report_rate(p) * dist[p].
  double weighted_distance_sum(const std::vector<double>& dist) const;

  const Instance* instance_;
  Options options_;
  int bs_ = 0;
  std::vector<int> deployment_;
  RechargingWeight weight_;      // committed efficiencies; +inf when disabled
  std::vector<double> dist_;     // per vertex, exact for current deployment
  std::vector<int> parent_;      // per post: a tight next hop toward the base
                                 // (-1 for disabled/unreachable posts)
  std::vector<char> disabled_;   // posts taken out of service
  int num_disabled_ = 0;
  double base_cost_ = 0.0;
  double static_sum_ = 0.0;      // sum of static_p / (k(m_p) eta), enabled posts

  // Children lists of the committed parent tree (CSR layout), rebuilt
  // lazily: candidate evaluations between two commits share one build.
  mutable std::vector<int> child_offset_;
  mutable std::vector<int> child_list_;
  mutable bool children_stale_ = true;

  // Reusable buffers for candidate evaluation and repair.  They make the
  // const pricing methods non-reentrant: one pricer per thread.
  mutable std::vector<double> scratch_dist_;
  mutable RechargingWeight scratch_weight_;
  mutable std::vector<int> sources_;
  mutable std::vector<int> region_;
  mutable std::vector<char> in_region_;
  mutable std::vector<std::pair<double, int>> heap_;
  mutable std::vector<char> settled_;  // for the disabled-aware dense Dijkstra
  mutable graph::DijkstraScratch full_scratch_;

  // Donor cache: the state after removing one node from `donor_` (-1: none
  // cached).  `donor_weight_` equals `weight_` at every post but `donor_`
  // while a donor is cached, and may be stale at any post once dropped.
  // Allocated on first use, so pricers that never price a removal (IDB,
  // the exact search, the daemon's sessions) never hold it.
  mutable int donor_ = -1;
  mutable std::vector<double> donor_dist_;
  mutable std::optional<RechargingWeight> donor_weight_;
};

}  // namespace wrsn::core
