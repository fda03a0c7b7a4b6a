#include "core/rfh.hpp"

#include "core/allocation.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

namespace wrsn::core {
namespace rfh_detail {

void trim_subtree(graph::ShortestPathDag& dag, graph::DagReach& reach, int p) {
  const int bs = dag.base_station;
  auto& through = reach.through;
  auto& descendants = reach.descendants;
  const graph::Bitset& desc_p = descendants[static_cast<std::size_t>(p)];
  bool any_deleted = false;
  // Descendant sets are usually far smaller than n, so walk their set
  // bits instead of probing every post.
  desc_p.for_each_set_bit([&](std::size_t d) {
    auto& parents = dag.parents[d];
    const auto keep = [&](int q) {
      return q == p || (q != bs && desc_p.test(static_cast<std::size_t>(q)));
    };
    const auto new_end = std::partition(parents.begin(), parents.end(), keep);
    if (new_end != parents.end()) {
      parents.erase(new_end, parents.end());
      any_deleted = true;
    }
    if (parents.empty()) {
      throw std::logic_error("Phase II disconnected a post (bug in trimming)");
    }
  });
  if (!any_deleted) return;

  // Keep the closure exact (the paper's "positions in the queue may have
  // to be changed").  With D = descendants[p] and K = {p} + D + through[p],
  // the deletions change exactly through[d] &= K for each d in D, and
  // descendants[q] -= D for each post q outside K that some d routed
  // through; nothing else.  docs/performance.md has the proof.
  graph::Bitset kept = desc_p;
  kept |= through[static_cast<std::size_t>(p)];
  kept.set(static_cast<std::size_t>(p));
  graph::Bitset upstream(kept.size());
  desc_p.for_each_set_bit([&](std::size_t d) {
    upstream |= through[d];
    through[d] &= kept;
  });
  upstream.and_not(kept);
  upstream.for_each_set_bit([&](std::size_t q) {
    descendants[q].and_not(desc_p);
    reach.workload[q] = static_cast<int>(descendants[q].count());
  });
}

graph::RoutingTree trim_fat_tree(graph::ShortestPathDag& dag) {
  const int n_vertices = dag.num_vertices();
  const int n_posts = n_vertices - 1;
  const int bs = dag.base_station;

  // One full closure per call; trim_subtree keeps it exact from then on.
  static obs::Counter& rebuilds = obs::Registry::global().counter("rfh/closure_rebuilds");
  graph::DagReach reach = graph::compute_dag_reach(dag);
  rebuilds.increment();
  const std::vector<int>& workload = reach.workload;

  std::vector<char> processed(static_cast<std::size_t>(n_vertices), 0);
  processed[static_cast<std::size_t>(bs)] = 1;

  for (int step = 0; step < n_posts; ++step) {
    // Head of the paper's queue L: the unprocessed post with the largest
    // routing workload (number of DAG descendants). Selecting the max each
    // step is equivalent to maintaining the sorted queue and re-positioning
    // entries whose workload changed.
    int p = -1;
    for (int v = 0; v < n_posts; ++v) {
      if (processed[static_cast<std::size_t>(v)]) continue;
      if (p < 0 || workload[static_cast<std::size_t>(v)] >
                       workload[static_cast<std::size_t>(p)]) {
        p = v;
      }
    }
    if (p < 0) break;
    processed[static_cast<std::size_t>(p)] = 1;
    trim_subtree(dag, reach, p);
  }

  // Every post keeps exactly one parent.  Were v to keep q1 and q2, q1
  // trimmed first, then q2 lies in desc(q1) and later q1 in desc(q2): each
  // farther from the base than the other.  A base-station parent beside q
  // goes when q is trimmed, since the base is never in desc(q).
  graph::RoutingTree tree(n_posts, bs);
  for (int v = 0; v < n_posts; ++v) {
    const auto& parents = dag.parents[static_cast<std::size_t>(v)];
    if (parents.size() != 1) {
      throw std::logic_error("Phase II left a post without exactly one parent");
    }
    tree.set_parent(v, parents.front());
  }
  if (!tree.is_valid()) throw std::logic_error("Phase II produced an invalid tree");
  return tree;
}

template <class WeightT>
void merge_siblings(const Instance& instance, const WeightT& weight, graph::RoutingTree& tree) {
  const auto& adj = instance.adjacency();
  const int n = instance.num_posts();
  const std::vector<std::vector<int>> children = tree.children();
  std::vector<int> workload = tree.descendant_counts();

  // The head scan walks the kid's out-edges and filters by head membership
  // instead of probing every head for reachability: O(deg(kid)) per kid.
  // `head_pos` records each head's insertion rank, so the winner is the
  // lexicographic (cost, insertion-order) minimum whatever order the edges
  // come in (pinned against the probe scan by
  // MergeSiblings.SparseMatchesDenseOracle).
  std::vector<int> head_pos(static_cast<std::size_t>(n), -1);

  // Examine every vertex that has at least two children, base station
  // included. Children are considered busiest-first so heads end up being
  // the posts that already carry the most workload.
  for (int parent_idx = 0; parent_idx <= n; ++parent_idx) {
    const int parent_vertex = parent_idx == n ? tree.base_station() : parent_idx;
    std::vector<int> kids = children[static_cast<std::size_t>(parent_idx)];
    if (kids.size() < 2) continue;
    std::sort(kids.begin(), kids.end(), [&](int a, int b) {
      return workload[static_cast<std::size_t>(a)] > workload[static_cast<std::size_t>(b)];
    });

    std::vector<int> heads;
    for (int kid : kids) {
      // Cheapest head this kid can reach more cheaply than its parent;
      // exact-cost ties keep the earliest-inserted head.
      int best_head = -1;
      int best_rank = n;
      double best_cost = weight(kid, parent_vertex);
      const auto out = adj.out(kid);
      const double* tx = adj.out_tx(kid);
      for (std::size_t i = 0; i < out.size(); ++i) {
        const int to = out[i];
        if (to >= n) continue;  // base station is never a head
        const int rank = head_pos[static_cast<std::size_t>(to)];
        if (rank < 0) continue;
        const double c = weight(kid, to, tx[i]);
        if (c < best_cost || (best_head >= 0 && c == best_cost && rank < best_rank)) {
          best_cost = c;
          best_head = to;
          best_rank = rank;
        }
      }
      if (best_head >= 0) {
        tree.set_parent(kid, best_head);
      } else {
        head_pos[static_cast<std::size_t>(kid)] = static_cast<int>(heads.size());
        heads.push_back(kid);
      }
    }
    for (int head : heads) head_pos[static_cast<std::size_t>(head)] = -1;
  }
  if (!tree.is_valid()) throw std::logic_error("Phase III produced an invalid tree");
}

template void merge_siblings(const Instance&, const EnergyWeight&, graph::RoutingTree&);
template void merge_siblings(const Instance&, const RechargingWeight&, graph::RoutingTree&);

std::vector<double> phase4_weights(const Instance& instance, const graph::RoutingTree& tree,
                                   WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::Energy:
      return per_post_energy(instance, tree);
    case WorkloadKind::Bits: {
      const std::vector<int> descendants = tree.descendant_counts();
      std::vector<double> weights(descendants.size());
      for (std::size_t i = 0; i < descendants.size(); ++i) {
        weights[i] = 1.0 + static_cast<double>(descendants[i]);
      }
      return weights;
    }
  }
  throw std::logic_error("unknown WorkloadKind");
}

}  // namespace rfh_detail

RfhResult solve_rfh(const Instance& instance, const RfhOptions& options) {
  if (options.iterations < 1) throw std::invalid_argument("RFH needs at least one iteration");
  WRSN_TRACE_SPAN("rfh/solve");

  RfhResult result{
      Solution{graph::RoutingTree(instance.num_posts(), instance.graph().base_station()), {}},
      graph::kInfinity,
      {},
      0};

  std::vector<int> deployment;  // empty until the first Phase IV
  const EnergyWeight energy(instance, options.rx_in_weight);
  std::optional<RechargingWeight> recharging;  // rebound per iteration
  for (int iter = 0; iter < options.iterations; ++iter) {
    WRSN_TRACE_SPAN("rfh/iteration");
    // Phase I weights: plain per-bit energy on the first pass, true
    // recharging cost (charging-aware) once a deployment exists.  Both
    // stream per-edge tx energies from the CSR adjacency (no dense matrix);
    // the recharging weight is rebound in place instead of rebuilt per
    // iteration.
    const bool charging_aware = !deployment.empty();
    if (charging_aware) {
      if (recharging.has_value()) {
        recharging->assign(deployment);
      } else {
        recharging.emplace(instance, deployment);
      }
    }

    graph::ShortestPathDag dag = [&] {
      WRSN_TRACE_SPAN("rfh/phase1");
      return charging_aware
                 ? graph::shortest_paths_to_base(instance.graph(), instance.adjacency(),
                                                 *recharging)
                 : graph::shortest_paths_to_base(instance.graph(), instance.adjacency(), energy);
    }();
    if (!dag.all_posts_reachable) {
      throw InfeasibleInstance("some post cannot reach the base station");
    }
    int fat_tree_edges = 0;
    for (const auto& parents : dag.parents) {
      fat_tree_edges += static_cast<int>(parents.size());
    }

    graph::RoutingTree tree = [&] {
      WRSN_TRACE_SPAN("rfh/phase2");
      return options.concentrate_workload ? rfh_detail::trim_fat_tree(dag)
                                          : spt_from_dag(dag);
    }();
    if (options.merge_siblings) {
      WRSN_TRACE_SPAN("rfh/phase3");
      if (charging_aware) {
        rfh_detail::merge_siblings(instance, *recharging, tree);
      } else {
        rfh_detail::merge_siblings(instance, energy, tree);
      }
    }

    {
      WRSN_TRACE_SPAN("rfh/phase4");
      const std::vector<double> weights =
          rfh_detail::phase4_weights(instance, tree, options.workload_kind);
      deployment = options.allocation == AllocationRule::kGreedyExact
                       ? greedy_allocate(weights, instance.num_nodes())
                       : lagrange_allocate(weights, instance.num_nodes());
    }

    Solution candidate{tree, deployment};
    const double cost = total_recharging_cost(instance, candidate);
    result.per_iteration_cost.push_back(cost);
    if (cost < result.cost) {
      result.cost = cost;
      result.solution = std::move(candidate);
      result.best_iteration = iter;
    }
    if (options.sink != nullptr) {
      options.sink->on_rfh_iteration({iter, cost, result.cost, fat_tree_edges});
    }
  }
  return result;
}

}  // namespace wrsn::core
