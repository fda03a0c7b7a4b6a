#include "core/idb.hpp"

#include "core/pricer.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

#include <stdexcept>

namespace wrsn::core {
namespace idb_detail {

namespace {

void multiset_recurse(int n, int remaining, int item, std::vector<int>& counts,
                      const std::function<void(const std::vector<int>&)>& visit) {
  if (remaining == 0) {
    visit(counts);
    return;
  }
  if (item == n - 1) {
    counts[static_cast<std::size_t>(item)] = remaining;
    visit(counts);
    counts[static_cast<std::size_t>(item)] = 0;
    return;
  }
  for (int take = remaining; take >= 0; --take) {
    counts[static_cast<std::size_t>(item)] = take;
    multiset_recurse(n, remaining - take, item + 1, counts, visit);
  }
  counts[static_cast<std::size_t>(item)] = 0;
}

}  // namespace

void for_each_multiset(int n, int delta,
                       const std::function<void(const std::vector<int>&)>& visit) {
  if (n <= 0 || delta < 0) throw std::invalid_argument("for_each_multiset: bad arguments");
  std::vector<int> counts(static_cast<std::size_t>(n), 0);
  multiset_recurse(n, delta, 0, counts, visit);
}

}  // namespace idb_detail

IdbResult solve_idb(const Instance& instance, const IdbOptions& options) {
  if (options.delta < 1) throw std::invalid_argument("IDB requires delta >= 1");
  WRSN_TRACE_SPAN("idb/solve");
  const int n = instance.num_posts();

  std::vector<int> deployment(static_cast<std::size_t>(n), 1);
  IdbResult result{
      Solution{graph::RoutingTree(n, instance.graph().base_station()), {}}, 0.0, 0, 0, {}};

  int remaining = instance.spare_nodes();

  if (options.delta == 1) {
    // Fast path: price each one-node addition incrementally instead of
    // re-running Dijkstra per candidate (see core/pricer.hpp).
    DeploymentPricer pricer(instance, deployment);
    while (remaining > 0) {
      int best_post = -1;
      double best_cost = graph::kInfinity;
      for (int j = 0; j < n; ++j) {
        const double cost = pricer.cost_with_extra_node(j);
        ++result.evaluations;
        if (cost < best_cost) {
          best_cost = cost;
          best_post = j;
        }
      }
      if (best_post < 0) throw InfeasibleInstance("IDB found no placeable candidate");
      pricer.add_node(best_post);
      --remaining;
      ++result.rounds;
      if (options.record_history) result.per_iteration_cost.push_back(best_cost);
      if (options.sink != nullptr) {
        options.sink->on_idb_round({result.rounds - 1, best_cost, result.evaluations});
      }
    }
    deployment = pricer.deployment();
    remaining = 0;
  }

  // One scratch + one tentative buffer for the whole delta > 1 sweep: the
  // multiset loop prices thousands of candidates and must not allocate or
  // rebuild weight tables per candidate.
  CostEvalScratch scratch;
  std::vector<int> tentative;
  while (remaining > 0) {
    const int batch = std::min(options.delta, remaining);
    double best_cost = graph::kInfinity;
    std::vector<int> best_addition;

    idb_detail::for_each_multiset(n, batch, [&](const std::vector<int>& addition) {
      tentative = deployment;
      for (int i = 0; i < n; ++i) {
        tentative[static_cast<std::size_t>(i)] += addition[static_cast<std::size_t>(i)];
      }
      // Pricing a deployment = one charging-aware Dijkstra: the sum of the
      // per-post shortest-path distances *is* the optimal tree's cost.
      const double cost = optimal_cost_for_deployment(instance, tentative, scratch);
      ++result.evaluations;
      if (cost < best_cost) {
        best_cost = cost;
        best_addition = addition;
      }
    });

    if (best_addition.empty()) {
      throw InfeasibleInstance("IDB found no placeable candidate (disconnected instance)");
    }
    for (int i = 0; i < n; ++i) {
      deployment[static_cast<std::size_t>(i)] += best_addition[static_cast<std::size_t>(i)];
    }
    remaining -= batch;
    ++result.rounds;
    if (options.record_history) result.per_iteration_cost.push_back(best_cost);
    if (options.sink != nullptr) {
      options.sink->on_idb_round({result.rounds - 1, best_cost, result.evaluations});
    }
  }

  // Final routing for the committed deployment.
  const RechargingWeight weight(instance, deployment);
  const auto dag =
      graph::shortest_paths_to_base(instance.graph(), instance.adjacency(), weight);
  if (!dag.all_posts_reachable) {
    throw InfeasibleInstance("some post cannot reach the base station");
  }
  result.solution = Solution{spt_from_dag(dag), deployment};
  result.cost = total_recharging_cost(instance, result.solution);
  return result;
}

}  // namespace wrsn::core
