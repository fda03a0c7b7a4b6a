#include "core/failures.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/idb.hpp"

namespace wrsn::core {
namespace {

std::vector<char> failure_mask(const Instance& instance, const std::vector<int>& failed_posts) {
  std::vector<char> failed(static_cast<std::size_t>(instance.num_posts()), 0);
  for (int p : failed_posts) {
    if (p < 0 || p >= instance.num_posts()) {
      throw std::out_of_range("failed post index out of range");
    }
    failed[static_cast<std::size_t>(p)] = 1;
  }
  return failed;
}

}  // namespace

SubInstance remove_posts(const Instance& instance, const std::vector<int>& failed_posts,
                         int num_nodes) {
  const std::vector<char> failed = failure_mask(instance, failed_posts);

  SubInstance sub{instance, {}, {}};  // instance replaced below
  sub.from_original.assign(static_cast<std::size_t>(instance.num_posts()), -1);
  for (int p = 0; p < instance.num_posts(); ++p) {
    if (failed[static_cast<std::size_t>(p)]) continue;
    sub.from_original[static_cast<std::size_t>(p)] = static_cast<int>(sub.to_original.size());
    sub.to_original.push_back(p);
  }
  const int survivors = static_cast<int>(sub.to_original.size());
  if (survivors == 0) throw InfeasibleInstance("every post failed");

  // Induced reachability graph (works for geometric and abstract alike).
  graph::ReachGraph induced(survivors);
  const int sub_bs = induced.base_station();
  const int bs = instance.graph().base_station();
  for (int a = 0; a < survivors; ++a) {
    const int pa = sub.to_original[static_cast<std::size_t>(a)];
    for (int b = 0; b < survivors; ++b) {
      if (a == b) continue;
      const int pb = sub.to_original[static_cast<std::size_t>(b)];
      const int level = instance.graph().min_level(pa, pb);
      if (level != graph::ReachGraph::kUnreachable) induced.set_min_level(a, b, level);
    }
    const int to_base = instance.graph().min_level(pa, bs);
    if (to_base != graph::ReachGraph::kUnreachable) induced.set_min_level(a, sub_bs, to_base);
    const int from_base = instance.graph().min_level(bs, pa);
    if (from_base != graph::ReachGraph::kUnreachable) induced.set_min_level(sub_bs, a, from_base);
  }

  Workload workload;
  for (int a = 0; a < survivors; ++a) {
    const int p = sub.to_original[static_cast<std::size_t>(a)];
    workload.report_rates.push_back(instance.report_rate(p));
    workload.static_energy.push_back(instance.static_energy(p));
  }

  if (instance.field()) {
    geom::Field field;
    field.width = instance.field()->width;
    field.height = instance.field()->height;
    field.base_station = instance.field()->base_station;
    for (int a = 0; a < survivors; ++a) {
      field.posts.push_back(
          instance.field()->posts[static_cast<std::size_t>(sub.to_original[static_cast<std::size_t>(a)])]);
    }
    sub.instance = Instance::geometric(std::move(field), instance.radio(), instance.charging(),
                                       num_nodes, std::move(workload));
  } else {
    sub.instance = Instance::abstract(std::move(induced), instance.radio(), instance.charging(),
                                      num_nodes, std::move(workload));
  }
  return sub;
}

bool survives_failure(const Instance& instance, const std::vector<int>& failed_posts) {
  const std::vector<char> failed = failure_mask(instance, failed_posts);
  const int survivors =
      instance.num_posts() - static_cast<int>(std::count(failed.begin(), failed.end(), 1));
  if (survivors == 0) return false;
  try {
    remove_posts(instance, failed_posts, survivors);  // one node per survivor
    return true;
  } catch (const InfeasibleInstance&) {
    return false;
  }
}

FailureImpact assess_failure(const Instance& instance, const Solution& solution,
                             const std::vector<int>& failed_posts) {
  if (!is_valid_solution(instance, solution)) {
    throw std::invalid_argument("assess_failure requires a valid solution");
  }
  const std::vector<char> failed = failure_mask(instance, failed_posts);

  FailureImpact impact;
  int surviving_nodes = 0;
  for (int p = 0; p < instance.num_posts(); ++p) {
    const int m = solution.deployment[static_cast<std::size_t>(p)];
    if (failed[static_cast<std::size_t>(p)]) {
      impact.nodes_lost += m;
    } else {
      surviving_nodes += m;
    }
  }

  SubInstance sub{instance, {}, {}};
  try {
    sub = remove_posts(instance, failed_posts, surviving_nodes);
  } catch (const InfeasibleInstance&) {
    impact.connected = false;
    impact.cost_fixed_deployment = graph::kInfinity;
    impact.cost_redeployed = graph::kInfinity;
    return impact;
  }
  impact.connected = true;

  // Kept-in-place deployment on the sub-instance.
  std::vector<int> kept;
  kept.reserve(sub.to_original.size());
  for (int p : sub.to_original) {
    kept.push_back(solution.deployment[static_cast<std::size_t>(p)]);
  }
  impact.cost_fixed_deployment = optimal_cost_for_deployment(sub.instance, kept);

  // Map the re-optimized routing back to original indices.
  const auto dag = graph::shortest_paths_to_base(sub.instance.graph(), sub.instance.adjacency(),
                                                 RechargingWeight(sub.instance, kept));
  if (dag.all_posts_reachable) {
    graph::RoutingTree tree(instance.num_posts(), instance.graph().base_station());
    for (int a = 0; a < sub.instance.num_posts(); ++a) {
      const int parent_sub = dag.parents[static_cast<std::size_t>(a)].front();
      const int original = sub.to_original[static_cast<std::size_t>(a)];
      const int parent = parent_sub == sub.instance.graph().base_station()
                             ? instance.graph().base_station()
                             : sub.to_original[static_cast<std::size_t>(parent_sub)];
      tree.set_parent(original, parent);
    }
    // Failed posts keep kNoParent; the partial tree documents the survivors.
    impact.routing_fixed = Solution{std::move(tree), solution.deployment};
  }

  impact.cost_redeployed = solve_idb(sub.instance).cost;
  return impact;
}

}  // namespace wrsn::core
