#include "core/baseline.hpp"

#include <stdexcept>

namespace wrsn::core {

std::vector<int> balanced_deployment(int num_posts, int num_nodes) {
  if (num_posts <= 0 || num_nodes < num_posts) {
    throw std::invalid_argument("balanced deployment needs M >= N >= 1");
  }
  std::vector<int> deployment(static_cast<std::size_t>(num_posts), num_nodes / num_posts);
  for (int i = 0; i < num_nodes % num_posts; ++i) ++deployment[static_cast<std::size_t>(i)];
  return deployment;
}

BaselineResult solve_min_hop_baseline(const Instance& instance) {
  // Hop count as the dominant term, per-bit energy as the tie-break: the
  // epsilon must be small enough that no energy sum ever outweighs a hop.
  const double max_tx = instance.radio().tx_energy(instance.radio().num_levels() - 1);
  const double rx = instance.rx_energy();
  const double scale = 1e-3 / (max_tx + rx);
  const auto weight = [scale, rx](int /*from*/, int /*to*/, double tx) {
    return 1.0 + scale * (tx + rx);
  };
  const auto dag =
      graph::shortest_paths_to_base(instance.graph(), instance.adjacency(), weight);
  if (!dag.all_posts_reachable) {
    throw InfeasibleInstance("some post cannot reach the base station");
  }
  BaselineResult result{
      Solution{spt_from_dag(dag), balanced_deployment(instance.num_posts(), instance.num_nodes())},
      0.0};
  result.cost = total_recharging_cost(instance, result.solution);
  return result;
}

BaselineResult solve_balanced_baseline(const Instance& instance, bool rx_in_weight) {
  const auto dag = graph::shortest_paths_to_base(instance.graph(), instance.adjacency(),
                                                 EnergyWeight(instance, rx_in_weight));
  if (!dag.all_posts_reachable) {
    throw InfeasibleInstance("some post cannot reach the base station");
  }
  BaselineResult result{
      Solution{spt_from_dag(dag), balanced_deployment(instance.num_posts(), instance.num_nodes())},
      0.0};
  result.cost = total_recharging_cost(instance, result.solution);
  return result;
}

}  // namespace wrsn::core
