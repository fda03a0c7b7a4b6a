#include "core/cost.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wrsn::core {

std::vector<double> subtree_rates(const Instance& instance, const graph::RoutingTree& tree) {
  const int n = instance.num_posts();
  if (!tree.is_valid()) throw std::invalid_argument("subtree_rates requires a valid tree");
  std::vector<double> rates(static_cast<std::size_t>(n), 0.0);
  for (int p : tree.leaves_first_order()) {
    rates[static_cast<std::size_t>(p)] += instance.report_rate(p);
    const int parent = tree.parent(p);
    if (parent != tree.base_station()) {
      rates[static_cast<std::size_t>(parent)] += rates[static_cast<std::size_t>(p)];
    }
  }
  return rates;
}

std::vector<double> per_post_energy(const Instance& instance, const graph::RoutingTree& tree) {
  const int n = instance.num_posts();
  const std::vector<double> rates = subtree_rates(instance, tree);
  std::vector<double> energy(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    const double e_tx = instance.tx_energy(p, tree.parent(p));
    const double through = rates[static_cast<std::size_t>(p)];
    const double forwarded = through - instance.report_rate(p);
    energy[static_cast<std::size_t>(p)] =
        through * e_tx + forwarded * instance.rx_energy() + instance.static_energy(p);
  }
  return energy;
}

double tree_energy(const Instance& instance, const graph::RoutingTree& tree) {
  double total = 0.0;
  for (double e : per_post_energy(instance, tree)) total += e;
  return total;
}

double total_recharging_cost(const Instance& instance, const Solution& solution) {
  const std::vector<double> energy = per_post_energy(instance, solution.tree);
  if (solution.deployment.size() != energy.size()) {
    throw std::invalid_argument("deployment size does not match the instance");
  }
  double total = 0.0;
  for (std::size_t p = 0; p < energy.size(); ++p) {
    total += instance.charging().charger_energy_for(energy[p], solution.deployment[p]);
  }
  return total;
}

RechargingWeight::RechargingWeight(const Instance& instance,
                                   const std::vector<int>& deployment)
    : instance_(&instance),
      rx_(instance.rx_energy()),
      bs_(instance.graph().base_station()),
      inv_eff_(static_cast<std::size_t>(instance.num_posts())) {
  assign(deployment);
}

void RechargingWeight::assign(const std::vector<int>& deployment) {
  if (deployment.size() != inv_eff_.size()) {
    throw std::invalid_argument("deployment size does not match the instance");
  }
  for (std::size_t i = 0; i < deployment.size(); ++i) {
    inv_eff_[i] = 1.0 / instance_->charging().efficiency(deployment[i]);
  }
}

void RechargingWeight::set_node_count(int post, int m) {
  inv_eff_.at(static_cast<std::size_t>(post)) = 1.0 / instance_->charging().efficiency(m);
}

graph::WeightBounds RechargingWeight::bounds() const {
  const auto [min_it, max_it] = std::minmax_element(inv_eff_.begin(), inv_eff_.end());
  const auto& adj = instance_->adjacency();
  // Every weight is tx*inv_from (+ rx*inv_to off-base), so the extremes of
  // the packed tx range times the extremes of the efficiency table bound it.
  return graph::WeightBounds{adj.min_tx() * *min_it,
                             adj.max_tx() * *max_it + rx_ * *max_it};
}

EnergyWeight::EnergyWeight(const Instance& instance, bool include_rx)
    : instance_(&instance),
      rx_(instance.rx_energy()),
      bs_(instance.graph().base_station()),
      include_rx_(include_rx) {}

graph::WeightBounds EnergyWeight::bounds() const {
  const auto& adj = instance_->adjacency();
  return graph::WeightBounds{adj.min_tx(), adj.max_tx() + (include_rx_ ? rx_ : 0.0)};
}

double optimal_cost_for_deployment(const Instance& instance, const std::vector<int>& deployment) {
  CostEvalScratch scratch;
  return optimal_cost_for_deployment(instance, deployment, scratch);
}

double optimal_cost_for_deployment(const Instance& instance, const std::vector<int>& deployment,
                                   CostEvalScratch& scratch) {
  if (static_cast<int>(deployment.size()) != instance.num_posts()) {
    throw std::invalid_argument("deployment size does not match the instance");
  }
  if (!scratch.weight.has_value() || &scratch.weight->instance() != &instance) {
    scratch.weight.emplace(instance, deployment);
  } else {
    scratch.weight->assign(deployment);
  }
  const bool reachable = graph::shortest_distances_to_base(
      instance.graph(), instance.adjacency(), *scratch.weight, scratch.dijkstra);
  if (!reachable) return graph::kInfinity;
  // Each source contributes its rate times its per-bit path cost; static
  // draws are routed-independent but still paid through the post's
  // charging efficiency.
  double total = 0.0;
  for (int p = 0; p < instance.num_posts(); ++p) {
    total += instance.report_rate(p) * scratch.dijkstra.dist[static_cast<std::size_t>(p)];
    total += instance.charging().charger_energy_for(instance.static_energy(p),
                                                    deployment[static_cast<std::size_t>(p)]);
  }
  return total;
}

graph::RoutingTree spt_from_dag(const graph::ShortestPathDag& dag) {
  const int n = dag.num_vertices() - 1;
  graph::RoutingTree tree(n, dag.base_station);
  for (int p = 0; p < n; ++p) {
    const auto& parents = dag.parents[static_cast<std::size_t>(p)];
    if (parents.empty()) throw std::invalid_argument("DAG has an unreachable post");
    tree.set_parent(p, parents.front());
  }
  return tree;
}

}  // namespace wrsn::core
