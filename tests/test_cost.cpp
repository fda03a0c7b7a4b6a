#include "core/cost.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/baseline.hpp"
#include "helpers.hpp"

namespace wrsn::core {
namespace {

/// Chain of 3 posts at 20 m spacing, every hop level 0.
class CostChain : public ::testing::Test {
 protected:
  CostChain() : inst_(test::chain_instance(3, 6)) {
    tree_ = std::make_unique<graph::RoutingTree>(3, 3);
    tree_->set_parent(0, 3);  // post 0 is 20 m from the base
    tree_->set_parent(1, 0);
    tree_->set_parent(2, 1);
  }

  Instance inst_;
  std::unique_ptr<graph::RoutingTree> tree_;
};

TEST_F(CostChain, PerPostEnergyMatchesHandComputation) {
  const double e0 = inst_.radio().tx_energy(0);
  const double er = inst_.rx_energy();
  const auto energy = per_post_energy(inst_, *tree_);
  ASSERT_EQ(energy.size(), 3u);
  // post 2: leaf, transmits 1 bit at level 0.
  EXPECT_DOUBLE_EQ(energy[2], e0);
  // post 1: 1 descendant -> 2 tx, 1 rx.
  EXPECT_DOUBLE_EQ(energy[1], 2.0 * e0 + er);
  // post 0: 2 descendants -> 3 tx, 2 rx.
  EXPECT_DOUBLE_EQ(energy[0], 3.0 * e0 + 2.0 * er);
}

TEST_F(CostChain, TreeEnergyIsSum) {
  const auto energy = per_post_energy(inst_, *tree_);
  EXPECT_DOUBLE_EQ(tree_energy(inst_, *tree_), energy[0] + energy[1] + energy[2]);
}

TEST_F(CostChain, RechargingCostDividesByEfficiency) {
  const double eta = inst_.charging().eta();
  const auto energy = per_post_energy(inst_, *tree_);
  const Solution solution{*tree_, {2, 3, 1}};
  const double expected = energy[0] / (2.0 * eta) + energy[1] / (3.0 * eta) + energy[2] / eta;
  EXPECT_NEAR(total_recharging_cost(inst_, solution), expected, expected * 1e-12);
}

TEST_F(CostChain, WorkloadAlignedDeploymentBeatsMisaligned) {
  // Post 0 carries the whole chain (E0 > E1 > E2): allocating nodes in
  // workload order must beat the reversed allocation.
  const Solution aligned{*tree_, {3, 2, 1}};
  const Solution misaligned{*tree_, {1, 2, 3}};
  EXPECT_LT(total_recharging_cost(inst_, aligned),
            total_recharging_cost(inst_, misaligned));
}

TEST_F(CostChain, DeploymentSizeMismatchThrows) {
  const Solution bad{*tree_, {2, 2}};
  EXPECT_THROW(total_recharging_cost(inst_, bad), std::invalid_argument);
}

TEST(Cost, PerPostEnergyRequiresValidTree) {
  const Instance inst = test::chain_instance(2, 2);
  graph::RoutingTree incomplete(2, 2);
  incomplete.set_parent(0, 2);
  EXPECT_THROW(per_post_energy(inst, incomplete), std::invalid_argument);
}

TEST(Cost, EnergyWeightMatchesTxEnergy) {
  const Instance inst = test::chain_instance(3, 3);
  const EnergyWeight w_plain(inst, false);
  const EnergyWeight w_rx(inst, true);
  const int bs = inst.graph().base_station();
  EXPECT_DOUBLE_EQ(w_plain(1, 0), inst.tx_energy(1, 0));
  EXPECT_DOUBLE_EQ(w_rx(1, 0), inst.tx_energy(1, 0) + inst.rx_energy());
  // No receiver cost at the base station.
  EXPECT_DOUBLE_EQ(w_rx(0, bs), inst.tx_energy(0, bs));
}

TEST(Cost, RechargingWeightScalesWithDeployment) {
  const Instance inst = test::chain_instance(3, 6);
  const double eta = inst.charging().eta();
  const std::vector<int> deployment{2, 1, 3};
  const RechargingWeight w(inst, deployment);
  const int bs = inst.graph().base_station();
  EXPECT_NEAR(w(0, bs), inst.tx_energy(0, bs) / (2.0 * eta), 1e-9);
  EXPECT_NEAR(w(1, 0), inst.tx_energy(1, 0) / eta + inst.rx_energy() / (2.0 * eta), 1e-9);
  EXPECT_EQ(w.inv_efficiency(2), 1.0 / inst.charging().efficiency(3));
}

TEST(Cost, OptimalCostForDeploymentEqualsTreeCost) {
  // Sum-of-distances pricing must equal evaluating the extracted tree.
  util::Rng rng(31);
  const Instance inst = test::random_instance(20, 45, 150.0, rng);
  const std::vector<int> deployment = balanced_deployment(20, 45);
  const double priced = optimal_cost_for_deployment(inst, deployment);
  const auto dag = graph::shortest_paths_to_base(inst.graph(), inst.adjacency(),
                                                 RechargingWeight(inst, deployment));
  const Solution solution{spt_from_dag(dag), deployment};
  const double evaluated = total_recharging_cost(inst, solution);
  EXPECT_NEAR(priced, evaluated, evaluated * 1e-9);
}

TEST(Cost, OptimalCostMonotoneInDeployment) {
  util::Rng rng(37);
  const Instance inst = test::random_instance(15, 45, 150.0, rng);
  std::vector<int> deployment = balanced_deployment(15, 30);
  const double before = optimal_cost_for_deployment(inst, deployment);
  for (auto& m : deployment) ++m;  // add a node everywhere
  const double after = optimal_cost_for_deployment(inst, deployment);
  EXPECT_LT(after, before);
}

/// The type-erased charging-aware weight the library priced edges with
/// before RechargingWeight, frozen as its reference: tx energy looked up
/// through the instance, efficiencies captured by value.
std::function<double(int, int)> erased_recharging_weight(const Instance& inst,
                                                         const std::vector<int>& deployment) {
  const int bs = inst.graph().base_station();
  std::vector<double> inv_eff(deployment.size());
  for (std::size_t i = 0; i < deployment.size(); ++i) {
    inv_eff[i] = 1.0 / inst.charging().efficiency(deployment[i]);
  }
  return [&inst, inv_eff = std::move(inv_eff), bs](int from, int to) {
    double w = inst.tx_energy(from, to) * inv_eff[static_cast<std::size_t>(from)];
    if (to != bs) w += inst.rx_energy() * inv_eff[static_cast<std::size_t>(to)];
    return w;
  };
}

/// The type-erased energy weight EnergyWeight replaced, frozen likewise.
std::function<double(int, int)> erased_energy_weight(const Instance& inst, bool include_rx) {
  const int bs = inst.graph().base_station();
  return [&inst, include_rx, bs](int from, int to) {
    double w = inst.tx_energy(from, to);
    if (include_rx && to != bs) w += inst.rx_energy();
    return w;
  };
}

/// Every edge of `inst` priced by both forms of `weight` (random-access and
/// packed-tx) must equal `reference` to the last bit.
template <class WeightT>
void expect_matches_on_every_edge(const Instance& inst, const WeightT& weight,
                                  const std::function<double(int, int)>& reference) {
  const auto& adj = inst.adjacency();
  for (int from = 0; from < inst.num_posts(); ++from) {
    const auto out = adj.out(from);
    const double* tx = adj.out_tx(from);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(weight(from, out[i]), reference(from, out[i])) << from << "->" << out[i];
      EXPECT_EQ(weight(from, out[i], tx[i]), reference(from, out[i])) << from << "->" << out[i];
    }
  }
}

TEST(Cost, RechargingWeightMatchesTypeErased) {
  util::Rng rng(511);
  const Instance inst = test::random_instance(10, 30, 140.0, rng);
  std::vector<int> deployment = balanced_deployment(10, 30);
  deployment[2] += 3;
  deployment[7] -= 1;
  RechargingWeight weight(inst, deployment);
  expect_matches_on_every_edge(inst, weight, erased_recharging_weight(inst, deployment));

  // Rebinding updates exactly the touched posts' efficiencies.
  std::vector<int> moved = deployment;
  --moved[2];
  ++moved[0];
  weight.set_node_count(2, moved[2]);
  weight.set_node_count(0, moved[0]);
  expect_matches_on_every_edge(inst, weight, erased_recharging_weight(inst, moved));
}

TEST(Cost, RechargingWeightValidatesDeploymentSize) {
  const Instance inst = test::chain_instance(3, 6);
  EXPECT_THROW(RechargingWeight(inst, {1, 1}), std::invalid_argument);
  RechargingWeight weight(inst, {2, 2, 2});
  EXPECT_THROW(weight.assign({1, 1, 1, 1}), std::invalid_argument);
}

TEST(Cost, EnergyWeightMatchesTypeErased) {
  util::Rng rng(521);
  const Instance inst = test::random_instance(8, 16, 130.0, rng);
  for (bool include_rx : {false, true}) {
    expect_matches_on_every_edge(inst, EnergyWeight(inst, include_rx),
                                 erased_energy_weight(inst, include_rx));
  }
}

/// optimal_cost_for_deployment's sum over the binary heap's distances.
double heap_priced_cost(const Instance& inst, const std::vector<int>& deployment) {
  const RechargingWeight weight(inst, deployment);
  graph::DijkstraScratch scratch;
  if (!graph::shortest_distances_to_base(inst.graph(), inst.adjacency(),
                                         test::heap_only(weight), scratch)) {
    return graph::kInfinity;
  }
  double total = 0.0;
  for (int p = 0; p < inst.num_posts(); ++p) {
    const auto i = static_cast<std::size_t>(p);
    total += inst.report_rate(p) * scratch.dist[i];
    total += inst.charging().charger_energy_for(inst.static_energy(p), deployment[i]);
  }
  return total;
}

TEST(Cost, ScratchOverloadIsBitIdenticalToLegacy) {
  // The scratch-reusing pricing is the solver hot path; it must agree with
  // the allocating overload to the last bit across many deployments, and
  // across both Dijkstra loops, even when the scratch is reused.
  util::Rng rng(523);
  const Instance inst = test::random_instance(12, 36, 150.0, rng);
  CostEvalScratch scratch;
  std::vector<int> deployment = balanced_deployment(12, 36);
  for (int trial = 0; trial < 30; ++trial) {
    const int a = rng.uniform_int(0, 11);
    const int b = rng.uniform_int(0, 11);
    if (deployment[static_cast<std::size_t>(a)] > 1 && a != b) {
      --deployment[static_cast<std::size_t>(a)];
      ++deployment[static_cast<std::size_t>(b)];
    }
    const double reference = optimal_cost_for_deployment(inst, deployment);
    EXPECT_EQ(optimal_cost_for_deployment(inst, deployment, scratch), reference);
    EXPECT_EQ(heap_priced_cost(inst, deployment), reference);
  }
}

TEST(Cost, ScratchRebindsAcrossInstances) {
  // One scratch reused against two different instances must rebind its
  // cached weight instead of pricing against the stale instance.
  util::Rng rng(541);
  const Instance first = test::random_instance(8, 16, 130.0, rng);
  const Instance second = test::random_instance(8, 16, 130.0, rng);
  const std::vector<int> deployment = balanced_deployment(8, 16);
  CostEvalScratch scratch;
  EXPECT_EQ(optimal_cost_for_deployment(first, deployment, scratch),
            optimal_cost_for_deployment(first, deployment));
  EXPECT_EQ(optimal_cost_for_deployment(second, deployment, scratch),
            optimal_cost_for_deployment(second, deployment));
  EXPECT_EQ(optimal_cost_for_deployment(first, deployment, scratch),
            optimal_cost_for_deployment(first, deployment));
}

TEST(Cost, SptFromDagThrowsOnUnreachable) {
  graph::ReachGraph g(2);
  g.set_min_level(0, 2, 0);
  const auto dag = graph::shortest_paths_to_base(g, graph::ReachAdjacency(g),
                                                 [](int, int) { return 1.0; });
  EXPECT_THROW(spt_from_dag(dag), std::invalid_argument);
}

TEST(Cost, StarVersusChainTopologyCost) {
  // Hand-checkable: two posts close together far from the base.
  geom::Field field;
  field.base_station = {0.0, 0.0};
  field.posts = {{45.0, 0.0}, {65.0, 0.0}};
  const Instance inst =
      Instance::geometric(field, test::paper_radio(), test::paper_charging(), 2);
  const double e1 = inst.radio().tx_energy(1);  // 50 m level
  const double e2 = inst.radio().tx_energy(2);  // 75 m level
  const double e0 = inst.radio().tx_energy(0);  // 25 m level
  const double er = inst.rx_energy();

  graph::RoutingTree star(2, 2);
  star.set_parent(0, 2);
  star.set_parent(1, 2);
  graph::RoutingTree chain(2, 2);
  chain.set_parent(1, 0);
  chain.set_parent(0, 2);

  EXPECT_DOUBLE_EQ(tree_energy(inst, star), e1 + e2);
  EXPECT_DOUBLE_EQ(tree_energy(inst, chain), 2.0 * e1 + er + e0);
}

}  // namespace
}  // namespace wrsn::core
