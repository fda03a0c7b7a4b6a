// Heterogeneous workloads (per-post report rates + static sensing draw) --
// the extension Section III sketches. Uniform settings must reproduce the
// paper's model exactly; weighted settings are hand-checked and pushed
// through every solver.
#include <gtest/gtest.h>

#include "core/baseline.hpp"
#include "core/exact.hpp"
#include "core/idb.hpp"
#include "core/local_search.hpp"
#include "core/pricer.hpp"
#include "core/rfh.hpp"
#include "helpers.hpp"
#include "sim/network_sim.hpp"

namespace wrsn::core {
namespace {

Instance weighted_chain(int num_posts, int num_nodes, std::vector<double> rates,
                        std::vector<double> statics = {}) {
  geom::Field field;
  field.base_station = {0.0, 0.0};
  field.width = 20.0 * (num_posts + 1);
  field.height = 1.0;
  for (int i = 1; i <= num_posts; ++i) field.posts.push_back({20.0 * i, 0.0});
  Workload workload;
  workload.report_rates = std::move(rates);
  workload.static_energy = std::move(statics);
  return Instance::geometric(field, test::paper_radio(), test::paper_charging(), num_nodes,
                             std::move(workload));
}

TEST(Workload, DefaultsAreUniform) {
  const Instance inst = test::chain_instance(3, 6);
  EXPECT_TRUE(inst.uniform_workload());
  EXPECT_DOUBLE_EQ(inst.report_rate(0), 1.0);
  EXPECT_DOUBLE_EQ(inst.static_energy(2), 0.0);
  EXPECT_DOUBLE_EQ(inst.total_report_rate(), 3.0);
}

TEST(Workload, ValidationRejectsBadVectors) {
  EXPECT_THROW(weighted_chain(3, 6, {1.0, 2.0}), InfeasibleInstance);       // size
  EXPECT_THROW(weighted_chain(3, 6, {1.0, 0.0, 1.0}), InfeasibleInstance);  // zero rate
  EXPECT_THROW(weighted_chain(3, 6, {1.0, -1.0, 1.0}), InfeasibleInstance);
  EXPECT_THROW(weighted_chain(3, 6, {1.0, 1.0, 1.0}, {0.0, 0.0, -1e-9}),
               InfeasibleInstance);
}

TEST(Workload, SubtreeRatesHandComputed) {
  // Chain 2 -> 1 -> 0 -> base with rates {1, 2, 4}.
  const Instance inst = weighted_chain(3, 3, {1.0, 2.0, 4.0});
  graph::RoutingTree tree(3, 3);
  tree.set_parent(0, 3);
  tree.set_parent(1, 0);
  tree.set_parent(2, 1);
  const auto rates = subtree_rates(inst, tree);
  EXPECT_DOUBLE_EQ(rates[2], 4.0);
  EXPECT_DOUBLE_EQ(rates[1], 6.0);
  EXPECT_DOUBLE_EQ(rates[0], 7.0);
}

TEST(Workload, PerPostEnergyWeighted) {
  const Instance inst = weighted_chain(2, 2, {3.0, 5.0}, {1e-9, 2e-9});
  graph::RoutingTree tree(2, 2);
  tree.set_parent(0, 2);
  tree.set_parent(1, 0);
  const double e0 = inst.radio().tx_energy(0);
  const double er = inst.rx_energy();
  const auto energy = per_post_energy(inst, tree);
  // post 1: sends 5 bits; no forwarding; static 2 nJ.
  EXPECT_DOUBLE_EQ(energy[1], 5.0 * e0 + 2e-9);
  // post 0: sends 8 bits, receives 5, static 1 nJ.
  EXPECT_DOUBLE_EQ(energy[0], 8.0 * e0 + 5.0 * er + 1e-9);
}

TEST(Workload, UniformWeightsMatchLegacyDescendantForm) {
  util::Rng rng(901);
  const Instance inst = test::random_instance(15, 30, 150.0, rng);
  const auto tree = solve_rfh(inst).solution.tree;
  const auto rates = subtree_rates(inst, tree);
  const auto descendants = tree.descendant_counts();
  for (int p = 0; p < inst.num_posts(); ++p) {
    EXPECT_DOUBLE_EQ(rates[static_cast<std::size_t>(p)],
                     1.0 + descendants[static_cast<std::size_t>(p)]);
  }
}

TEST(Workload, OptimalCostSumsWeightedDistances) {
  const Instance inst = weighted_chain(2, 4, {2.0, 3.0});
  const std::vector<int> deployment{2, 2};
  const auto dag = graph::shortest_paths_to_base(inst.graph(), inst.adjacency(),
                                                 RechargingWeight(inst, deployment));
  const double expected = 2.0 * dag.dist[0] + 3.0 * dag.dist[1];
  EXPECT_NEAR(optimal_cost_for_deployment(inst, deployment), expected, expected * 1e-12);
}

TEST(Workload, StaticDrawChargedThroughEfficiency) {
  const Instance uniform = weighted_chain(2, 4, {1.0, 1.0});
  const Instance with_static = weighted_chain(2, 4, {1.0, 1.0}, {5e-8, 0.0});
  const std::vector<int> deployment{2, 2};
  const double base = optimal_cost_for_deployment(uniform, deployment);
  const double loaded = optimal_cost_for_deployment(with_static, deployment);
  // Static 50 nJ at a 2-node post with eta=0.01 costs 50nJ/0.02 = 2.5 uJ.
  EXPECT_NEAR(loaded - base, 5e-8 / 0.02, 1e-15);
}

TEST(Workload, HighRatePostAttractsNodes) {
  // Two symmetric posts; post 1 reports 20x as much. Every spare node
  // should favor serving post 1's traffic.
  geom::Field field;
  field.base_station = {0.0, 0.0};
  field.posts = {{20.0, 10.0}, {20.0, -10.0}};
  Workload workload;
  workload.report_rates = {1.0, 20.0};
  const Instance inst = Instance::geometric(field, test::paper_radio(),
                                            test::paper_charging(), 8, workload);
  const auto idb = solve_idb(inst);
  EXPECT_GT(idb.solution.deployment[1], idb.solution.deployment[0]);
}

TEST(Workload, AllSolversHandleHeterogeneity) {
  util::Rng rng(907);
  geom::FieldConfig cfg;
  cfg.width = 120.0;
  cfg.height = 120.0;
  cfg.num_posts = 8;
  geom::Field field = geom::generate_field(cfg, rng);
  while (!geom::is_connected(field, 75.0)) field = geom::generate_field(cfg, rng);
  Workload workload;
  for (int p = 0; p < 8; ++p) {
    workload.report_rates.push_back(rng.uniform(0.5, 4.0));
    workload.static_energy.push_back(rng.uniform(0.0, 1e-7));
  }
  const Instance inst = Instance::geometric(field, test::paper_radio(),
                                            test::paper_charging(), 20, workload);
  const auto exact = solve_exact(inst);
  const auto idb = solve_idb(inst);
  const auto rfh = solve_rfh(inst);
  const auto baseline = solve_balanced_baseline(inst);
  EXPECT_TRUE(is_valid_solution(inst, exact.solution));
  EXPECT_TRUE(is_valid_solution(inst, idb.solution));
  EXPECT_TRUE(is_valid_solution(inst, rfh.solution));
  // Optimality ordering must hold under weights too.
  EXPECT_LE(exact.cost, idb.cost * (1.0 + 1e-9));
  EXPECT_LE(exact.cost, rfh.cost * (1.0 + 1e-9));
  EXPECT_LE(exact.cost, baseline.cost * (1.0 + 1e-9));
  // Reported costs re-evaluate consistently.
  EXPECT_NEAR(idb.cost, total_recharging_cost(inst, idb.solution), idb.cost * 1e-9);
}

TEST(Workload, PricerMatchesNaiveUnderWeights) {
  util::Rng rng(911);
  geom::FieldConfig cfg;
  cfg.width = 130.0;
  cfg.height = 130.0;
  cfg.num_posts = 10;
  geom::Field field = geom::generate_field(cfg, rng);
  while (!geom::is_connected(field, 75.0)) field = geom::generate_field(cfg, rng);
  Workload workload;
  for (int p = 0; p < 10; ++p) {
    workload.report_rates.push_back(rng.uniform(0.5, 3.0));
    workload.static_energy.push_back(rng.uniform(0.0, 5e-8));
  }
  const Instance inst = Instance::geometric(field, test::paper_radio(),
                                            test::paper_charging(), 25, workload);
  std::vector<int> deployment = balanced_deployment(10, 25);
  DeploymentPricer pricer(inst, deployment);
  EXPECT_NEAR(pricer.base_cost(), optimal_cost_for_deployment(inst, deployment),
              pricer.base_cost() * 1e-9);
  for (int j = 0; j < 10; ++j) {
    auto modified = deployment;
    ++modified[static_cast<std::size_t>(j)];
    const double naive = optimal_cost_for_deployment(inst, modified);
    EXPECT_NEAR(pricer.cost_with_extra_node(j), naive, naive * 1e-9) << "post " << j;
  }
}

TEST(Workload, LocalSearchRespectsWeights) {
  const Instance inst = weighted_chain(4, 12, {1.0, 1.0, 1.0, 10.0});
  const auto start = solve_balanced_baseline(inst).solution;
  const auto refined = refine_solution(inst, start);
  EXPECT_TRUE(is_valid_solution(inst, refined.solution));
  EXPECT_LE(refined.cost, refine_solution(inst, start).initial_cost);
}

TEST(Workload, SimulatorMatchesWeightedAnalyticModel) {
  const Instance inst = weighted_chain(3, 6, {1.0, 2.5, 0.5}, {0.0, 1e-8, 0.0});
  const auto plan = solve_idb(inst);
  sim::NetworkConfig cfg;
  cfg.bits_per_report = 100;
  sim::NetworkSim simulator(inst, plan.solution, cfg);
  simulator.run_rounds(5);
  for (int p = 0; p < 3; ++p) {
    EXPECT_NEAR(simulator.posts()[static_cast<std::size_t>(p)].consumed_j,
                5.0 * simulator.expected_round_energy()[static_cast<std::size_t>(p)],
                simulator.expected_round_energy()[static_cast<std::size_t>(p)] * 1e-9);
  }
}

TEST(Workload, RfhIterationsStillConvergeUnderWeights) {
  util::Rng rng(919);
  geom::FieldConfig cfg;
  cfg.width = 200.0;
  cfg.height = 200.0;
  cfg.num_posts = 20;
  geom::Field field = geom::generate_field(cfg, rng);
  while (!geom::is_connected(field, 75.0)) field = geom::generate_field(cfg, rng);
  Workload workload;
  for (int p = 0; p < 20; ++p) workload.report_rates.push_back(rng.uniform(0.2, 5.0));
  const Instance inst = Instance::geometric(field, test::paper_radio(),
                                            test::paper_charging(), 60, workload);
  const auto result = solve_rfh(inst);
  EXPECT_TRUE(is_valid_solution(inst, result.solution));
  EXPECT_LE(result.cost, result.per_iteration_cost.front() + 1e-18);
}

}  // namespace
}  // namespace wrsn::core
