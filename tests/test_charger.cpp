// The single-charger patrol: sim::ChargerSim with one charger under
// `nearest-deficit:tiebreak=distance`.
#include <gtest/gtest.h>

#include "core/rfh.hpp"
#include "helpers.hpp"
#include "sim/charger_sim.hpp"
#include "sim/charging_policy.hpp"

namespace wrsn::sim {
namespace {

struct PlanFixture {
  core::Instance instance;
  core::Solution solution;
};

PlanFixture rfh_setup(int posts, int nodes, double side, std::uint64_t seed) {
  util::Rng rng(seed);
  core::Instance inst = test::random_instance(posts, nodes, side, rng);
  core::Solution solution = core::solve_rfh(inst).solution;
  return PlanFixture{std::move(inst), std::move(solution)};
}

ChargerSim make_patrol(NetworkSim& net, const ChargerConfig& config) {
  return ChargerSim(net, config, 1, make_charging_policy("nearest-deficit:tiebreak=distance"));
}

TEST(SingleChargerPatrol, KeepsNetworkAliveWithAdequateCharger) {
  // The paper's standing assumption, executed: a fast, strong charger keeps
  // every node alive indefinitely.
  const PlanFixture s = rfh_setup(8, 24, 120.0, 2);
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 2048;
  net_cfg.battery_capacity_j = 0.02;
  NetworkSim net(s.instance, s.solution, net_cfg);
  ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 20.0;
  charger_cfg.radiated_power_w = 50.0;
  ChargerSim patrol = make_patrol(net, charger_cfg);
  patrol.run(2000);
  EXPECT_FALSE(patrol.stats().any_death);
  EXPECT_EQ(net.dead_node_count(), 0);
  EXPECT_GT(patrol.stats().visits, 0u);
  EXPECT_EQ(patrol.stats().rounds, 2000u);
}

TEST(SingleChargerPatrol, RadiatedEnergyConvergesToAnalyticCost) {
  // Long-run charger output per round ~= bits * total_recharging_cost: the
  // end-to-end validation that the objective prices the real system.
  const PlanFixture s = rfh_setup(6, 18, 100.0, 3);
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 4096;
  net_cfg.battery_capacity_j = 0.02;
  NetworkSim net(s.instance, s.solution, net_cfg);
  ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 50.0;
  charger_cfg.radiated_power_w = 100.0;
  charger_cfg.low_watermark = 0.6;
  charger_cfg.high_watermark = 0.9;
  ChargerSim patrol = make_patrol(net, charger_cfg);
  const std::uint64_t rounds = 5000;
  patrol.run(rounds);
  ASSERT_FALSE(patrol.stats().any_death);

  const double analytic_per_round =
      core::total_recharging_cost(s.instance, s.solution) * net_cfg.bits_per_report;
  const double measured_per_round = patrol.stats().radiated_per_round();
  // Batteries buffer a bounded amount, so the long-run ratio approaches 1.
  EXPECT_NEAR(measured_per_round / analytic_per_round, 1.0, 0.10);
}

TEST(SingleChargerPatrol, NoVisitsWhenBatteriesStayHigh) {
  const PlanFixture s = rfh_setup(5, 10, 100.0, 4);
  NetworkConfig net_cfg;
  net_cfg.battery_capacity_j = 100.0;  // effectively infinite
  NetworkSim net(s.instance, s.solution, net_cfg);
  ChargerSim patrol = make_patrol(net, {});
  patrol.run(100);
  EXPECT_EQ(patrol.stats().visits, 0u);
  EXPECT_DOUBLE_EQ(patrol.stats().radiated_j, 0.0);
  EXPECT_DOUBLE_EQ(patrol.stats().distance_m, 0.0);
}

TEST(SingleChargerPatrol, TravelMetersAccumulate) {
  const PlanFixture s = rfh_setup(6, 18, 150.0, 5);
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 4096;
  net_cfg.battery_capacity_j = 0.01;
  NetworkSim net(s.instance, s.solution, net_cfg);
  ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 30.0;
  charger_cfg.radiated_power_w = 50.0;
  charger_cfg.travel_power_w = 10.0;
  ChargerSim patrol = make_patrol(net, charger_cfg);
  patrol.run(1500);
  ASSERT_GT(patrol.stats().visits, 1u);
  EXPECT_GT(patrol.stats().distance_m, 0.0);
  // travel energy = time * power = (distance / speed) * power.
  EXPECT_NEAR(patrol.stats().travel_j,
              patrol.stats().distance_m / charger_cfg.speed_mps * charger_cfg.travel_power_w,
              patrol.stats().travel_j * 1e-9);
}

TEST(SingleChargerPatrol, UndersizedChargerCannotPreventDeath) {
  const PlanFixture s = rfh_setup(8, 24, 200.0, 6);
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 65536;  // heavy traffic
  net_cfg.battery_capacity_j = 0.005;
  NetworkSim net(s.instance, s.solution, net_cfg);
  ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 0.5;           // slow
  charger_cfg.radiated_power_w = 0.001;  // weak
  ChargerSim patrol = make_patrol(net, charger_cfg);
  patrol.run(3000);
  EXPECT_TRUE(patrol.stats().any_death);
}

TEST(SingleChargerPatrol, AbstractInstanceTeleportsCharger) {
  // No geometry: travel distance must stay zero but charging still works.
  graph::ReachGraph g(2);
  g.set_min_level(0, 2, 0);
  g.set_min_level(1, 0, 0);
  const core::Instance inst = core::Instance::abstract(
      g, energy::RadioModel::from_energies({1e-6}, 5e-7), test::paper_charging(), 3);
  graph::RoutingTree tree(2, 2);
  tree.set_parent(0, 2);
  tree.set_parent(1, 0);
  const core::Solution solution{tree, {2, 1}};
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 100;
  net_cfg.battery_capacity_j = 0.001;
  NetworkSim net(inst, solution, net_cfg);
  ChargerConfig charger_cfg;
  charger_cfg.radiated_power_w = 10.0;
  ChargerSim patrol = make_patrol(net, charger_cfg);
  patrol.run(2000);
  EXPECT_DOUBLE_EQ(patrol.stats().distance_m, 0.0);
  EXPECT_FALSE(patrol.stats().any_death);
  EXPECT_GT(patrol.stats().visits, 0u);
}

}  // namespace
}  // namespace wrsn::sim
