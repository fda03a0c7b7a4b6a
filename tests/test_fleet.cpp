// Charger fleets (sim::ChargerSim with K chargers under `nearest-deficit`)
// and fleet sizing (sim/fleet.hpp).
#include "sim/fleet.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/rfh.hpp"
#include "helpers.hpp"
#include "sim/charger_sim.hpp"
#include "sim/charging_policy.hpp"
#include "sim/tour.hpp"

namespace wrsn::sim {
namespace {

struct PlanFixture {
  core::Instance instance;
  core::Solution solution;
};

PlanFixture make_plan(int posts, int nodes, double side, std::uint64_t seed) {
  util::Rng rng(seed);
  core::Instance inst = test::random_instance(posts, nodes, side, rng);
  core::Solution solution = core::solve_rfh(inst).solution;
  return PlanFixture{std::move(inst), std::move(solution)};
}

ChargerSim make_fleet(NetworkSim& net, const ChargerConfig& config, int num_chargers) {
  return ChargerSim(net, config, num_chargers, make_charging_policy("nearest-deficit"));
}

TEST(ChargerFleet, SingleChargerMatchesPatrolBehavior) {
  // A fleet of one should deliver the same long-run energy balance as the
  // single-charger patrol rule (policies coincide when only one post is low
  // at a time).
  const PlanFixture plan = make_plan(6, 18, 100.0, 2);
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 4096;
  net_cfg.battery_capacity_j = 0.02;
  ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 50.0;
  charger_cfg.radiated_power_w = 100.0;

  NetworkSim net_a(plan.instance, plan.solution, net_cfg);
  ChargerSim patrol(net_a, charger_cfg, 1,
                    make_charging_policy("nearest-deficit:tiebreak=distance"));
  patrol.run(2000);

  NetworkSim net_b(plan.instance, plan.solution, net_cfg);
  ChargerSim fleet = make_fleet(net_b, charger_cfg, 1);
  fleet.run(2000);

  ASSERT_FALSE(patrol.stats().any_death);
  ASSERT_FALSE(fleet.stats().any_death);
  EXPECT_NEAR(fleet.stats().radiated_per_round() / patrol.stats().radiated_per_round(), 1.0,
              0.05);
}

TEST(ChargerFleet, PerChargerStatsSumToAggregate) {
  const PlanFixture plan = make_plan(10, 30, 150.0, 3);
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 4096;
  net_cfg.battery_capacity_j = 0.015;
  ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 20.0;
  charger_cfg.radiated_power_w = 40.0;
  NetworkSim net(plan.instance, plan.solution, net_cfg);
  ChargerSim fleet = make_fleet(net, charger_cfg, 3);
  fleet.run(1500);
  const ChargerSimStats& stats = fleet.stats();
  EXPECT_NEAR(std::accumulate(stats.radiated_per_charger.begin(),
                              stats.radiated_per_charger.end(), 0.0),
              stats.radiated_j, stats.radiated_j * 1e-9 + 1e-12);
  EXPECT_EQ(std::accumulate(stats.visits_per_charger.begin(), stats.visits_per_charger.end(),
                            std::uint64_t{0}),
            stats.visits);
}

TEST(ChargerFleet, FleetSavesNetworkOneChargerCannot) {
  // Heavy traffic + slow travel: one charger falls behind, four keep up
  // (parameters empirically at the K=2/K=3 feasibility edge).
  const PlanFixture plan = make_plan(12, 36, 250.0, 4);
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 8192;
  net_cfg.battery_capacity_j = 0.02;
  ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 2.0;
  charger_cfg.radiated_power_w = 20.0;
  charger_cfg.low_watermark = 0.5;

  NetworkSim solo_net(plan.instance, plan.solution, net_cfg);
  ChargerSim solo = make_fleet(solo_net, charger_cfg, 1);
  solo.run(1200);

  NetworkSim fleet_net(plan.instance, plan.solution, net_cfg);
  ChargerSim fleet = make_fleet(fleet_net, charger_cfg, 4);
  fleet.run(1200);

  EXPECT_TRUE(solo.stats().any_death) << "one charger should be insufficient here";
  EXPECT_FALSE(fleet.stats().any_death) << "four chargers should keep up";
}

TEST(ChargerFleet, WorkSharedAcrossChargers) {
  const PlanFixture plan = make_plan(12, 36, 250.0, 4);
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 8192;
  net_cfg.battery_capacity_j = 0.02;
  ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 1.5;
  charger_cfg.radiated_power_w = 20.0;
  charger_cfg.low_watermark = 0.5;
  NetworkSim net(plan.instance, plan.solution, net_cfg);
  ChargerSim fleet = make_fleet(net, charger_cfg, 4);
  fleet.run(1200);
  ASSERT_FALSE(fleet.stats().any_death);
  int active = 0;
  for (std::uint64_t visits : fleet.stats().visits_per_charger) active += visits > 0 ? 1 : 0;
  EXPECT_GE(active, 2) << "at least two chargers should share the load";
}

TEST(FleetLowerBound, MatchesDutyCeiling) {
  const PlanFixture plan = make_plan(8, 24, 120.0, 6);
  ChargerConfig charger_cfg;
  charger_cfg.radiated_power_w = 1.0;
  const auto analysis = analyze_patrol(plan.instance, plan.solution, charger_cfg, 65536,
                                       plan_tour(plan.instance));
  const int bound = fleet_size_lower_bound(plan.instance, plan.solution, charger_cfg, 65536);
  EXPECT_EQ(bound, std::max(1, static_cast<int>(std::ceil(analysis.duty))));
}

TEST(FleetLowerBound, NeedsNoTour) {
  // The bound reads only the duty cycle, which does not depend on the
  // tour: it must work on an abstract instance, where no tour exists.
  graph::ReachGraph g(2);
  g.set_min_level(0, 2, 0);
  g.set_min_level(1, 0, 0);
  const core::Instance inst = core::Instance::abstract(
      g, energy::RadioModel::from_energies({1e-4}, 5e-5), test::paper_charging(), 4);
  const core::Solution solution = core::solve_rfh(inst).solution;
  ASSERT_THROW(plan_tour(inst), std::invalid_argument);
  ChargerConfig charger_cfg;
  charger_cfg.radiated_power_w = 1e-3;
  const double duty = patrol_demand(inst, solution, charger_cfg, 4096).duty;
  EXPECT_EQ(fleet_size_lower_bound(inst, solution, charger_cfg, 4096),
            std::max(1, static_cast<int>(std::ceil(duty))));
}

TEST(FindMinFleet, FindsAWorkingSizeAtMostMax) {
  const PlanFixture plan = make_plan(12, 36, 250.0, 4);
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 8192;
  net_cfg.battery_capacity_j = 0.02;
  ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 2.0;
  charger_cfg.radiated_power_w = 20.0;
  charger_cfg.low_watermark = 0.5;
  const int k = find_min_fleet(plan.instance, plan.solution, charger_cfg, net_cfg, 800, 6);
  ASSERT_LE(k, 6);
  // The found size works...
  NetworkSim net(plan.instance, plan.solution, net_cfg);
  ChargerSim fleet = make_fleet(net, charger_cfg, k);
  fleet.run(800);
  EXPECT_FALSE(fleet.stats().any_death);
  // ...and respects the analytic lower bound.
  EXPECT_GE(k, fleet_size_lower_bound(plan.instance, plan.solution, charger_cfg,
                                      net_cfg.bits_per_report));
}

TEST(FindMinFleet, ReportsFailureBeyondMax) {
  const PlanFixture plan = make_plan(8, 24, 200.0, 8);
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 1 << 20;   // absurd traffic
  net_cfg.battery_capacity_j = 0.001;  // tiny batteries
  ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 0.5;
  charger_cfg.radiated_power_w = 0.01;
  const int k = find_min_fleet(plan.instance, plan.solution, charger_cfg, net_cfg, 200, 2);
  EXPECT_EQ(k, 3);  // max_chargers + 1 == "cannot be done"
}

}  // namespace
}  // namespace wrsn::sim
