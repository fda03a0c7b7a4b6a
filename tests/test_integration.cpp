// Cross-module integration tests: the full pipeline from field generation
// through solving to executable simulation, plus small-scale replications of
// the paper's evaluation claims (Section VI).
#include <gtest/gtest.h>

#include <numeric>

#include "core/baseline.hpp"
#include "core/exact.hpp"
#include "core/idb.hpp"
#include "core/rfh.hpp"
#include "fieldexp/powercast.hpp"
#include "helpers.hpp"
#include "sim/charger_sim.hpp"
#include "sim/charging_policy.hpp"
#include "sim/network_sim.hpp"

namespace wrsn {
namespace {

TEST(Integration, FullPipelineFieldToPatrol) {
  // generate field -> build instance -> solve -> simulate -> charger keeps
  // the network alive and pays ~ the analytic cost.
  util::Rng rng(301);
  const core::Instance inst = test::random_instance(12, 36, 150.0, rng);
  const core::RfhResult plan = core::solve_rfh(inst);
  ASSERT_TRUE(core::is_valid_solution(inst, plan.solution));

  sim::NetworkConfig net_cfg;
  net_cfg.bits_per_report = 4096;
  net_cfg.battery_capacity_j = 0.02;
  sim::NetworkSim net(inst, plan.solution, net_cfg);
  sim::ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 25.0;
  charger_cfg.radiated_power_w = 80.0;
  sim::ChargerSim patrol(net, charger_cfg, 1,
                         sim::make_charging_policy("nearest-deficit:tiebreak=distance"));
  patrol.run(3000);
  EXPECT_FALSE(patrol.stats().any_death);
  // The charger radiates at least the analytic cost; the excess is the
  // rotation-imbalance overcharge (full nodes keep absorbing nothing while
  // the emptiest node finishes), bounded in practice by ~25%.
  const double analytic = plan.cost * net_cfg.bits_per_report;
  const double ratio = patrol.stats().radiated_per_round() / analytic;
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.30);
}

TEST(Integration, HeuristicsNearOptimalSmallScale) {
  // Fig. 7's claim: both heuristics land close to the optimum; IDB(1)
  // typically equals it. 200x200 field scaled down to stay fast.
  util::Rng rng(303);
  double opt_total = 0.0;
  double idb_total = 0.0;
  double rfh_total = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    const core::Instance inst = test::random_instance(6, 14, 120.0, rng);
    opt_total += core::solve_exact(inst).cost;
    idb_total += core::solve_idb(inst).cost;
    rfh_total += core::solve_rfh(inst).cost;
  }
  EXPECT_GE(idb_total, opt_total * (1.0 - 1e-9));
  EXPECT_GE(rfh_total, opt_total * (1.0 - 1e-9));
  EXPECT_LE(idb_total, opt_total * 1.05);
  EXPECT_LE(rfh_total, opt_total * 1.25);
}

TEST(Integration, CostDecreasesWithMoreSensors) {
  // Fig. 7(a)/Fig. 8 trend: more nodes -> lower total recharging cost.
  util::Rng rng(307);
  const core::Instance base = test::random_instance(10, 20, 150.0, rng);
  double previous = 1e300;
  for (const int nodes : {20, 28, 36, 44}) {
    const core::Instance inst = core::Instance::geometric(
        *base.field(), test::paper_radio(), test::paper_charging(), nodes);
    const double cost = core::solve_idb(inst).cost;
    EXPECT_LT(cost, previous) << nodes << " nodes";
    previous = cost;
  }
}

TEST(Integration, MorePowerLevelsDoNotHurt) {
  // Fig. 10 trend: extra (longer) ranges change the heuristics' cost only
  // mildly. In the paper's large 500 m field most posts are beyond even the
  // 150 m top range, so the effect is near zero; in any field, more levels
  // can only add options, so cost must not rise materially.
  util::Rng rng(311);
  geom::FieldConfig cfg;
  cfg.width = 400.0;
  cfg.height = 400.0;
  cfg.num_posts = 60;
  geom::Field field = geom::generate_field(cfg, rng);
  while (!geom::is_connected(field, 75.0)) field = geom::generate_field(cfg, rng);

  double cost3 = 0.0;
  double cost6 = 0.0;
  for (const int levels : {3, 6}) {
    const core::Instance inst = core::Instance::geometric(
        field, test::paper_radio(levels), test::paper_charging(), 180);
    const double cost = core::solve_rfh(inst).cost;
    (levels == 3 ? cost3 : cost6) = cost;
  }
  EXPECT_LE(cost6, cost3 * 1.02) << "extra levels must not hurt";
  EXPECT_GE(cost6, cost3 * 0.85) << "and the benefit stays mild at scale";
}

TEST(Integration, ChargingModelShapeMatters) {
  // Ablation A3: under a saturating charging gain, stacking nodes pays off
  // less, so the achievable cost is higher than with the linear model.
  util::Rng rng(313);
  geom::FieldConfig cfg;
  cfg.width = 150.0;
  cfg.height = 150.0;
  cfg.num_posts = 10;
  geom::Field field = geom::generate_field(cfg, rng);
  while (!geom::is_connected(field, 75.0)) field = geom::generate_field(cfg, rng);

  const auto linear = core::Instance::geometric(
      field, test::paper_radio(), energy::ChargingModel::linear(0.01), 30);
  const auto saturating = core::Instance::geometric(
      field, test::paper_radio(), energy::ChargingModel::saturating(0.01, 3.0), 30);
  EXPECT_LT(core::solve_idb(linear).cost, core::solve_idb(saturating).cost);
}

TEST(Integration, FieldExperimentJustifiesLinearChargingModel) {
  // The fieldexp substrate and the analytic ChargingModel must agree in
  // shape: fitted eta(m) slope ~ measured single-node efficiency.
  const fieldexp::PowercastConfig cfg{};
  const auto fit = fieldexp::efficiency_linearity(cfg, 0.2, 0.10, {1, 2, 3, 4, 5, 6});
  const double eta1 = fieldexp::single_node_efficiency(cfg, 0.2);
  EXPECT_NEAR(fit.slope / eta1, 1.0, 0.15);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(Integration, DeploymentFollowsWorkloadConcentration) {
  // In RFH solutions, posts with heavier energy draw get at least as many
  // nodes as the lightest-loaded posts (Phase IV's purpose).
  util::Rng rng(317);
  const core::Instance inst = test::random_instance(20, 80, 180.0, rng);
  const core::RfhResult plan = core::solve_rfh(inst);
  const auto energy = core::per_post_energy(inst, plan.solution.tree);
  int heaviest = 0;
  int lightest = 0;
  for (int p = 1; p < inst.num_posts(); ++p) {
    if (energy[static_cast<std::size_t>(p)] > energy[static_cast<std::size_t>(heaviest)]) {
      heaviest = p;
    }
    if (energy[static_cast<std::size_t>(p)] < energy[static_cast<std::size_t>(lightest)]) {
      lightest = p;
    }
  }
  EXPECT_GE(plan.solution.deployment[static_cast<std::size_t>(heaviest)],
            plan.solution.deployment[static_cast<std::size_t>(lightest)]);
}

TEST(Integration, AllSolversAgreeOnForcedTopology) {
  // A 2-post chain where everything is forced: every solver must find the
  // same unique optimum.
  geom::Field field;
  field.base_station = {0.0, 0.0};
  field.posts = {{20.0, 0.0}, {40.0, 0.0}};
  // Make the direct 40 m hop unavailable by using a 1-level radio (25 m).
  const core::Instance inst = core::Instance::geometric(
      field, test::paper_radio(1), test::paper_charging(), 4);
  const double exact = core::solve_exact(inst).cost;
  const double idb = core::solve_idb(inst).cost;
  const double rfh = core::solve_rfh(inst).cost;
  EXPECT_NEAR(exact, idb, exact * 1e-9);
  // RFH's Phase IV uses the paper's nearest-integer rounding of the
  // Lagrange shares, which here picks {3,1} over the optimal {2,2}: a
  // 0.08% gap inherent to the published heuristic, not a bug.
  EXPECT_NEAR(exact, rfh, exact * 5e-3);
}

TEST(Integration, SimulatedLifetimeInfiniteOnlyWithCharger) {
  // Without recharging the network dies; with the patrol it does not --
  // the paper's motivating contrast.
  util::Rng rng(331);
  const core::Instance inst = test::random_instance(8, 16, 120.0, rng);
  const core::Solution solution = core::solve_rfh(inst).solution;
  sim::NetworkConfig net_cfg;
  net_cfg.bits_per_report = 4096;
  net_cfg.battery_capacity_j = 0.01;

  sim::NetworkSim lonely(inst, solution, net_cfg);
  lonely.run_rounds(5000, /*stop_on_death=*/true);
  EXPECT_GT(lonely.dead_node_count(), 0);

  sim::NetworkSim charged(inst, solution, net_cfg);
  sim::ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 25.0;
  charger_cfg.radiated_power_w = 50.0;
  sim::ChargerSim patrol(charged, charger_cfg, 1,
                         sim::make_charging_policy("nearest-deficit:tiebreak=distance"));
  patrol.run(5000);
  EXPECT_FALSE(patrol.stats().any_death);
}

}  // namespace
}  // namespace wrsn
