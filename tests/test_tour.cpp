#include "sim/tour.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/baseline.hpp"
#include "core/rfh.hpp"
#include "helpers.hpp"

namespace wrsn::sim {
namespace {

TEST(TourLength, SinglePostOutAndBack) {
  geom::Field field;
  field.base_station = {0.0, 0.0};
  field.posts = {{30.0, 40.0}};  // 50 m away
  EXPECT_DOUBLE_EQ(tour_length(field, {0}), 100.0);
}

TEST(TourLength, OrderMatters) {
  geom::Field field;
  field.base_station = {0.0, 0.0};
  field.posts = {{10.0, 0.0}, {20.0, 0.0}};
  EXPECT_DOUBLE_EQ(tour_length(field, {0, 1}), 40.0);
  // Visiting the far post first wastes a back-and-forth.
  EXPECT_DOUBLE_EQ(tour_length(field, {1, 0}), 40.0);  // symmetric on a line
  field.posts = {{10.0, 0.0}, {0.0, 10.0}};
  EXPECT_GT(tour_length(field, {0, 1}), 0.0);
}

TEST(PlanTour, VisitsEveryPostOnce) {
  util::Rng rng(501);
  const core::Instance inst = test::random_instance(25, 25, 200.0, rng);
  const TourPlan plan = plan_tour(inst);
  ASSERT_EQ(plan.order.size(), 25u);
  std::vector<int> sorted = plan.order;
  std::sort(sorted.begin(), sorted.end());
  for (int p = 0; p < 25; ++p) EXPECT_EQ(sorted[static_cast<std::size_t>(p)], p);
  EXPECT_NEAR(plan.length_m, tour_length(*inst.field(), plan.order), 1e-9);
}

TEST(PlanTour, LineFieldIsOptimal) {
  // On a line the optimal closed tour is out-and-back: 2 * far end.
  const geom::Field field = geom::line_field(100.0, 4, 0.0);
  const TourPlan plan = plan_tour(field);
  EXPECT_NEAR(plan.length_m, 200.0, 1e-9);
}

TEST(PlanTour, SquareCornersOptimal) {
  // Depot at origin; posts at three corners of a 100 m square: the optimal
  // tour walks the perimeter (400 m).
  geom::Field field;
  field.base_station = {0.0, 0.0};
  field.posts = {{100.0, 0.0}, {100.0, 100.0}, {0.0, 100.0}};
  const TourPlan plan = plan_tour(field);
  EXPECT_NEAR(plan.length_m, 400.0, 1e-9);
}

TEST(PlanTour, TwoOptBeatsOrMatchesRandomOrders) {
  util::Rng rng(503);
  const core::Instance inst = test::random_instance(15, 15, 150.0, rng);
  const TourPlan plan = plan_tour(inst);
  std::vector<int> order = plan.order;
  for (int shuffle = 0; shuffle < 30; ++shuffle) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<int>(i) - 1))]);
    }
    EXPECT_LE(plan.length_m, tour_length(*inst.field(), order) + 1e-9);
  }
}

/// FNV-1a (64-bit) over a visiting order, for pinning long tours.
std::uint64_t order_hash(const std::vector<int>& order) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const int v : order) {
    hash ^= static_cast<std::uint32_t>(v);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(PlanTour, GoldenOrdersAndLengths) {
  // Exact tours recorded before the 2-opt leg cache: the scan order and the
  // improvement test are unchanged, so every order and length must match to
  // the last bit.  Fields at the paper's N = 300 density on a 500 m side.
  struct Golden {
    int posts;
    std::uint64_t seed;
    std::uint64_t order_hash;
    double length_m;
  };
  const std::vector<Golden> goldens = {
      {60, 9001, 11782507418299852703ULL, 1499.1117904632656},
      {200, 9002, 50017740987455915ULL, 4928.0922359898896},
      {2000, 9003, 16402819684472382659ULL, 44916.317535646253},
  };
  for (const Golden& golden : goldens) {
    util::Rng rng(golden.seed);
    geom::FieldConfig cfg;
    cfg.width = cfg.height = std::round(500.0 * std::sqrt(golden.posts / 300.0));
    cfg.num_posts = golden.posts;
    const TourPlan plan = plan_tour(geom::generate_field(cfg, rng));
    ASSERT_EQ(plan.order.size(), static_cast<std::size_t>(golden.posts));
    EXPECT_EQ(order_hash(plan.order), golden.order_hash) << golden.posts << " posts";
    EXPECT_EQ(plan.length_m, golden.length_m) << golden.posts << " posts";
  }
}

TEST(PlanTour, AbstractInstanceRejected) {
  graph::ReachGraph g(1);
  g.set_min_level(0, 1, 0);
  const core::Instance inst = core::Instance::abstract(
      g, energy::RadioModel::from_energies({1.0}, 0.5), test::paper_charging(), 1);
  EXPECT_THROW(plan_tour(inst), std::invalid_argument);
}

// ------------------------------------------------------------- feasibility

/// analyze_patrol() over the instance's own planned tour.
PatrolFeasibility analyze(const core::Instance& inst, const core::Solution& solution,
                          const ChargerConfig& charger, int bits) {
  return analyze_patrol(inst, solution, charger, bits, plan_tour(inst));
}

TEST(AnalyzePatrol, DutyMatchesClosedForm) {
  util::Rng rng(509);
  const core::Instance inst = test::random_instance(10, 30, 120.0, rng);
  const auto plan = core::solve_rfh(inst);
  ChargerConfig charger;
  charger.radiated_power_w = 5.0;
  charger.round_period_s = 60.0;
  const int bits = 4096;
  const PatrolFeasibility analysis = analyze(inst, plan.solution, charger, bits);
  const double expected_demand = plan.cost * bits / 60.0;
  EXPECT_NEAR(analysis.demand_w, expected_demand, expected_demand * 1e-12);
  EXPECT_NEAR(analysis.duty, expected_demand / 5.0, 1e-12);
}

TEST(AnalyzePatrol, StrongChargerFeasibleWeakNot) {
  util::Rng rng(521);
  const core::Instance inst = test::random_instance(10, 30, 120.0, rng);
  const auto plan = core::solve_rfh(inst);
  ChargerConfig strong;
  strong.radiated_power_w = 100.0;
  ChargerConfig weak;
  weak.radiated_power_w = 1e-4;
  EXPECT_TRUE(analyze(inst, plan.solution, strong, 1024).feasible);
  EXPECT_FALSE(analyze(inst, plan.solution, weak, 65536).feasible);
}

TEST(AnalyzePatrol, CycleDecomposesIntoTravelPlusCharging) {
  util::Rng rng(523);
  const core::Instance inst = test::random_instance(12, 36, 150.0, rng);
  const auto plan = core::solve_rfh(inst);
  ChargerConfig charger;
  charger.radiated_power_w = 20.0;
  const PatrolFeasibility a = analyze(inst, plan.solution, charger, 2048);
  ASSERT_TRUE(a.feasible);
  EXPECT_NEAR(a.cycle_time_s, a.travel_time_s + a.charging_time_s, a.cycle_time_s * 1e-12);
  EXPECT_GT(a.travel_time_s, 0.0);
  EXPECT_GT(a.min_battery_capacity_j, 0.0);
}

TEST(AnalyzePatrol, FasterChargerShortensCycle) {
  util::Rng rng(541);
  const core::Instance inst = test::random_instance(10, 20, 120.0, rng);
  const auto plan = core::solve_rfh(inst);
  ChargerConfig slow;
  slow.speed_mps = 2.0;
  slow.radiated_power_w = 50.0;
  ChargerConfig fast = slow;
  fast.speed_mps = 10.0;
  const auto a_slow = analyze(inst, plan.solution, slow, 1024);
  const auto a_fast = analyze(inst, plan.solution, fast, 1024);
  EXPECT_LT(a_fast.cycle_time_s, a_slow.cycle_time_s);
  EXPECT_LT(a_fast.min_battery_capacity_j, a_slow.min_battery_capacity_j);
}

TEST(AnalyzePatrol, LowerPlanCostLowersDuty) {
  // The planner's objective shows up directly in the charger's duty cycle:
  // a cheaper plan needs less RF time. This links Sections V and the
  // deferred scheduling problem.
  util::Rng rng(547);
  const core::Instance inst = test::random_instance(12, 48, 150.0, rng);
  const auto good = core::solve_rfh(inst).solution;
  const auto naive = core::solve_balanced_baseline(inst).solution;
  ChargerConfig charger;
  charger.radiated_power_w = 10.0;
  EXPECT_LT(analyze(inst, good, charger, 4096).duty,
            analyze(inst, naive, charger, 4096).duty);
}

TEST(AnalyzePatrol, RejectsBadInput) {
  util::Rng rng(557);
  const core::Instance inst = test::random_instance(5, 10, 100.0, rng);
  const auto plan = core::solve_rfh(inst);
  EXPECT_THROW(analyze(inst, plan.solution, ChargerConfig{}, 0), std::invalid_argument);
  TourPlan partial = plan_tour(inst);
  partial.order.pop_back();
  EXPECT_THROW(analyze_patrol(inst, plan.solution, ChargerConfig{}, 1024, partial),
               std::invalid_argument);
}

TEST(AnalyzePatrol, DemandIsTheTourIndependentPart) {
  // patrol_demand() is analyze_patrol() minus the tour: the same demand,
  // duty and verdict to the bit, with the travel fields left zero.
  util::Rng rng(563);
  const core::Instance inst = test::random_instance(12, 36, 150.0, rng);
  const auto plan = core::solve_rfh(inst);
  ChargerConfig charger;
  charger.radiated_power_w = 20.0;
  const PatrolFeasibility full = analyze(inst, plan.solution, charger, 2048);
  const PatrolFeasibility demand = patrol_demand(inst, plan.solution, charger, 2048);
  EXPECT_EQ(demand.demand_w, full.demand_w);
  EXPECT_EQ(demand.duty, full.duty);
  EXPECT_EQ(demand.feasible, full.feasible);
  EXPECT_EQ(demand.travel_time_s, 0.0);
  EXPECT_EQ(demand.cycle_time_s, 0.0);
  EXPECT_THROW(patrol_demand(inst, plan.solution, charger, 0), std::invalid_argument);
}

}  // namespace
}  // namespace wrsn::sim
