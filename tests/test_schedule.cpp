#include "sim/schedule.hpp"

#include <gtest/gtest.h>

#include "core/rfh.hpp"
#include "helpers.hpp"
#include "sim/charger_sim.hpp"
#include "sim/charging_policy.hpp"
#include "sim/network_sim.hpp"

namespace wrsn::sim {
namespace {

TEST(Schedules, ConstantIsOne) {
  const RateSchedule s = constant_schedule();
  for (std::uint64_t round : {0ull, 7ull, 100000ull}) {
    EXPECT_DOUBLE_EQ(s(0, round), 1.0);
    EXPECT_DOUBLE_EQ(s(42, round), 1.0);
  }
}

TEST(Schedules, DiurnalOscillatesAroundOne) {
  const RateSchedule s = diurnal_schedule(24, 0.5);
  double sum = 0.0;
  double lo = 1e9;
  double hi = -1e9;
  for (std::uint64_t r = 0; r < 24; ++r) {
    const double f = s(0, r);
    EXPECT_GT(f, 0.0);
    sum += f;
    lo = std::min(lo, f);
    hi = std::max(hi, f);
  }
  EXPECT_NEAR(sum / 24.0, 1.0, 1e-9);  // mean preserved over a full day
  EXPECT_NEAR(hi, 1.5, 0.01);
  EXPECT_NEAR(lo, 0.5, 0.01);
  // Periodicity.
  EXPECT_DOUBLE_EQ(s(0, 3), s(0, 27));
}

TEST(Schedules, DiurnalValidation) {
  EXPECT_THROW(diurnal_schedule(0, 0.5), std::invalid_argument);
  EXPECT_THROW(diurnal_schedule(24, 1.0), std::invalid_argument);
  EXPECT_THROW(diurnal_schedule(24, -0.1), std::invalid_argument);
}

TEST(Schedules, BurstPattern) {
  const RateSchedule s = burst_schedule(10, 2, 0.5, 4.0);
  EXPECT_DOUBLE_EQ(s(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(s(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(s(0, 2), 0.5);
  EXPECT_DOUBLE_EQ(s(0, 9), 0.5);
  EXPECT_DOUBLE_EQ(s(0, 10), 4.0);
  EXPECT_THROW(burst_schedule(5, 6, 0.5, 2.0), std::invalid_argument);
  EXPECT_THROW(burst_schedule(5, 2, 2.0, 1.0), std::invalid_argument);
}

TEST(Schedules, HotspotTargetsOnePost) {
  const RateSchedule s = hotspot_schedule(3, 10.0);
  EXPECT_DOUBLE_EQ(s(3, 0), 10.0);
  EXPECT_DOUBLE_EQ(s(2, 0), 1.0);
  EXPECT_THROW(hotspot_schedule(0, -1.0), std::invalid_argument);
}

// ----------------------------------------------------- simulator coupling

struct PlanFixture {
  core::Instance instance;
  core::Solution solution;
};

PlanFixture make_plan(std::uint64_t seed) {
  util::Rng rng(seed);
  core::Instance inst = test::random_instance(8, 20, 120.0, rng);
  core::Solution solution = core::solve_rfh(inst).solution;
  return PlanFixture{std::move(inst), std::move(solution)};
}

TEST(ScheduledNetwork, ConstantScheduleMatchesNoSchedule) {
  const PlanFixture plan = make_plan(21);
  NetworkConfig plain_cfg;
  NetworkConfig scheduled_cfg;
  scheduled_cfg.rate_schedule = constant_schedule();
  NetworkSim plain(plan.instance, plan.solution, plain_cfg);
  NetworkSim scheduled(plan.instance, plan.solution, scheduled_cfg);
  plain.run_rounds(20);
  scheduled.run_rounds(20);
  for (int p = 0; p < plan.instance.num_posts(); ++p) {
    EXPECT_NEAR(plain.posts()[static_cast<std::size_t>(p)].consumed_j,
                scheduled.posts()[static_cast<std::size_t>(p)].consumed_j, 1e-15);
  }
}

TEST(ScheduledNetwork, DiurnalAveragesToNominalConsumption) {
  const PlanFixture plan = make_plan(22);
  NetworkConfig cfg;
  cfg.rate_schedule = diurnal_schedule(24, 0.8);
  NetworkSim sim(plan.instance, plan.solution, cfg);
  sim.run_rounds(240);  // ten full days
  for (int p = 0; p < plan.instance.num_posts(); ++p) {
    const double expected =
        240.0 * sim.expected_round_energy()[static_cast<std::size_t>(p)];
    // Only the traffic-dependent share oscillates; averages must agree
    // closely over whole periods.
    EXPECT_NEAR(sim.posts()[static_cast<std::size_t>(p)].consumed_j / expected, 1.0, 0.02)
        << "post " << p;
  }
}

TEST(ScheduledNetwork, HotspotShiftsConsumptionUpstream) {
  const PlanFixture plan = make_plan(23);
  // Pick a leaf post and multiply its traffic 10x: every post on its path
  // to the base must consume more than in the nominal run.
  const auto descendants = plan.solution.tree.descendant_counts();
  int leaf = 0;
  for (int p = 0; p < plan.instance.num_posts(); ++p) {
    if (descendants[static_cast<std::size_t>(p)] == 0) leaf = p;
  }
  NetworkConfig hot_cfg;
  hot_cfg.rate_schedule = hotspot_schedule(leaf, 10.0);
  NetworkSim hot(plan.instance, plan.solution, hot_cfg);
  NetworkSim nominal(plan.instance, plan.solution, NetworkConfig{});
  hot.run_rounds(10);
  nominal.run_rounds(10);
  int v = leaf;
  while (v != plan.solution.tree.base_station()) {
    EXPECT_GT(hot.posts()[static_cast<std::size_t>(v)].consumed_j,
              nominal.posts()[static_cast<std::size_t>(v)].consumed_j * 1.5)
        << "post " << v;
    v = plan.solution.tree.parent(v);
  }
}

TEST(ScheduledNetwork, BurstsStressChargerBeyondAverage) {
  // A charger sized for the average dies under 8x bursts; the same charger
  // handles the equivalent constant load.
  const PlanFixture plan = make_plan(24);
  NetworkConfig burst_cfg;
  burst_cfg.bits_per_report = 8192;
  burst_cfg.battery_capacity_j = 0.06;
  burst_cfg.rate_schedule = burst_schedule(50, 10, 0.22, 12.0);  // avg ~2.58

  NetworkConfig flat_cfg = burst_cfg;
  flat_cfg.rate_schedule = [](int, std::uint64_t) { return 2.58; };

  ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 6.0;
  charger_cfg.radiated_power_w = 60.0;
  charger_cfg.low_watermark = 0.45;

  NetworkSim flat_net(plan.instance, plan.solution, flat_cfg);
  ChargerSim flat(flat_net, charger_cfg, 1,
                  make_charging_policy("nearest-deficit:tiebreak=distance"));
  flat.run(1000);

  NetworkSim burst_net(plan.instance, plan.solution, burst_cfg);
  ChargerSim burst(burst_net, charger_cfg, 1,
                   make_charging_policy("nearest-deficit:tiebreak=distance"));
  burst.run(1000);

  EXPECT_FALSE(flat.stats().any_death) << "constant equivalent load must be sustainable";
  EXPECT_TRUE(burst.stats().any_death) << "peaks, not averages, kill networks";
}

}  // namespace
}  // namespace wrsn::sim
