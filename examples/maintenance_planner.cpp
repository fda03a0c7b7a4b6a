// Maintenance planning for an operating rechargeable network.
//
// Given a planned network, an operations team needs three numbers before
// going live:
//   1. how many chargers the site needs (fleet sizing),
//   2. what happens when posts fail (resilience drill),
//   3. the patrol schedule (tour, cycle time, battery floor).
// This example produces that report from the library's extension APIs
// (sim::fleet, core::failures, sim::tour) on top of an IDB plan.
//
// Run:  ./maintenance_planner [--posts 18] [--nodes 54] [--seed 3]
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "core/failures.hpp"
#include "core/idb.hpp"
#include "sim/fleet.hpp"
#include "sim/tour.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace wrsn;

int main(int argc, char** argv) {
  int posts = 18;
  int nodes = 54;
  std::int64_t seed = 3;
  double side = 250.0;
  util::Flags flags;
  flags.add_int("posts", &posts, "number of posts");
  flags.add_int("nodes", &nodes, "sensor-node budget");
  flags.add_double("side", &side, "field side length [m]");
  flags.add_int64("seed", &seed, "field seed");
  if (!flags.parse(argc, argv)) return 0;

  // Plan.
  util::Rng rng(static_cast<std::uint64_t>(seed));
  geom::FieldConfig field_cfg;
  field_cfg.width = side;
  field_cfg.height = side;
  field_cfg.num_posts = posts;
  const auto radio = energy::RadioModel::uniform_levels(3, 25.0);
  geom::Field field = geom::generate_field(field_cfg, rng);
  while (!geom::is_connected(field, radio.max_range())) {
    field = geom::generate_field(field_cfg, rng);
  }
  const auto instance = core::Instance::geometric(
      field, radio, energy::ChargingModel::linear(0.01), nodes);
  const auto plan = core::solve_idb(instance);
  std::printf("plan: %d posts / %d nodes on a %.0fx%.0fm site, cost %s per bit\n\n", posts,
              nodes, side, side, util::format_energy(plan.cost).c_str());

  // 1. Fleet sizing.
  sim::NetworkConfig net_cfg;
  net_cfg.bits_per_report = 4096;
  net_cfg.battery_capacity_j = 0.02;
  sim::ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 2.0;
  charger_cfg.radiated_power_w = 20.0;
  charger_cfg.low_watermark = 0.5;
  const int fleet = sim::find_min_fleet(instance, plan.solution, charger_cfg, net_cfg,
                                        /*rounds=*/1000, /*max_chargers=*/8);
  const auto tour = sim::plan_tour(instance);
  const auto patrol = sim::analyze_patrol(instance, plan.solution, charger_cfg,
                                          net_cfg.bits_per_report, tour);
  util::Table fleet_table({"fleet metric", "value"});
  fleet_table.begin_row().add("patrol tour [m]").add(tour.length_m, 1);
  fleet_table.begin_row().add("RF demand [W]").add(patrol.demand_w, 4);
  fleet_table.begin_row().add("single-charger duty cycle").add(patrol.duty, 4);
  fleet_table.begin_row().add("analytic min chargers").add(sim::fleet_size_lower_bound(
      instance, plan.solution, charger_cfg, net_cfg.bits_per_report));
  fleet_table.begin_row().add("simulated min chargers").add(fleet <= 8 ? std::to_string(fleet)
                                                                       : std::string(">8"));
  if (patrol.feasible) {
    fleet_table.begin_row().add("patrol cycle [min]").add(patrol.cycle_time_s / 60.0, 1);
    fleet_table.begin_row().add("battery floor per node [J]").add(
        patrol.min_battery_capacity_j, 4);
  }
  fleet_table.print_ascii(std::cout);

  // 2. Resilience drill: single-post failures, worst offenders first.
  struct Drill {
    int post;
    bool survives;
    double cost_ratio;  // fixed-deployment cost / pre-failure cost
  };
  std::vector<Drill> drills;
  for (int victim = 0; victim < posts; ++victim) {
    const auto impact = core::assess_failure(instance, plan.solution, {victim});
    drills.push_back(Drill{victim, impact.connected,
                           impact.connected ? impact.cost_fixed_deployment / plan.cost : 0.0});
  }
  std::sort(drills.begin(), drills.end(), [](const Drill& a, const Drill& b) {
    if (a.survives != b.survives) return !a.survives;
    return a.cost_ratio > b.cost_ratio;
  });
  std::printf("\nresilience drill (worst single-post failures first):\n");
  util::Table drill_table({"failed post", "network survives", "cost vs pre-failure"});
  for (std::size_t i = 0; i < std::min<std::size_t>(5, drills.size()); ++i) {
    const Drill& d = drills[i];
    drill_table.begin_row()
        .add(d.post)
        .add(d.survives ? "yes" : "NO -- posts stranded")
        .add(d.survives ? util::format_double(d.cost_ratio, 3) : std::string("-"));
  }
  drill_table.print_ascii(std::cout);
  const int fatal =
      static_cast<int>(std::count_if(drills.begin(), drills.end(),
                                     [](const Drill& d) { return !d.survives; }));
  std::printf("\n%d of %d single-post failures would strand part of the network;\n"
              "those posts deserve redundant placement or a relay.\n",
              fatal, posts);
  return 0;
}
