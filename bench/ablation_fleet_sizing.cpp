// Ablation A6: charger-fleet sizing vs network scale (extension).
//
// The paper assumes charging always arrives in time; sim/fleet makes the
// assumption's price visible: how many chargers does it take as the network
// grows, and how tight is the analytic duty-cycle lower bound B*C/(tau*P)?
#include "common.hpp"
#include "core/rfh.hpp"
#include "sim/charger_sim.hpp"
#include "sim/charging_policy.hpp"
#include "sim/fleet.hpp"

using namespace wrsn;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::ObsSession obs_session(args);
  const int runs = args.runs_or(args.paper_scale() ? 5 : 2);
  const std::uint64_t rounds = args.paper_scale() ? 2000 : 800;

  sim::NetworkConfig net_cfg;
  net_cfg.bits_per_report = 4096;
  net_cfg.battery_capacity_j = 0.02;
  sim::ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 2.0;
  charger_cfg.radiated_power_w = 20.0;
  charger_cfg.low_watermark = 0.5;

  struct Scale {
    int posts;
    int nodes;
    double side;
  };
  const std::vector<Scale> scales{{8, 24, 150.0}, {12, 36, 250.0}, {16, 48, 300.0},
                                  {20, 60, 350.0}};

  util::Table table({"N", "M", "side [m]", "analytic lower bound", "min fleet (simulated)",
                     "charger duty at min fleet", "visits/round"});
  for (const Scale& scale : scales) {
    util::RunningStats lower;
    util::RunningStats min_fleet;
    util::RunningStats duty;
    util::RunningStats visit_rate;
    for (int run = 0; run < runs; ++run) {
      util::Rng rng(static_cast<std::uint64_t>(args.seed) + run * 7);
      const core::Instance inst =
          bench::make_paper_instance(scale.posts, scale.nodes, scale.side, 3, rng);
      const auto plan = core::solve_rfh(inst);
      const int bound = sim::fleet_size_lower_bound(inst, plan.solution, charger_cfg,
                                                    net_cfg.bits_per_report);
      const int k = sim::find_min_fleet(inst, plan.solution, charger_cfg, net_cfg, rounds, 10);
      lower.add(bound);
      min_fleet.add(k);
      if (k <= 10) {
        sim::NetworkSim net(inst, plan.solution, net_cfg);
        sim::ChargerSim fleet(net, charger_cfg, k, sim::make_charging_policy("nearest-deficit"));
        fleet.run(rounds);
        duty.add(fleet.stats().radiated_j /
                 (charger_cfg.radiated_power_w * k * fleet.stats().rounds *
                  charger_cfg.round_period_s));
        visit_rate.add(static_cast<double>(fleet.stats().visits) /
                       static_cast<double>(fleet.stats().rounds));
      }
    }
    table.begin_row()
        .add(scale.posts)
        .add(scale.nodes)
        .add(scale.side, 0)
        .add(lower.mean(), 2)
        .add(min_fleet.mean(), 2)
        .add(duty.empty() ? 0.0 : duty.mean(), 4)
        .add(visit_rate.empty() ? 0.0 : visit_rate.mean(), 3);
  }
  bench::emit(table, args,
              "Ablation: charger-fleet sizing vs network scale (RFH plans, " +
                  std::to_string(runs) + " fields per row, " + std::to_string(rounds) +
                  " rounds)");
  std::printf("\nthe gap between the simulated minimum and the duty-cycle bound is the\n"
              "price of travel time and battery granularity the bound ignores.\n");
  return 0;
}
