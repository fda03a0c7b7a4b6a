#include "sim/fleet.hpp"

#include <algorithm>
#include <cmath>

#include "sim/charger_sim.hpp"
#include "sim/charging_policy.hpp"
#include "sim/tour.hpp"

namespace wrsn::sim {

int fleet_size_lower_bound(const core::Instance& instance, const core::Solution& solution,
                           const ChargerConfig& charger, int bits_per_round) {
  const PatrolFeasibility one = patrol_demand(instance, solution, charger, bits_per_round);
  return std::max(1, static_cast<int>(std::ceil(one.duty)));
}

int find_min_fleet(const core::Instance& instance, const core::Solution& solution,
                   const ChargerConfig& charger, const NetworkConfig& network_config,
                   std::uint64_t rounds, int max_chargers) {
  const int lower = fleet_size_lower_bound(instance, solution, charger,
                                           network_config.bits_per_report);
  for (int k = lower; k <= max_chargers; ++k) {
    NetworkSim network(instance, solution, network_config);
    ChargerSim fleet(network, charger, k, make_charging_policy("nearest-deficit"));
    fleet.run(rounds);
    if (!fleet.stats().any_death) return k;
  }
  return max_chargers + 1;
}

}  // namespace wrsn::sim
