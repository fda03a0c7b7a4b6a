// Charger fleet sizing.
//
// One charger suffices only while its duty cycle rho = B*C/(tau*P) stays
// below 1 and travel leaves enough slack (sim/tour.hpp).  Larger or busier
// networks need a fleet: K chargers on the sim::ChargerSim engine under the
// default `nearest-deficit` policy (most-urgent post first, nearest idle
// charger wins).  This module offers both an analytic lower bound and a
// simulation-based search for the minimum fleet that keeps every node alive.
#pragma once

#include <cstdint>

#include "sim/charger.hpp"
#include "sim/network_sim.hpp"

namespace wrsn::sim {

/// Analytic lower bound on the fleet size: the RF power the network demands
/// divided by one charger's power, ignoring travel (so a true lower bound).
int fleet_size_lower_bound(const core::Instance& instance, const core::Solution& solution,
                           const ChargerConfig& charger, int bits_per_round);

/// Smallest K in [lower bound, max_chargers] that keeps every node alive
/// for `rounds` simulated rounds under `nearest-deficit`; returns
/// max_chargers + 1 when even that fleet fails.
int find_min_fleet(const core::Instance& instance, const core::Solution& solution,
                   const ChargerConfig& charger, const NetworkConfig& network_config,
                   std::uint64_t rounds, int max_chargers);

}  // namespace wrsn::sim
