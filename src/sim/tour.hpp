// Charger tour planning and patrol feasibility analysis.
//
// The paper explicitly defers "how to schedule the wireless charger" and
// assumes nodes are always recharged in time.  This module supplies the
// missing piece for practitioners: a periodic-patrol tour over all posts
// (nearest-neighbor construction + 2-opt improvement) and a closed-form
// feasibility analysis of the steady state.
//
// Feasibility math.  Let C = total recharging cost per reported bit (the
// paper's objective), B = bits per round, tau = round period, P = charger
// RF power.  Over any horizon the charger must radiate B*C joules per
// round, i.e. an average RF power of B*C/tau.  A single charger is busy
// charging a fraction rho = B*C/(tau*P) of the time, and the remainder
// must cover travel:
//     cycle time  T = (L/v) / (1 - rho),        feasible  <=>  rho < 1,
// where L is the tour length and v the travel speed.  The battery must
// buffer one full cycle of consumption at the worst post.
#pragma once

#include <vector>

#include "core/solution.hpp"
#include "sim/charger.hpp"

namespace wrsn::sim {

/// A closed patrol route: depot (base station) -> posts in order -> depot.
struct TourPlan {
  std::vector<int> order;  ///< permutation of post indices
  double length_m = 0.0;   ///< closed-tour length including the depot legs
};

/// Plans a tour over all posts of a geometric field (nearest-neighbor seed,
/// then 2-opt until no improving exchange remains).
TourPlan plan_tour(const geom::Field& field);

/// Convenience overload; the instance must be geometric.
TourPlan plan_tour(const core::Instance& instance);

/// Tour length of an arbitrary visiting order (validation / testing).
double tour_length(const geom::Field& field, const std::vector<int>& order);

/// Steady-state feasibility of a single-charger periodic patrol.
struct PatrolFeasibility {
  /// rho: fraction of charger time spent radiating. Feasible iff < 1.
  double duty = 0.0;
  bool feasible = false;
  double cycle_time_s = 0.0;     ///< full patrol period (travel + charging)
  double travel_time_s = 0.0;    ///< per cycle
  double charging_time_s = 0.0;  ///< per cycle
  /// Battery each node needs to ride out one cycle (with no safety margin).
  double min_battery_capacity_j = 0.0;
  /// Average RF power the network demands: B*C/tau.
  double demand_w = 0.0;
};

/// The tour-independent part of analyze_patrol(): fills demand_w, duty and
/// feasible and leaves the travel, cycle and battery fields zero.
PatrolFeasibility patrol_demand(const core::Instance& instance, const core::Solution& solution,
                                const ChargerConfig& charger, int bits_per_round);

/// Analyzes a plan under `charger` parameters and `bits_per_round` traffic.
/// Uses the solution's deployment/routing for the per-post energy rates and
/// `tour` (normally plan_tour() of the instance) for the travel distance.
PatrolFeasibility analyze_patrol(const core::Instance& instance, const core::Solution& solution,
                                 const ChargerConfig& charger, int bits_per_round,
                                 const TourPlan& tour);

}  // namespace wrsn::sim
