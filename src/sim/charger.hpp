// Mobile wireless charger parameters (makes Section III's standing
// assumption "sensor nodes can always be recharged in time" an executable,
// checkable property).
//
// A charger starts at the base station, watches post battery levels, and
// when a post falls below the low watermark it drives there (travel time =
// distance/speed) and radiates power until every node at the post is back
// above the high watermark.  A post holding m nodes absorbs the radiated
// power with efficiency k(m)*eta -- each node receives eta * P watts -- so
// the long-run radiated-energy-per-round converges to the analytic total
// recharging cost, which the integration tests verify.  The engine that
// runs chargers is sim::ChargerSim (sim/charger_sim.hpp); the single-charger
// patrol is its `nearest-deficit:tiebreak=distance` policy with one charger.
#pragma once

namespace wrsn::sim {

struct ChargerConfig {
  double speed_mps = 5.0;          ///< travel speed (vehicle/robot)
  double radiated_power_w = 3.0;   ///< RF power while charging
  double travel_power_w = 20.0;    ///< locomotion draw (metered separately)
  double low_watermark = 0.5;      ///< dispatch when min node fraction < this
  double high_watermark = 0.95;    ///< charge until min node fraction >= this
  double round_period_s = 60.0;    ///< network reporting period
};

}  // namespace wrsn::sim
