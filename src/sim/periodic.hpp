// Periodic tour-following charger (the alternative scheduling policy).
//
// ChargerSim's policies react to low batteries; TourPatrolSim instead
// drives the planned closed tour (sim/tour.hpp) forever, topping up every
// post it passes.  Periodic maintenance needs no telemetry from the
// network (no battery monitoring backchannel) -- the trade-off is that it
// spends travel on posts that did not need service yet.  The analytic
// feasibility of this policy is exactly analyze_patrol()'s cycle model.
#pragma once

#include "sim/charger.hpp"
#include "sim/charger_sim.hpp"
#include "sim/event_queue.hpp"
#include "sim/tour.hpp"

namespace wrsn::sim {

/// One charger driving the tour in a loop; at each stop it charges every
/// node at the post up to the high watermark.
class TourPatrolSim {
 public:
  /// `plan` must cover exactly the instance's posts (plan_tour output).
  TourPatrolSim(NetworkSim& network, const ChargerConfig& config, TourPlan plan);

  void run(std::uint64_t rounds);
  /// Aggregate statistics of the one charger (the per-charger vectors stay
  /// empty and fixed_radiated_j zero).
  const ChargerSimStats& stats() const noexcept { return stats_; }
  /// Completed full tours.
  std::uint64_t laps() const noexcept { return laps_; }

 private:
  geom::Point stop_position(std::size_t stop) const;
  void depart_to_next();
  void arrive();
  void finish_charging();

  NetworkSim* network_;
  ChargerConfig config_;
  TourPlan plan_;
  EventQueue queue_;
  ChargerSimStats stats_;
  std::uint64_t laps_ = 0;
  std::size_t next_stop_ = 0;  // index into plan_.order
  geom::Point position_{};
  double charge_started_ = 0.0;
};

}  // namespace wrsn::sim
