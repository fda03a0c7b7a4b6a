// Mobile-charger simulation engine.
//
// K chargers, each an Idle/Traveling/Charging state machine, co-simulate
// with a NetworkSim on the shared EventQueue; *what* to dispatch is
// delegated to a pluggable sim::ChargingPolicy (sim/charging_policy.hpp).
// One charger under `nearest-deficit:tiebreak=distance` is the classic
// single-charger patrol, and any K under `nearest-deficit` the classic fleet
// -- both pinned bit-identical to frozen reference simulators by
// tests/test_charging_policy.cpp.
//
// The engine can additionally carry *fixed* RF charger infrastructure (the
// output of core::place_chargers): each fixed charger radiates continuously
// and every node at a covered post absorbs eta * P watts, applied as a
// per-round trickle ahead of the round's consumption.  Fleet size 0 is
// allowed when fixed chargers are present (pure static deployments).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/charger.hpp"
#include "sim/charging_policy.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_sim.hpp"

namespace wrsn::obs {
class Sink;
}

namespace wrsn::core {
struct PlacementResult;
}

namespace wrsn::sim {

/// A static RF charger: radiates `radiated_power_w` continuously; every
/// node at a post within `coverage_radius_m` absorbs eta * P watts.
struct FixedCharger {
  geom::Point position{};
  double radiated_power_w = 5.0;
  double coverage_radius_m = 50.0;
};

/// Aggregate + per-charger statistics of a ChargerSim run.
struct ChargerSimStats {
  double radiated_j = 0.0;  ///< mobile RF energy disseminated (the paper's cost)
  double travel_j = 0.0;    ///< locomotion energy (not part of the paper metric)
  double distance_m = 0.0;
  std::uint64_t visits = 0;
  std::uint64_t rounds = 0;
  bool any_death = false;
  /// Per-charger share of the work (radiated joules), for balance checks.
  std::vector<double> radiated_per_charger;
  std::vector<std::uint64_t> visits_per_charger;
  /// RF energy radiated by the fixed infrastructure (0 without placements).
  double fixed_radiated_j = 0.0;

  /// Mobile radiated energy per reporting round -- comparable to the
  /// analytic total recharging cost times bits_per_report.
  double radiated_per_round() const {
    return rounds ? radiated_j / static_cast<double>(rounds) : 0.0;
  }
};

/// K mobile chargers (plus optional fixed infrastructure) patrolling one
/// network under a pluggable dispatch policy.
class ChargerSim {
 public:
  /// `num_chargers` >= 1, or 0 when `fixed` is non-empty.  The policy must
  /// be non-null; `sink` (may be nullptr) observes dispatches.
  ChargerSim(NetworkSim& network, const ChargerConfig& config, int num_chargers,
             std::unique_ptr<ChargingPolicy> policy,
             std::vector<FixedCharger> fixed = {}, obs::Sink* sink = nullptr);

  /// Runs `rounds` reporting rounds of co-simulation.
  void run(std::uint64_t rounds);

  const ChargerSimStats& stats() const noexcept { return stats_; }
  int num_chargers() const noexcept { return static_cast<int>(chargers_.size()); }
  int num_fixed_chargers() const noexcept { return static_cast<int>(fixed_.size()); }
  const ChargingPolicy& policy() const noexcept { return *policy_; }
  double now() const noexcept { return queue_.now(); }

 private:
  friend class PolicyContext;

  enum class State { Idle, Traveling, Charging };
  struct Charger {
    State state = State::Idle;
    geom::Point position{};
    int target_post = -1;
    double charge_started = 0.0;
  };

  geom::Point post_position(int p) const;
  double min_fraction(int p) const;
  bool post_claimed(int p) const;
  void on_round();
  void apply_fixed_charging();
  /// Asks the policy for decisions and executes them in order.
  void request_dispatch();
  void execute(const DispatchDecision& decision);
  void arrive(int charger_idx);
  void finish_charging(int charger_idx);

  NetworkSim* network_;
  ChargerConfig config_;
  EventQueue queue_;
  ChargerSimStats stats_;
  std::vector<Charger> chargers_;
  std::unique_ptr<ChargingPolicy> policy_;
  std::vector<FixedCharger> fixed_;
  std::vector<std::vector<int>> fixed_covers_;  // posts in range, per fixed charger
  obs::Sink* sink_;
  std::vector<DispatchDecision> decisions_;  // scratch
};

/// Converts a placement-optimizer result into simulator infrastructure.
std::vector<FixedCharger> fixed_chargers_from(const core::PlacementResult& placement,
                                              double radiated_power_w,
                                              double coverage_radius_m);

}  // namespace wrsn::sim
