// Charging-policy framework tests.
//
// The load-bearing half is bit-identity: the sim::ChargerSim engine running
// the "nearest-deficit" policy must reproduce the single-charger patrol and
// the fleet simulator it replaced EXACTLY -- same floating-point arithmetic
// in the same order, same event schedule -- across seeds and fleet sizes.
// To pin that, this file carries frozen verbatim replicas of those
// simulators (LegacyPatrolSim / LegacyFleetSim below); every stats field and
// every per-node battery level is compared with operator== (no tolerances).
//
// The rest covers the registry (spec parsing, option validation, catalogue),
// the individual policies' observable behavior, the placement-backed fixed
// infrastructure run, and dispatch-event observability.
#include "sim/charging_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/charger_placement.hpp"
#include "core/rfh.hpp"
#include "helpers.hpp"
#include "obs/sink.hpp"
#include "sim/charger_sim.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_sim.hpp"

namespace wrsn::sim {
namespace {

// Statistics of the frozen replicas below (the fields of the stats structs
// they were written against).
struct LegacyStats {
  double radiated_j = 0.0;
  double travel_j = 0.0;
  double distance_m = 0.0;
  std::uint64_t visits = 0;
  std::uint64_t rounds = 0;
  bool any_death = false;
  std::vector<double> radiated_per_charger;
  std::vector<std::uint64_t> visits_per_charger;
};

// ---------------------------------------------------------------------------
// Frozen legacy single-charger patrol (verbatim pre-unification patrol).
// ---------------------------------------------------------------------------
class LegacyPatrolSim {
 public:
  LegacyPatrolSim(NetworkSim& network, const ChargerConfig& config)
      : network_(&network), config_(config) {
    position_ = depot_position();
  }

  void run(std::uint64_t rounds) {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      queue_.schedule(static_cast<double>(r + 1) * config_.round_period_s, [this] {
        if (!network_->run_round()) stats_.any_death = true;
        ++stats_.rounds;
        dispatch_if_needed();
      });
    }
    queue_.run_until(static_cast<double>(rounds + 1) * config_.round_period_s + 1e9);
    while (queue_.run_next()) {
    }
  }

  const LegacyStats& stats() const noexcept { return stats_; }

 private:
  enum class State { Idle, Traveling, Charging };

  geom::Point post_position(int p) const {
    const auto& field = network_->instance().field();
    if (!field) return {0.0, 0.0};
    return field->posts[static_cast<std::size_t>(p)];
  }

  geom::Point depot_position() const {
    const auto& field = network_->instance().field();
    if (!field) return {0.0, 0.0};
    return field->base_station;
  }

  double min_fraction(int p) const {
    const auto& nodes = network_->posts()[static_cast<std::size_t>(p)].nodes;
    const double capacity = network_->config().battery_capacity_j;
    double lowest = std::numeric_limits<double>::infinity();
    for (const auto& node : nodes) lowest = std::min(lowest, node.battery_j / capacity);
    return lowest;
  }

  int pick_target() const {
    int best = -1;
    double best_fraction = config_.low_watermark;
    double best_distance = std::numeric_limits<double>::infinity();
    for (int p = 0; p < network_->instance().num_posts(); ++p) {
      const double fraction = min_fraction(p);
      if (fraction >= config_.low_watermark) continue;
      const double dist = geom::distance(position_, post_position(p));
      if (fraction < best_fraction - 1e-12 ||
          (fraction < best_fraction + 1e-12 && dist < best_distance)) {
        best = p;
        best_fraction = fraction;
        best_distance = dist;
      }
    }
    return best;
  }

  void dispatch_if_needed() {
    if (state_ != State::Idle) return;
    const int target = pick_target();
    if (target < 0) return;
    target_post_ = target;
    state_ = State::Traveling;
    const double dist = geom::distance(position_, post_position(target));
    const double travel_time = dist / config_.speed_mps;
    stats_.distance_m += dist;
    stats_.travel_j += travel_time * config_.travel_power_w;
    queue_.schedule_in(travel_time, [this] { arrive(); });
  }

  void arrive() {
    position_ = post_position(target_post_);
    state_ = State::Charging;
    charge_started_ = queue_.now();
    const auto& post = network_->posts()[static_cast<std::size_t>(target_post_)];
    const double capacity = network_->config().battery_capacity_j;
    const double node_power =
        network_->instance().charging().eta() * config_.radiated_power_w;
    double max_deficit = 0.0;
    for (const auto& node : post.nodes) {
      max_deficit = std::max(max_deficit, config_.high_watermark * capacity - node.battery_j);
    }
    const double duration = std::max(max_deficit, 0.0) / node_power;
    queue_.schedule_in(duration, [this] { finish_charging(); });
  }

  void finish_charging() {
    const double duration = queue_.now() - charge_started_;
    const double capacity = network_->config().battery_capacity_j;
    const double node_power =
        network_->instance().charging().eta() * config_.radiated_power_w;
    auto& post = network_->mutable_post(target_post_);
    for (auto& node : post.nodes) {
      node.battery_j = std::min(capacity, node.battery_j + node_power * duration);
    }
    stats_.radiated_j += duration * config_.radiated_power_w;
    ++stats_.visits;
    state_ = State::Idle;
    target_post_ = -1;
    dispatch_if_needed();
  }

  NetworkSim* network_;
  ChargerConfig config_;
  EventQueue queue_;
  LegacyStats stats_;
  State state_ = State::Idle;
  geom::Point position_{};
  int target_post_ = -1;
  double charge_started_ = 0.0;
};

// ---------------------------------------------------------------------------
// Frozen legacy fleet (verbatim pre-unification fleet).
// ---------------------------------------------------------------------------
class LegacyFleetSim {
 public:
  LegacyFleetSim(NetworkSim& network, const ChargerConfig& config, int num_chargers)
      : network_(&network), config_(config) {
    const auto& field = network.instance().field();
    const geom::Point depot = field ? field->base_station : geom::Point{0.0, 0.0};
    chargers_.assign(static_cast<std::size_t>(num_chargers), Charger{});
    for (auto& charger : chargers_) charger.position = depot;
    stats_.radiated_per_charger.assign(static_cast<std::size_t>(num_chargers), 0.0);
    stats_.visits_per_charger.assign(static_cast<std::size_t>(num_chargers), 0);
  }

  void run(std::uint64_t rounds) {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      queue_.schedule(static_cast<double>(r + 1) * config_.round_period_s, [this] {
        if (!network_->run_round()) stats_.any_death = true;
        ++stats_.rounds;
        dispatch_all();
      });
    }
    while (queue_.run_next()) {
    }
  }

  const LegacyStats& stats() const noexcept { return stats_; }

 private:
  enum class State { Idle, Traveling, Charging };
  struct Charger {
    State state = State::Idle;
    geom::Point position{};
    int target_post = -1;
    double charge_started = 0.0;
  };

  geom::Point post_position(int p) const {
    const auto& field = network_->instance().field();
    if (!field) return {0.0, 0.0};
    return field->posts[static_cast<std::size_t>(p)];
  }

  double min_fraction(int p) const {
    const auto& nodes = network_->posts()[static_cast<std::size_t>(p)].nodes;
    const double capacity = network_->config().battery_capacity_j;
    double lowest = std::numeric_limits<double>::infinity();
    for (const auto& node : nodes) lowest = std::min(lowest, node.battery_j / capacity);
    return lowest;
  }

  bool post_claimed(int p) const {
    return std::any_of(chargers_.begin(), chargers_.end(),
                       [&](const Charger& c) { return c.target_post == p; });
  }

  void dispatch_all() {
    while (true) {
      int urgent = -1;
      double urgent_fraction = config_.low_watermark;
      for (int p = 0; p < network_->instance().num_posts(); ++p) {
        if (post_claimed(p)) continue;
        const double fraction = min_fraction(p);
        if (fraction < urgent_fraction) {
          urgent = p;
          urgent_fraction = fraction;
        }
      }
      if (urgent < 0) return;

      int best_charger = -1;
      double best_distance = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < chargers_.size(); ++c) {
        if (chargers_[c].state != State::Idle) continue;
        const double d = geom::distance(chargers_[c].position, post_position(urgent));
        if (d < best_distance) {
          best_distance = d;
          best_charger = static_cast<int>(c);
        }
      }
      if (best_charger < 0) return;

      Charger& charger = chargers_[static_cast<std::size_t>(best_charger)];
      charger.state = State::Traveling;
      charger.target_post = urgent;
      const double travel_time = best_distance / config_.speed_mps;
      stats_.distance_m += best_distance;
      stats_.travel_j += travel_time * config_.travel_power_w;
      queue_.schedule_in(travel_time, [this, best_charger] { arrive(best_charger); });
    }
  }

  void arrive(int charger_idx) {
    Charger& charger = chargers_[static_cast<std::size_t>(charger_idx)];
    charger.position = post_position(charger.target_post);
    charger.state = State::Charging;
    charger.charge_started = queue_.now();

    const auto& post = network_->posts()[static_cast<std::size_t>(charger.target_post)];
    const double capacity = network_->config().battery_capacity_j;
    const double node_power =
        network_->instance().charging().eta() * config_.radiated_power_w;
    double max_deficit = 0.0;
    for (const auto& node : post.nodes) {
      max_deficit = std::max(max_deficit, config_.high_watermark * capacity - node.battery_j);
    }
    const double duration = std::max(max_deficit, 0.0) / node_power;
    queue_.schedule_in(duration, [this, charger_idx] { finish_charging(charger_idx); });
  }

  void finish_charging(int charger_idx) {
    Charger& charger = chargers_[static_cast<std::size_t>(charger_idx)];
    const double duration = queue_.now() - charger.charge_started;
    const double capacity = network_->config().battery_capacity_j;
    const double node_power =
        network_->instance().charging().eta() * config_.radiated_power_w;
    auto& post = network_->mutable_post(charger.target_post);
    for (auto& node : post.nodes) {
      node.battery_j = std::min(capacity, node.battery_j + node_power * duration);
    }
    const double radiated = duration * config_.radiated_power_w;
    stats_.radiated_j += radiated;
    stats_.radiated_per_charger[static_cast<std::size_t>(charger_idx)] += radiated;
    ++stats_.visits;
    ++stats_.visits_per_charger[static_cast<std::size_t>(charger_idx)];
    charger.state = State::Idle;
    charger.target_post = -1;
    dispatch_all();
  }

  NetworkSim* network_;
  ChargerConfig config_;
  EventQueue queue_;
  LegacyStats stats_;
  std::vector<Charger> chargers_;
};

// ---------------------------------------------------------------------------
// Fixtures and exact-comparison helpers.
// ---------------------------------------------------------------------------
struct PlanFixture {
  core::Instance instance;
  core::Solution solution;
};

PlanFixture make_plan(int posts, int nodes, double side, std::uint64_t seed) {
  util::Rng rng(seed);
  core::Instance inst = test::random_instance(posts, nodes, side, rng);
  core::Solution solution = core::solve_rfh(inst).solution;
  return PlanFixture{std::move(inst), std::move(solution)};
}

std::vector<double> all_batteries(const NetworkSim& network) {
  std::vector<double> batteries;
  for (const auto& post : network.posts()) {
    for (const auto& node : post.nodes) batteries.push_back(node.battery_j);
  }
  return batteries;
}

void expect_bit_identical(const ChargerSimStats& actual, const LegacyStats& expected) {
  EXPECT_EQ(actual.radiated_j, expected.radiated_j);
  EXPECT_EQ(actual.travel_j, expected.travel_j);
  EXPECT_EQ(actual.distance_m, expected.distance_m);
  EXPECT_EQ(actual.visits, expected.visits);
  EXPECT_EQ(actual.rounds, expected.rounds);
  EXPECT_EQ(actual.any_death, expected.any_death);
}

// ---------------------------------------------------------------------------
// Bit-identity: ChargerSim + nearest-deficit == legacy simulators.
// ---------------------------------------------------------------------------
TEST(BitIdentity, SingleChargerMatchesLegacyPatrolAcrossSeeds) {
  for (const std::uint64_t seed : {3ULL, 7ULL, 11ULL, 23ULL}) {
    const PlanFixture plan = make_plan(8, 24, 120.0, seed);
    NetworkConfig net_cfg;
    net_cfg.bits_per_report = 4096;
    net_cfg.battery_capacity_j = 0.02;
    ChargerConfig charger_cfg;
    charger_cfg.speed_mps = 10.0;
    charger_cfg.radiated_power_w = 50.0;

    NetworkSim legacy_net(plan.instance, plan.solution, net_cfg);
    LegacyPatrolSim legacy(legacy_net, charger_cfg);
    legacy.run(1500);

    NetworkSim unified_net(plan.instance, plan.solution, net_cfg);
    ChargerSim unified(unified_net, charger_cfg, 1,
                       make_charging_policy("nearest-deficit:tiebreak=distance"));
    unified.run(1500);

    EXPECT_EQ(unified.stats().radiated_j, legacy.stats().radiated_j) << "seed " << seed;
    EXPECT_EQ(unified.stats().travel_j, legacy.stats().travel_j) << "seed " << seed;
    EXPECT_EQ(unified.stats().distance_m, legacy.stats().distance_m) << "seed " << seed;
    EXPECT_EQ(unified.stats().visits, legacy.stats().visits) << "seed " << seed;
    EXPECT_EQ(unified.stats().rounds, legacy.stats().rounds) << "seed " << seed;
    EXPECT_EQ(unified.stats().any_death, legacy.stats().any_death) << "seed " << seed;
    EXPECT_EQ(all_batteries(unified_net), all_batteries(legacy_net)) << "seed " << seed;
  }
}

TEST(BitIdentity, FleetMatchesLegacyAcrossSizesAndSeeds) {
  for (const std::uint64_t seed : {2ULL, 9ULL}) {
    for (int fleet_size = 1; fleet_size <= 4; ++fleet_size) {
      const PlanFixture plan = make_plan(10, 30, 150.0, seed);
      NetworkConfig net_cfg;
      net_cfg.bits_per_report = 4096;
      net_cfg.battery_capacity_j = 0.02;
      ChargerConfig charger_cfg;
      charger_cfg.speed_mps = 10.0;
      charger_cfg.radiated_power_w = 50.0;

      NetworkSim legacy_net(plan.instance, plan.solution, net_cfg);
      LegacyFleetSim legacy(legacy_net, charger_cfg, fleet_size);
      legacy.run(1000);

      NetworkSim unified_net(plan.instance, plan.solution, net_cfg);
      ChargerSim unified(unified_net, charger_cfg, fleet_size,
                         make_charging_policy("nearest-deficit"));
      unified.run(1000);

      SCOPED_TRACE("seed " + std::to_string(seed) + " fleet " +
                   std::to_string(fleet_size));
      expect_bit_identical(unified.stats(), legacy.stats());
      EXPECT_EQ(unified.stats().radiated_per_charger, legacy.stats().radiated_per_charger);
      EXPECT_EQ(unified.stats().visits_per_charger, legacy.stats().visits_per_charger);
      EXPECT_EQ(all_batteries(unified_net), all_batteries(legacy_net));
    }
  }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------
TEST(ChargingPolicyRegistry, CataloguesBuiltinPolicies) {
  const auto& registry = ChargingPolicyRegistry::global();
  for (const char* name :
       {"nearest-deficit", "threshold", "periodic", "lookahead", "adaptive", "fixed"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_FALSE(registry.help(name).empty()) << name;
  }
  const std::vector<std::string> names = registry.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ChargingPolicyRegistry, RejectsUnknownAndMalformedSpecs) {
  EXPECT_THROW(make_charging_policy("no-such-policy"), std::invalid_argument);
  EXPECT_THROW(make_charging_policy("nearest-deficit:tiebreak=sideways"),
               std::invalid_argument);
  EXPECT_THROW(make_charging_policy("nearest-deficit:bogus=1"), std::invalid_argument);
  EXPECT_THROW(make_charging_policy("threshold:low=1.5"), std::invalid_argument);
  EXPECT_THROW(make_charging_policy("periodic:every=0"), std::invalid_argument);
  EXPECT_THROW(make_charging_policy("lookahead:horizon=-1"), std::invalid_argument);
  EXPECT_THROW(make_charging_policy("adaptive:target=0"), std::invalid_argument);
  EXPECT_THROW(make_charging_policy("fixed:power=5"), std::invalid_argument);
}

TEST(ChargingPolicyRegistry, CreatedPoliciesCarryTheirSpecs) {
  // name() keeps the full spec string so tables and reports can distinguish
  // differently-tuned instances of the same policy.
  EXPECT_EQ(make_charging_policy("nearest-deficit")->name(), "nearest-deficit");
  EXPECT_EQ(make_charging_policy("threshold:low=0.3")->name(), "threshold:low=0.3");
  EXPECT_EQ(make_charging_policy("adaptive:target=0.4,gain=0.1")->name(),
            "adaptive:target=0.4,gain=0.1");
}

// ---------------------------------------------------------------------------
// Engine and policy behavior.
// ---------------------------------------------------------------------------
TEST(ChargerSim, RejectsBadArguments) {
  const PlanFixture plan = make_plan(5, 10, 100.0, 1);
  NetworkSim net(plan.instance, plan.solution, {});
  EXPECT_THROW(ChargerSim(net, ChargerConfig{}, 1, nullptr), std::invalid_argument);
  EXPECT_THROW(ChargerSim(net, ChargerConfig{}, 0, make_charging_policy("threshold")),
               std::invalid_argument);
  ChargerConfig bad;
  bad.radiated_power_w = 0.0;
  EXPECT_THROW(ChargerSim(net, bad, 1, make_charging_policy("threshold")),
               std::invalid_argument);
  EXPECT_THROW(ChargerSim(net, bad, 2, make_charging_policy("nearest-deficit")),
               std::invalid_argument);
  bad = ChargerConfig{};
  bad.speed_mps = 0.0;
  EXPECT_THROW(ChargerSim(net, bad, 1, make_charging_policy("nearest-deficit:tiebreak=distance")),
               std::invalid_argument);
  bad = ChargerConfig{};
  bad.low_watermark = 0.9;
  bad.high_watermark = 0.8;
  EXPECT_THROW(ChargerSim(net, bad, 1, make_charging_policy("nearest-deficit:tiebreak=distance")),
               std::invalid_argument);
}

TEST(ChargerSim, AllPoliciesKeepAGenerousNetworkAlive) {
  const PlanFixture plan = make_plan(6, 18, 100.0, 4);
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 4096;
  net_cfg.battery_capacity_j = 0.02;
  ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 50.0;
  charger_cfg.radiated_power_w = 100.0;

  for (const char* spec :
       {"nearest-deficit", "threshold", "periodic:every=10", "lookahead", "adaptive"}) {
    NetworkSim net(plan.instance, plan.solution, net_cfg);
    ChargerSim sim(net, charger_cfg, 1, make_charging_policy(spec));
    sim.run(1500);
    EXPECT_FALSE(sim.stats().any_death) << spec;
    EXPECT_EQ(net.dead_node_count(), 0) << spec;
    EXPECT_GT(sim.stats().visits, 0u) << spec;
  }
}

TEST(ChargerSim, PeriodicPolicyVisitsEveryPost) {
  const PlanFixture plan = make_plan(6, 18, 100.0, 8);
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 1024;
  net_cfg.battery_capacity_j = 0.05;
  ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 50.0;
  charger_cfg.radiated_power_w = 100.0;

  obs::RecordingSink sink;
  NetworkSim net(plan.instance, plan.solution, net_cfg);
  ChargerSim sim(net, charger_cfg, 1, make_charging_policy("periodic:every=20"), {}, &sink);
  sim.run(400);

  std::vector<char> visited(static_cast<std::size_t>(plan.instance.num_posts()), 0);
  for (const auto& event : sink.charger_dispatches) {
    visited[static_cast<std::size_t>(event.post)] = 1;
  }
  EXPECT_EQ(std::count(visited.begin(), visited.end(), 1),
            plan.instance.num_posts());
}

TEST(ChargerSim, EmitsDispatchEventsThroughSink) {
  const PlanFixture plan = make_plan(5, 15, 100.0, 6);
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 4096;
  net_cfg.battery_capacity_j = 0.02;
  ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 20.0;
  charger_cfg.radiated_power_w = 80.0;

  obs::RecordingSink sink;
  NetworkSim net(plan.instance, plan.solution, net_cfg);
  ChargerSim sim(net, charger_cfg, 2, make_charging_policy("nearest-deficit"), {}, &sink);
  sim.run(600);

  ASSERT_FALSE(sink.charger_dispatches.empty());
  EXPECT_EQ(sink.charger_dispatches.size(), sim.stats().visits);
  for (const auto& event : sink.charger_dispatches) {
    EXPECT_GE(event.charger, 0);
    EXPECT_LT(event.charger, 2);
    EXPECT_GE(event.post, 0);
    EXPECT_LT(event.post, plan.instance.num_posts());
    EXPECT_LT(event.deficit_fraction, charger_cfg.low_watermark + 1e-9);
    EXPECT_GE(event.distance_m, 0.0);
  }
}

TEST(ChargerSim, FixedPlacementKeepsNetworkAliveWithoutMobileChargers) {
  const PlanFixture plan = make_plan(8, 24, 120.0, 13);
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 4096;
  net_cfg.battery_capacity_j = 0.02;

  core::PlacementConfig placement_cfg;
  placement_cfg.coverage_radius_m = 50.0;
  placement_cfg.radiated_power_w = 5.0;
  placement_cfg.bits_per_round = net_cfg.bits_per_report;
  const core::PlacementResult placement =
      core::place_chargers(plan.instance, plan.solution, placement_cfg);
  ASSERT_TRUE(placement.feasible);
  ASSERT_FALSE(placement.chargers.empty());

  NetworkSim net(plan.instance, plan.solution, net_cfg);
  ChargerSim sim(net, ChargerConfig{}, 0, make_charging_policy("fixed"),
                 sim::fixed_chargers_from(placement, placement_cfg.radiated_power_w,
                                          placement_cfg.coverage_radius_m));
  EXPECT_EQ(sim.num_chargers(), 0);
  EXPECT_EQ(sim.num_fixed_chargers(), static_cast<int>(placement.chargers.size()));
  sim.run(2000);

  EXPECT_FALSE(sim.stats().any_death);
  EXPECT_EQ(net.dead_node_count(), 0);
  EXPECT_EQ(sim.stats().visits, 0u);
  EXPECT_EQ(sim.stats().radiated_j, 0.0);
  EXPECT_GT(sim.stats().fixed_radiated_j, 0.0);
}

TEST(ChargerSim, AdaptivePolicyTracksItsDeathTarget) {
  // With a generous fleet the adaptive controller should settle somewhere in
  // its clamp range and never let the network die.
  const PlanFixture plan = make_plan(6, 18, 100.0, 17);
  NetworkConfig net_cfg;
  net_cfg.bits_per_report = 4096;
  net_cfg.battery_capacity_j = 0.02;
  ChargerConfig charger_cfg;
  charger_cfg.speed_mps = 50.0;
  charger_cfg.radiated_power_w = 100.0;

  NetworkSim net(plan.instance, plan.solution, net_cfg);
  ChargerSim sim(net, charger_cfg, 2, make_charging_policy("adaptive:target=0.4"));
  sim.run(1500);
  EXPECT_FALSE(sim.stats().any_death);
  EXPECT_GT(sim.stats().visits, 0u);
}

}  // namespace
}  // namespace wrsn::sim
