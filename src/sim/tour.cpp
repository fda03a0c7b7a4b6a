#include "sim/tour.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/cost.hpp"

namespace wrsn::sim {
namespace {

double leg(const geom::Field& field, int from, int to) {
  const auto pos = [&](int v) {
    return v < 0 ? field.base_station : field.posts[static_cast<std::size_t>(v)];
  };
  return geom::distance(pos(from), pos(to));
}

}  // namespace

double tour_length(const geom::Field& field, const std::vector<int>& order) {
  if (order.empty()) return 0.0;
  double total = leg(field, -1, order.front());
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    total += leg(field, order[i], order[i + 1]);
  }
  total += leg(field, order.back(), -1);
  return total;
}

TourPlan plan_tour(const geom::Field& field) {
  const int n = static_cast<int>(field.posts.size());
  TourPlan plan;
  if (n == 0) return plan;

  // Nearest-neighbor construction from the depot.
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  int current = -1;  // depot
  for (int step = 0; step < n; ++step) {
    int best = -1;
    double best_dist = 0.0;
    for (int candidate = 0; candidate < n; ++candidate) {
      if (visited[static_cast<std::size_t>(candidate)]) continue;
      const double d = leg(field, current, candidate);
      if (best < 0 || d < best_dist) {
        best = candidate;
        best_dist = d;
      }
    }
    plan.order.push_back(best);
    visited[static_cast<std::size_t>(best)] = 1;
    current = best;
  }

  // 2-opt: reverse segments while that shortens the closed tour.  The
  // stops are kept in visiting order with the depot at both ends (pts[k]
  // is tour position k-1), and legs[k] caches the leg pts[k] -> pts[k+1],
  // so the removed legs cost two lookups.  Distances are symmetric to the
  // bit, so a reversal just reverses the stops and the legs inside it.
  std::vector<geom::Point> pts(static_cast<std::size_t>(n) + 2, field.base_station);
  for (int k = 0; k < n; ++k) {
    pts[static_cast<std::size_t>(k) + 1] = field.posts[static_cast<std::size_t>(
        plan.order[static_cast<std::size_t>(k)])];
  }
  std::vector<double> legs(static_cast<std::size_t>(n) + 1);
  for (std::size_t k = 0; k < legs.size(); ++k) legs[k] = geom::distance(pts[k], pts[k + 1]);
  bool improved = true;
  while (improved) {
    improved = false;
    for (int i = 0; i + 1 < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        // Exchange legs (i-1, i) and (j, j+1) for (i-1, j) and (i, j+1).
        const auto u = static_cast<std::size_t>(i);
        const auto v = static_cast<std::size_t>(j);
        const double before = legs[u] + legs[v + 1];
        // The second new leg is >= 0, so a first new leg that alone fails
        // the test rules the exchange out without pricing the second.
        const double first = geom::distance(pts[u], pts[v + 1]);
        if (first >= before - 1e-9) continue;
        const double second = geom::distance(pts[u + 1], pts[v + 2]);
        if (first + second < before - 1e-9) {
          std::reverse(plan.order.begin() + i, plan.order.begin() + j + 1);
          std::reverse(pts.begin() + i + 1, pts.begin() + j + 2);
          std::reverse(legs.begin() + i + 1, legs.begin() + j + 1);
          legs[u] = first;
          legs[v + 1] = second;
          improved = true;
        }
      }
    }
  }
  plan.length_m = tour_length(field, plan.order);
  return plan;
}

TourPlan plan_tour(const core::Instance& instance) {
  if (!instance.field()) {
    throw std::invalid_argument("tour planning needs a geometric instance");
  }
  return plan_tour(*instance.field());
}

PatrolFeasibility patrol_demand(const core::Instance& instance, const core::Solution& solution,
                                const ChargerConfig& charger, int bits_per_round) {
  if (bits_per_round <= 0) throw std::invalid_argument("bits_per_round must be positive");
  if (!core::is_valid_solution(instance, solution)) {
    throw std::invalid_argument("patrol analysis requires a valid solution");
  }
  PatrolFeasibility analysis;
  const double cost_per_bit = core::total_recharging_cost(instance, solution);
  analysis.demand_w = cost_per_bit * bits_per_round / charger.round_period_s;
  analysis.duty = analysis.demand_w / charger.radiated_power_w;
  analysis.feasible = analysis.duty < 1.0;
  return analysis;
}

PatrolFeasibility analyze_patrol(const core::Instance& instance, const core::Solution& solution,
                                 const ChargerConfig& charger, int bits_per_round,
                                 const TourPlan& tour) {
  PatrolFeasibility analysis = patrol_demand(instance, solution, charger, bits_per_round);
  if (tour.order.size() != static_cast<std::size_t>(instance.num_posts())) {
    throw std::invalid_argument("analyze_patrol needs a tour over every post");
  }
  analysis.travel_time_s = tour.length_m / charger.speed_mps;
  if (analysis.feasible) {
    analysis.cycle_time_s = analysis.travel_time_s / (1.0 - analysis.duty);
    analysis.charging_time_s = analysis.cycle_time_s - analysis.travel_time_s;

    // Worst-post per-node consumption over one cycle: that much energy must
    // fit in the battery between consecutive visits.
    const auto energy = core::per_post_energy(instance, solution.tree);
    const double rounds_per_cycle = analysis.cycle_time_s / charger.round_period_s;
    double worst = 0.0;
    for (int p = 0; p < instance.num_posts(); ++p) {
      const double per_node_per_round =
          energy[static_cast<std::size_t>(p)] * bits_per_round /
          solution.deployment[static_cast<std::size_t>(p)];
      worst = std::max(worst, per_node_per_round * rounds_per_cycle);
    }
    analysis.min_battery_capacity_j = worst;
  }
  return analysis;
}

}  // namespace wrsn::sim
