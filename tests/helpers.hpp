// Shared fixtures for the wrsn test suite.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "geom/field.hpp"
#include "graph/routing_tree.hpp"
#include "util/rng.hpp"

namespace wrsn::test {

/// Paper radio: 3 levels, 25/50/75 m, Heinzelman constants.
inline energy::RadioModel paper_radio(int levels = 3) {
  return energy::RadioModel::uniform_levels(levels, 25.0);
}

/// A small charging efficiency in the regime the field experiment measured.
inline energy::ChargingModel paper_charging(double eta = 0.01) {
  return energy::ChargingModel::linear(eta);
}

/// Chain instance: posts on a line at 20 m spacing starting 20 m from the
/// base station; every hop needs only level 0.
inline core::Instance chain_instance(int num_posts, int num_nodes) {
  geom::Field field;
  field.base_station = {0.0, 0.0};
  field.width = 20.0 * (num_posts + 1);
  field.height = 1.0;
  for (int i = 1; i <= num_posts; ++i) {
    field.posts.push_back({20.0 * i, 0.0});
  }
  return core::Instance::geometric(field, paper_radio(), paper_charging(), num_nodes);
}

/// Random connected instance on a square field (rejection-samples until the
/// field is connected at d_max = 75 m) under an explicit charging model.
inline core::Instance random_instance(int num_posts, int num_nodes, double side, util::Rng& rng,
                                      const energy::ChargingModel& charging) {
  geom::FieldConfig cfg;
  cfg.width = side;
  cfg.height = side;
  cfg.num_posts = num_posts;
  const auto radio = paper_radio();
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const geom::Field field = geom::generate_field(cfg, rng);
    if (geom::is_connected(field, radio.max_range())) {
      return core::Instance::geometric(field, radio, charging, num_nodes);
    }
  }
  throw std::runtime_error("could not generate a connected field");
}

/// Random connected instance under the paper's linear charging model.
inline core::Instance random_instance(int num_posts, int num_nodes, double side,
                                      util::Rng& rng) {
  return random_instance(num_posts, num_nodes, side, rng, paper_charging());
}

/// FNV-1a (64-bit) over an int sequence, for pinning long deployments in
/// golden tests.
inline std::uint64_t fnv1a(const std::vector<int>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const int v : values) {
    hash ^= static_cast<std::uint32_t>(v);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// FNV-1a over a tree's parent vector, post by post (unset parents hash as
/// kNoParent).
inline std::uint64_t parent_hash(const graph::RoutingTree& tree) {
  std::vector<int> parents(static_cast<std::size_t>(tree.num_posts()));
  for (int p = 0; p < tree.num_posts(); ++p) parents[static_cast<std::size_t>(p)] = tree.parent(p);
  return fnv1a(parents);
}

/// Forwards every call to `weight` but has no bounds() member, so Dijkstra
/// runs its binary heap on it: the reference the Dial queue is compared to.
/// `weight` must outlive the returned callable.
template <class WeightT>
auto heap_only(const WeightT& weight) {
  return [&weight](auto... args) -> decltype(weight(args...)) { return weight(args...); };
}

}  // namespace wrsn::test
