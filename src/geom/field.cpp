#include "geom/field.hpp"

#include <algorithm>
#include <queue>

#include "geom/grid_index.hpp"

namespace wrsn::geom {

Point base_station_position(const FieldConfig& config) noexcept {
  switch (config.corner) {
    case BaseStationCorner::LowerLeft:
      return {0.0, 0.0};
    case BaseStationCorner::LowerRight:
      return {config.width, 0.0};
    case BaseStationCorner::UpperLeft:
      return {0.0, config.height};
    case BaseStationCorner::UpperRight:
      return {config.width, config.height};
    case BaseStationCorner::Center:
      return {config.width / 2.0, config.height / 2.0};
  }
  return {0.0, 0.0};
}

namespace {

bool respects_separation(const std::vector<Point>& posts, Point candidate, double min_sep) {
  if (min_sep <= 0.0) return true;
  const double min_sep_sq = min_sep * min_sep;
  return std::all_of(posts.begin(), posts.end(), [&](Point p) {
    return distance_squared(p, candidate) >= min_sep_sq;
  });
}

bool respects_nearest_neighbor(const Field& field, double max_nn) {
  if (max_nn <= 0.0) return true;
  const double max_nn_sq = max_nn * max_nn;
  for (std::size_t i = 0; i < field.posts.size(); ++i) {
    double best = distance_squared(field.posts[i], field.base_station);
    for (std::size_t j = 0; j < field.posts.size(); ++j) {
      if (i == j) continue;
      best = std::min(best, distance_squared(field.posts[i], field.posts[j]));
    }
    if (best > max_nn_sq) return false;
  }
  return true;
}

}  // namespace

Field generate_field(const FieldConfig& config, util::Rng& rng) {
  if (config.num_posts <= 0) throw FieldGenerationError("num_posts must be positive");
  if (config.width <= 0.0 || config.height <= 0.0) {
    throw FieldGenerationError("field dimensions must be positive");
  }
  for (int attempt = 0; attempt < config.max_attempts; ++attempt) {
    Field field;
    field.width = config.width;
    field.height = config.height;
    field.base_station = base_station_position(config);
    field.posts.reserve(static_cast<std::size_t>(config.num_posts));
    bool ok = true;
    int placement_attempts = 0;
    while (static_cast<int>(field.posts.size()) < config.num_posts) {
      if (++placement_attempts > config.max_attempts) {
        ok = false;
        break;
      }
      const Point candidate{rng.uniform(0.0, config.width), rng.uniform(0.0, config.height)};
      if (!respects_separation(field.posts, candidate, config.min_separation)) continue;
      field.posts.push_back(candidate);
    }
    if (!ok) continue;
    if (!respects_nearest_neighbor(field, config.max_nearest_neighbor)) continue;
    return field;
  }
  throw FieldGenerationError("could not generate a field satisfying the constraints");
}

Field grid_field(double width, double height, int columns, int rows, BaseStationCorner corner) {
  if (columns <= 0 || rows <= 0) throw FieldGenerationError("grid dimensions must be positive");
  Field field;
  field.width = width;
  field.height = height;
  FieldConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.corner = corner;
  field.base_station = base_station_position(cfg);
  const double dx = columns > 1 ? width / (columns - 1) : 0.0;
  const double dy = rows > 1 ? height / (rows - 1) : 0.0;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < columns; ++c) {
      // Keep a small inset so no post coincides with the base station corner.
      const double x = columns > 1 ? c * dx : width / 2.0;
      const double y = rows > 1 ? r * dy : height / 2.0;
      if (Point{x, y} == field.base_station) continue;
      field.posts.push_back({x, y});
    }
  }
  return field;
}

Field line_field(double length, int num_posts, double offset_y) {
  if (num_posts <= 0) throw FieldGenerationError("num_posts must be positive");
  Field field;
  field.width = length;
  field.height = std::max(offset_y, 1.0);
  field.base_station = {0.0, 0.0};
  const double dx = length / num_posts;
  for (int i = 1; i <= num_posts; ++i) {
    field.posts.push_back({i * dx, offset_y});
  }
  return field;
}

bool is_connected(const Field& field, double max_range) {
  const std::size_t n = field.posts.size();
  // Vertex n is the base station; BFS over the <= max_range adjacency.
  // A uniform grid over all n+1 positions turns each neighbor scan from
  // O(n) into O(local density), so the whole BFS is O(n * deg) -- the same
  // spatial index ReachGraph's sparse builder uses.
  std::vector<Point> positions = field.posts;
  positions.push_back(field.base_station);
  const GridIndex grid(positions, max_range > 0.0 ? max_range : 1.0);
  std::vector<char> seen(n + 1, 0);
  std::queue<std::size_t> frontier;
  frontier.push(n);
  seen[n] = 1;
  std::size_t reached = 0;
  while (!frontier.empty()) {
    const std::size_t u = frontier.front();
    frontier.pop();
    ++reached;
    grid.for_each_in_radius(positions[u], max_range, [&](int v, double /*d2*/) {
      if (seen[static_cast<std::size_t>(v)]) return;
      seen[static_cast<std::size_t>(v)] = 1;
      frontier.push(static_cast<std::size_t>(v));
    });
  }
  return reached == n + 1;
}

std::optional<Field> generate_connected_field(const FieldConfig& config, double max_range,
                                              util::Rng& rng, int max_attempts) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Field field = generate_field(config, rng);
    if (is_connected(field, max_range)) return field;
  }
  return std::nullopt;
}

}  // namespace wrsn::geom
