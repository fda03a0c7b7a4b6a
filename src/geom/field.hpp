// Random deployment-field generation (Section VI-A of the paper).
//
// The paper evaluates on square fields with posts selected uniformly at
// random and the base station at the lower-left corner.  This module also
// offers structured layouts (grid, line, ring) used by the example
// applications and by connectivity stress tests.
#pragma once

#include <optional>
#include <stdexcept>
#include <vector>

#include "geom/point.hpp"
#include "util/rng.hpp"

namespace wrsn::geom {

/// Where on the field boundary the base station sits.
enum class BaseStationCorner { LowerLeft, LowerRight, UpperLeft, UpperRight, Center };

/// A generated deployment field: post locations plus the base station.
struct Field {
  std::vector<Point> posts;
  Point base_station;
  double width = 0.0;
  double height = 0.0;
};

/// Configuration for random field generation.
struct FieldConfig {
  double width = 500.0;   ///< field width in meters (paper: 500 or 200)
  double height = 500.0;  ///< field height in meters
  int num_posts = 100;    ///< N, the number of posts of interest
  /// Minimum pairwise separation between posts (0 disables the constraint).
  double min_separation = 0.0;
  /// Reject fields where some post is farther than this from every other
  /// vertex (0 disables). Used to guarantee connectivity at d_max.
  double max_nearest_neighbor = 0.0;
  BaseStationCorner corner = BaseStationCorner::LowerLeft;
  /// Attempt budget for the rejection sampler before giving up.
  int max_attempts = 100000;
};

/// Thrown when rejection sampling cannot satisfy the constraints.
class FieldGenerationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Places the base station for `config`.
Point base_station_position(const FieldConfig& config) noexcept;

/// Samples a random field per `config` (uniform posts, constraints enforced
/// by rejection). Deterministic given `rng`'s state.
Field generate_field(const FieldConfig& config, util::Rng& rng);

/// Evenly spaced grid of posts filling the field (examples/tests).
Field grid_field(double width, double height, int columns, int rows,
                 BaseStationCorner corner = BaseStationCorner::LowerLeft);

/// Posts on a straight line starting near the base station (bridge example).
Field line_field(double length, int num_posts, double offset_y = 0.0);

/// Verifies that every post can reach the base station through hops of at
/// most `max_range` meters. Returns true when the field is connected.
bool is_connected(const Field& field, double max_range);

/// Draws fields per `config` from `rng` until one is connected at
/// `max_range`, at most `max_attempts` draws; nullopt when none is.  The
/// draws are exactly those of calling generate_field that many times.
std::optional<Field> generate_connected_field(const FieldConfig& config, double max_range,
                                              util::Rng& rng, int max_attempts);

}  // namespace wrsn::geom
