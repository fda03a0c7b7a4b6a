#include "geom/field.hpp"
#include "geom/point.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

namespace wrsn::geom {
namespace {

TEST(Point, DistanceBasics) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(distance_squared({0, 0}, {3, 4}), 25.0);
}

TEST(Point, DistanceIsSymmetric) {
  const Point a{1.5, -2.0};
  const Point b{-4.0, 7.5};
  EXPECT_DOUBLE_EQ(distance(a, b), distance(b, a));
}

TEST(Point, Arithmetic) {
  const Point p = Point{1, 2} + Point{3, 4};
  EXPECT_EQ(p, (Point{4, 6}));
  EXPECT_EQ((Point{5, 5} - Point{2, 3}), (Point{3, 2}));
  EXPECT_EQ((Point{1, 2} * 3.0), (Point{3, 6}));
}

TEST(BaseStation, CornerPlacement) {
  FieldConfig cfg;
  cfg.width = 100.0;
  cfg.height = 50.0;
  cfg.corner = BaseStationCorner::LowerLeft;
  EXPECT_EQ(base_station_position(cfg), (Point{0, 0}));
  cfg.corner = BaseStationCorner::UpperRight;
  EXPECT_EQ(base_station_position(cfg), (Point{100, 50}));
  cfg.corner = BaseStationCorner::Center;
  EXPECT_EQ(base_station_position(cfg), (Point{50, 25}));
}

TEST(GenerateField, ProducesRequestedPosts) {
  FieldConfig cfg;
  cfg.width = 500.0;
  cfg.height = 500.0;
  cfg.num_posts = 100;
  util::Rng rng(1);
  const Field field = generate_field(cfg, rng);
  EXPECT_EQ(field.posts.size(), 100u);
  EXPECT_EQ(field.base_station, (Point{0, 0}));
  for (const Point& p : field.posts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 500.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 500.0);
  }
}

TEST(GenerateField, DeterministicGivenSeed) {
  FieldConfig cfg;
  cfg.num_posts = 50;
  util::Rng a(99);
  util::Rng b(99);
  const Field fa = generate_field(cfg, a);
  const Field fb = generate_field(cfg, b);
  ASSERT_EQ(fa.posts.size(), fb.posts.size());
  for (std::size_t i = 0; i < fa.posts.size(); ++i) EXPECT_EQ(fa.posts[i], fb.posts[i]);
}

TEST(GenerateField, RespectsMinSeparation) {
  FieldConfig cfg;
  cfg.width = 200.0;
  cfg.height = 200.0;
  cfg.num_posts = 30;
  cfg.min_separation = 15.0;
  util::Rng rng(3);
  const Field field = generate_field(cfg, rng);
  for (std::size_t i = 0; i < field.posts.size(); ++i) {
    for (std::size_t j = i + 1; j < field.posts.size(); ++j) {
      EXPECT_GE(distance(field.posts[i], field.posts[j]), 15.0);
    }
  }
}

TEST(GenerateField, RejectsInvalidConfig) {
  util::Rng rng(1);
  FieldConfig bad;
  bad.num_posts = 0;
  EXPECT_THROW(generate_field(bad, rng), FieldGenerationError);
  bad.num_posts = 5;
  bad.width = -1.0;
  EXPECT_THROW(generate_field(bad, rng), FieldGenerationError);
}

TEST(GenerateField, ImpossibleSeparationThrows) {
  FieldConfig cfg;
  cfg.width = 10.0;
  cfg.height = 10.0;
  cfg.num_posts = 200;
  cfg.min_separation = 5.0;  // cannot pack 200 posts 5 m apart in 10x10
  cfg.max_attempts = 2000;
  util::Rng rng(4);
  EXPECT_THROW(generate_field(cfg, rng), FieldGenerationError);
}

TEST(GridField, CountsAndBounds) {
  const Field field = grid_field(100.0, 100.0, 5, 4);
  // 20 grid points, minus any that collide with the base station corner.
  EXPECT_EQ(field.posts.size(), 19u);
  for (const Point& p : field.posts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 100.0);
  }
}

TEST(LineField, EvenSpacing) {
  const Field field = line_field(100.0, 4, 2.0);
  ASSERT_EQ(field.posts.size(), 4u);
  EXPECT_DOUBLE_EQ(field.posts[0].x, 25.0);
  EXPECT_DOUBLE_EQ(field.posts[3].x, 100.0);
  for (const Point& p : field.posts) EXPECT_DOUBLE_EQ(p.y, 2.0);
}

TEST(IsConnected, LineChainConnectivity) {
  const Field field = line_field(100.0, 4, 0.0);  // posts at 25, 50, 75, 100
  EXPECT_TRUE(is_connected(field, 25.0));
  EXPECT_FALSE(is_connected(field, 20.0));
}

TEST(IsConnected, SinglePostNearBase) {
  Field field;
  field.base_station = {0, 0};
  field.posts = {{10.0, 0.0}};
  EXPECT_TRUE(is_connected(field, 10.0));
  EXPECT_FALSE(is_connected(field, 9.0));
}

TEST(GenerateField, NearestNeighborConstraintHolds) {
  FieldConfig cfg;
  cfg.width = 100.0;
  cfg.height = 100.0;
  cfg.num_posts = 40;
  cfg.max_nearest_neighbor = 40.0;
  util::Rng rng(5);
  const Field field = generate_field(cfg, rng);
  for (std::size_t i = 0; i < field.posts.size(); ++i) {
    double best = distance(field.posts[i], field.base_station);
    for (std::size_t j = 0; j < field.posts.size(); ++j) {
      if (i != j) best = std::min(best, distance(field.posts[i], field.posts[j]));
    }
    EXPECT_LE(best, 40.0);
  }
}

TEST(GenerateConnectedField, DrawsTheSameFieldsAsALoop) {
  FieldConfig cfg;
  cfg.width = 300.0;
  cfg.height = 300.0;
  cfg.num_posts = 40;
  util::Rng loop_rng(77);
  Field expected = generate_field(cfg, loop_rng);
  int draws = 1;
  while (!is_connected(expected, 75.0)) {
    expected = generate_field(cfg, loop_rng);
    ++draws;
  }
  util::Rng rng(77);
  const std::optional<Field> field = generate_connected_field(cfg, 75.0, rng, draws);
  ASSERT_TRUE(field.has_value());
  ASSERT_EQ(field->posts.size(), expected.posts.size());
  for (std::size_t i = 0; i < expected.posts.size(); ++i) {
    EXPECT_EQ(field->posts[i].x, expected.posts[i].x);
    EXPECT_EQ(field->posts[i].y, expected.posts[i].y);
  }
  // Both streams stopped at the same draw.
  EXPECT_EQ(rng(), loop_rng());
}

TEST(GenerateConnectedField, GivesUpAfterMaxAttempts) {
  FieldConfig cfg;
  cfg.num_posts = 20;
  util::Rng rng(3);
  EXPECT_FALSE(generate_connected_field(cfg, 1.0, rng, 5).has_value());
}

}  // namespace
}  // namespace wrsn::geom
