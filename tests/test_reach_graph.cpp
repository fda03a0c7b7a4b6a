#include "graph/reach_graph.hpp"

#include <gtest/gtest.h>

#include "geom/field.hpp"

namespace wrsn::graph {
namespace {

TEST(ReachGraph, EmptyGraphHasNoEdges) {
  ReachGraph g(3);
  EXPECT_EQ(g.num_posts(), 3);
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.base_station(), 3);
  for (int u = 0; u < 4; ++u) {
    for (int v = 0; v < 4; ++v) {
      EXPECT_FALSE(g.reachable(u, v));
    }
  }
}

TEST(ReachGraph, DirectedEdgeSetting) {
  ReachGraph g(2);
  g.set_min_level(0, 1, 2);
  EXPECT_EQ(g.min_level(0, 1), 2);
  EXPECT_EQ(g.min_level(1, 0), ReachGraph::kUnreachable);
  EXPECT_TRUE(g.reachable(0, 1));
  EXPECT_FALSE(g.reachable(1, 0));
}

TEST(ReachGraph, SymmetricEdgeSetting) {
  ReachGraph g(2);
  g.set_min_level_symmetric(0, 1, 1);
  EXPECT_EQ(g.min_level(0, 1), 1);
  EXPECT_EQ(g.min_level(1, 0), 1);
}

TEST(ReachGraph, SelfEdgesRejected) {
  ReachGraph g(2);
  EXPECT_THROW(g.set_min_level(1, 1, 0), std::invalid_argument);
  EXPECT_EQ(g.min_level(1, 1), ReachGraph::kUnreachable);
}

TEST(ReachGraph, BoundsChecked) {
  ReachGraph g(2);
  EXPECT_THROW(g.set_min_level(0, 5, 0), std::out_of_range);
  EXPECT_THROW(g.min_level(-1, 0), std::out_of_range);
  EXPECT_THROW(g.set_min_level(0, 1, -2), std::invalid_argument);
}

TEST(ReachGraph, NeighborEnumeration) {
  ReachGraph g(3);
  g.set_min_level(0, 1, 0);
  g.set_min_level(0, 3, 1);
  g.set_min_level(2, 0, 0);
  std::vector<std::pair<int, int>> out;
  g.for_each_out_edge(0, [&](int to, int level) { out.emplace_back(to, level); });
  EXPECT_EQ(out, (std::vector<std::pair<int, int>>{{1, 0}, {3, 1}}));
  std::vector<std::pair<int, int>> in;
  g.for_each_in_edge(0, [&](int from, int level) { in.emplace_back(from, level); });
  EXPECT_EQ(in, (std::vector<std::pair<int, int>>{{2, 0}}));
  int edges_out_of_1 = 0;
  g.for_each_out_edge(1, [&](int, int) { ++edges_out_of_1; });
  EXPECT_EQ(edges_out_of_1, 0);
}

TEST(ReachGraph, ConnectedToBaseDirectChain) {
  ReachGraph g(3);
  g.set_min_level(0, 1, 0);
  g.set_min_level(1, 2, 0);
  g.set_min_level(2, 3, 0);  // 3 = base station
  EXPECT_TRUE(g.connected_to_base());
}

TEST(ReachGraph, DisconnectedPostDetected) {
  ReachGraph g(3);
  g.set_min_level(0, 3, 0);
  g.set_min_level(1, 3, 0);
  // post 2 has no path
  EXPECT_FALSE(g.connected_to_base());
}

TEST(ReachGraph, DirectionMattersForConnectivity) {
  ReachGraph g(1);
  // Only base -> post, not post -> base: post cannot *send* to the base.
  g.set_min_level(1, 0, 0);
  EXPECT_FALSE(g.connected_to_base());
}

TEST(ReachGraph, FromFieldDerivesLevelsByDistance) {
  geom::Field field;
  field.base_station = {0.0, 0.0};
  field.posts = {{20.0, 0.0}, {60.0, 0.0}, {200.0, 0.0}};
  const auto radio = energy::RadioModel::uniform_levels(3, 25.0);  // 25/50/75 m
  const ReachGraph g = ReachGraph::from_field(field, radio);

  EXPECT_EQ(g.min_level(0, g.base_station()), 0);  // 20 m -> level 0
  EXPECT_EQ(g.min_level(1, g.base_station()), 2);  // 60 m -> level 2
  EXPECT_EQ(g.min_level(2, g.base_station()), ReachGraph::kUnreachable);  // 200 m
  EXPECT_EQ(g.min_level(0, 1), 1);                 // 40 m -> level 1
  EXPECT_EQ(g.min_level(1, 2), ReachGraph::kUnreachable);  // 140 m
  // Geometric graphs are symmetric.
  EXPECT_EQ(g.min_level(1, 0), g.min_level(0, 1));
  EXPECT_DOUBLE_EQ(g.distance(0, 1), 40.0);
  EXPECT_DOUBLE_EQ(g.distance(2, g.base_station()), 200.0);
}

TEST(ReachGraph, FromFieldConnectivity) {
  geom::Field chain;
  chain.base_station = {0.0, 0.0};
  chain.posts = {{70.0, 0.0}, {140.0, 0.0}};
  const auto radio = energy::RadioModel::uniform_levels(3, 25.0);
  EXPECT_TRUE(ReachGraph::from_field(chain, radio).connected_to_base());

  geom::Field gap;
  gap.base_station = {0.0, 0.0};
  gap.posts = {{70.0, 0.0}, {160.0, 0.0}};  // 90 m hop > 75 m max range
  EXPECT_FALSE(ReachGraph::from_field(gap, radio).connected_to_base());
}

TEST(ReachGraph, RequiresAtLeastOnePost) {
  EXPECT_THROW(ReachGraph(0), std::invalid_argument);
}

}  // namespace
}  // namespace wrsn::graph
