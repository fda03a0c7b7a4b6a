#include "graph/routing_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace wrsn::graph {
namespace {

/// Star: every post reports straight to the base station.
RoutingTree star(int n) {
  RoutingTree tree(n, n);
  for (int p = 0; p < n; ++p) tree.set_parent(p, n);
  return tree;
}

/// Chain: 0 -> 1 -> ... -> n-1 -> base.
RoutingTree chain(int n) {
  RoutingTree tree(n, n);
  for (int p = 0; p + 1 < n; ++p) tree.set_parent(p, p + 1);
  tree.set_parent(n - 1, n);
  return tree;
}

TEST(RoutingTree, ConstructionValidation) {
  EXPECT_THROW(RoutingTree(0, 0), std::invalid_argument);
  EXPECT_THROW(RoutingTree(3, 2), std::invalid_argument);  // bs collides with a post
  RoutingTree t(3, 3);
  EXPECT_EQ(t.num_posts(), 3);
  EXPECT_EQ(t.base_station(), 3);
}

TEST(RoutingTree, SetParentValidation) {
  RoutingTree t(3, 3);
  EXPECT_THROW(t.set_parent(0, 0), std::invalid_argument);  // self
  EXPECT_THROW(t.set_parent(5, 3), std::out_of_range);
  EXPECT_THROW(t.set_parent(0, 7), std::out_of_range);
  t.set_parent(0, 3);
  EXPECT_EQ(t.parent(0), 3);
}

TEST(RoutingTree, IncompleteTreeInvalid) {
  RoutingTree t(2, 2);
  t.set_parent(0, 2);
  EXPECT_FALSE(t.is_valid());  // post 1 unset
  t.set_parent(1, 2);
  EXPECT_TRUE(t.is_valid());
}

TEST(RoutingTree, CycleDetected) {
  RoutingTree t(3, 3);
  t.set_parent(0, 1);
  t.set_parent(1, 2);
  t.set_parent(2, 0);  // cycle, no path to base
  EXPECT_FALSE(t.is_valid());
}

TEST(RoutingTree, StarStructure) {
  const RoutingTree t = star(4);
  EXPECT_TRUE(t.is_valid());
  const auto kids = t.children();
  EXPECT_EQ(kids[4].size(), 4u);  // base station slot
  for (int p = 0; p < 4; ++p) EXPECT_TRUE(kids[static_cast<std::size_t>(p)].empty());
  const auto counts = t.descendant_counts();
  for (int c : counts) EXPECT_EQ(c, 0);
  const auto depth = t.depths();
  for (int d : depth) EXPECT_EQ(d, 1);
}

TEST(RoutingTree, ChainStructure) {
  const RoutingTree t = chain(4);
  EXPECT_TRUE(t.is_valid());
  const auto counts = t.descendant_counts();
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 2);
  EXPECT_EQ(counts[3], 3);
  const auto depth = t.depths();
  EXPECT_EQ(depth[0], 4);
  EXPECT_EQ(depth[3], 1);
}

TEST(RoutingTree, BranchingDescendantCounts) {
  // 0,1 -> 2; 3 -> 4; 2,4 -> base(5)
  RoutingTree t(5, 5);
  t.set_parent(0, 2);
  t.set_parent(1, 2);
  t.set_parent(2, 5);
  t.set_parent(3, 4);
  t.set_parent(4, 5);
  const auto counts = t.descendant_counts();
  EXPECT_EQ(counts[2], 2);
  EXPECT_EQ(counts[4], 1);
  EXPECT_EQ(counts[0], 0);
}

TEST(RoutingTree, LeavesFirstOrderRespectsSubtrees) {
  const RoutingTree t = chain(5);
  const auto order = t.leaves_first_order();
  ASSERT_EQ(order.size(), 5u);
  // Every post must appear before its parent.
  std::vector<int> position(5);
  for (int i = 0; i < 5; ++i) position[static_cast<std::size_t>(order[i])] = i;
  for (int p = 0; p + 1 < 5; ++p) {
    EXPECT_LT(position[static_cast<std::size_t>(p)], position[static_cast<std::size_t>(p + 1)]);
  }
}

TEST(RoutingTree, IsAncestorSemantics) {
  const RoutingTree t = chain(4);
  EXPECT_TRUE(t.is_ancestor(3, 0));
  EXPECT_TRUE(t.is_ancestor(1, 0));
  EXPECT_FALSE(t.is_ancestor(0, 3));
  EXPECT_FALSE(t.is_ancestor(0, 0));
  EXPECT_TRUE(t.is_ancestor(t.base_station(), 0));
}

TEST(RoutingTree, ChildrenMatchesParents) {
  const RoutingTree t = chain(4);
  const auto kids = t.children();
  EXPECT_EQ(kids[1], (std::vector<int>{0}));
  EXPECT_EQ(kids[4], (std::vector<int>{3}));
}

TEST(RoutingTree, DepthsThrowOnIncompleteTree) {
  RoutingTree t(2, 2);
  t.set_parent(0, 1);
  EXPECT_THROW(t.depths(), std::logic_error);
}

TEST(RoutingTree, DepthsThrowOnParentCycle) {
  // Two posts naming each other: the walk up the parents must stop instead
  // of growing its chain without bound.
  RoutingTree t(3, 3);
  t.set_parent(0, 3);
  t.set_parent(1, 2);
  t.set_parent(2, 1);
  EXPECT_THROW(t.depths(), std::logic_error);
  EXPECT_THROW(t.leaves_first_order(), std::logic_error);
}

}  // namespace
}  // namespace wrsn::graph
