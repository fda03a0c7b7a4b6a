// Routing tree: each post's chosen parent (next hop toward the base
// station).  The solution the paper seeks assigns every post exactly one
// parent and one transmit power level; the level is implied by the parent
// (the smallest level whose range covers the hop), so the tree stores only
// the parent relation and offers the derived structure the cost model and
// the heuristics need: children lists, descendant counts, depths, and a
// leaves-first traversal order.
#pragma once

#include <vector>

#include "graph/reach_graph.hpp"

namespace wrsn::graph {

class RoutingTree {
 public:
  static constexpr int kNoParent = -1;

  /// Tree over `num_posts` posts whose root is vertex `base_station`
  /// (conventionally == num_posts). All parents start unset.
  RoutingTree(int num_posts, int base_station);

  int num_posts() const noexcept { return num_posts_; }
  int base_station() const noexcept { return base_station_; }

  /// Sets `post`'s next hop; `parent` is a post index or the base station.
  void set_parent(int post, int parent);
  /// The post's next hop, or kNoParent when unset.
  int parent(int post) const;

  /// True when every post has a parent, the structure is acyclic, and every
  /// post reaches the base station.
  bool is_valid() const;

  /// children[v] for every vertex (index base_station() holds the roots).
  std::vector<std::vector<int>> children() const;

  /// descendant_counts[p] = number of posts in p's subtree excluding p
  /// itself -- the routing workload D(p): p forwards D(p) bits and
  /// originates one more per round. Requires a valid tree.
  std::vector<int> descendant_counts() const;

  /// Hop count from each post to the base station (>= 1).  Throws
  /// std::logic_error on an unset parent or a parent cycle.
  std::vector<int> depths() const;

  /// Posts ordered so every post appears after all posts in its subtree
  /// (leaves first, parents later). Requires a valid tree.
  std::vector<int> leaves_first_order() const;

  /// True when `ancestor` lies on `post`'s path to the base station.
  bool is_ancestor(int ancestor, int post) const;

 private:
  int num_posts_;
  int base_station_;
  std::vector<int> parent_;
};

}  // namespace wrsn::graph
