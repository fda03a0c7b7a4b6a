#include "graph/routing_tree.hpp"

#include <algorithm>
#include <stdexcept>

namespace wrsn::graph {

RoutingTree::RoutingTree(int num_posts, int base_station)
    : num_posts_(num_posts), base_station_(base_station) {
  if (num_posts <= 0) throw std::invalid_argument("RoutingTree needs at least one post");
  if (base_station < num_posts) {
    throw std::invalid_argument("base station index must not collide with a post index");
  }
  parent_.assign(static_cast<std::size_t>(num_posts), kNoParent);
}

void RoutingTree::set_parent(int post, int parent) {
  if (post < 0 || post >= num_posts_) throw std::out_of_range("post index out of range");
  if (parent == post) throw std::invalid_argument("a post cannot be its own parent");
  if (parent != base_station_ && (parent < 0 || parent >= num_posts_)) {
    throw std::out_of_range("parent must be a post or the base station");
  }
  parent_[static_cast<std::size_t>(post)] = parent;
}

int RoutingTree::parent(int post) const {
  if (post < 0 || post >= num_posts_) throw std::out_of_range("post index out of range");
  return parent_[static_cast<std::size_t>(post)];
}

bool RoutingTree::is_valid() const {
  for (int p = 0; p < num_posts_; ++p) {
    // Walk toward the base station; more than num_posts_ hops means a cycle.
    int v = p;
    int hops = 0;
    while (v != base_station_) {
      if (v == kNoParent || hops++ > num_posts_) return false;
      v = parent_[static_cast<std::size_t>(v)];
      if (v == kNoParent) return false;
    }
  }
  return true;
}

std::vector<std::vector<int>> RoutingTree::children() const {
  std::vector<std::vector<int>> result(static_cast<std::size_t>(num_posts_) + 1);
  for (int p = 0; p < num_posts_; ++p) {
    const int par = parent_[static_cast<std::size_t>(p)];
    if (par == kNoParent) continue;
    const std::size_t slot =
        par == base_station_ ? static_cast<std::size_t>(num_posts_) : static_cast<std::size_t>(par);
    result[slot].push_back(p);
  }
  return result;
}

std::vector<int> RoutingTree::descendant_counts() const {
  std::vector<int> counts(static_cast<std::size_t>(num_posts_), 0);
  for (int p : leaves_first_order()) {
    const int par = parent_[static_cast<std::size_t>(p)];
    if (par != base_station_) {
      counts[static_cast<std::size_t>(par)] += counts[static_cast<std::size_t>(p)] + 1;
    }
  }
  return counts;
}

std::vector<int> RoutingTree::depths() const {
  std::vector<int> depth(static_cast<std::size_t>(num_posts_), -1);
  for (int p = 0; p < num_posts_; ++p) {
    if (depth[static_cast<std::size_t>(p)] >= 0) continue;
    // Walk up collecting the chain, then unwind.
    std::vector<int> chain;
    int v = p;
    while (v != base_station_ && depth[static_cast<std::size_t>(v)] < 0) {
      // Without a cycle the chain holds distinct posts; set_parent does not
      // rule cycles out, so bound the walk as is_ancestor does.
      if (chain.size() == static_cast<std::size_t>(num_posts_)) {
        throw std::logic_error("depths() found a parent cycle");
      }
      chain.push_back(v);
      v = parent_[static_cast<std::size_t>(v)];
      if (v == kNoParent) throw std::logic_error("depths() requires a complete tree");
    }
    int base = v == base_station_ ? 0 : depth[static_cast<std::size_t>(v)];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      depth[static_cast<std::size_t>(*it)] = ++base;
    }
  }
  return depth;
}

std::vector<int> RoutingTree::leaves_first_order() const {
  // Depth-descending order guarantees children precede parents.
  const std::vector<int> depth = depths();
  std::vector<int> order(static_cast<std::size_t>(num_posts_));
  for (int p = 0; p < num_posts_; ++p) order[static_cast<std::size_t>(p)] = p;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return depth[static_cast<std::size_t>(a)] > depth[static_cast<std::size_t>(b)];
  });
  return order;
}

bool RoutingTree::is_ancestor(int ancestor, int post) const {
  int v = parent(post);
  int hops = 0;
  while (v != base_station_ && v != kNoParent && hops++ <= num_posts_) {
    if (v == ancestor) return true;
    v = parent_[static_cast<std::size_t>(v)];
  }
  return ancestor == base_station_ && v == base_station_;
}

}  // namespace wrsn::graph
