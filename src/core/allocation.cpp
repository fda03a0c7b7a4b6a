#include "core/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace wrsn::core {

std::vector<double> fractional_allocation(std::span<const double> weights, double budget) {
  if (weights.empty()) throw std::invalid_argument("allocation needs at least one post");
  double sqrt_sum = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("allocation weights must be non-negative");
    sqrt_sum += std::sqrt(w);
  }
  std::vector<double> shares(weights.size(), 0.0);
  if (sqrt_sum <= 0.0) {
    // Degenerate: no workload anywhere; split evenly.
    const double even = budget / static_cast<double>(weights.size());
    std::fill(shares.begin(), shares.end(), even);
    return shares;
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    shares[i] = budget * std::sqrt(weights[i]) / sqrt_sum;
  }
  return shares;
}

std::vector<int> lagrange_allocate(std::span<const double> weights, int total_nodes) {
  const int n = static_cast<int>(weights.size());
  if (n == 0) throw std::invalid_argument("allocation needs at least one post");
  if (total_nodes < n) {
    throw std::invalid_argument("need at least one node per post (M >= N)");
  }

  // Each round re-solves the relaxation over the still-open posts.  The
  // square roots are taken once, and each round sums them over the open
  // posts in index order, so every share is bit-identical to what
  // fractional_allocation() returns for the open posts' weights.
  std::vector<double> roots(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] < 0.0) throw std::invalid_argument("allocation weights must be non-negative");
    roots[i] = std::sqrt(weights[i]);
  }
  std::vector<int> result(weights.size(), 0);
  std::vector<std::size_t> open(weights.size());
  for (std::size_t i = 0; i < open.size(); ++i) open[i] = i;
  int remaining = total_nodes;

  while (!open.empty()) {
    const double budget = static_cast<double>(remaining);
    double sqrt_sum = 0.0;
    for (const std::size_t i : open) sqrt_sum += roots[i];

    // The paper rounds the smallest fractional share first.  With no
    // workload left the relaxation splits evenly, so the first open post
    // holds the smallest share.
    std::size_t argmin = 0;
    double smallest = 0.0;
    if (sqrt_sum <= 0.0) {
      smallest = budget / static_cast<double>(open.size());
    } else {
      for (std::size_t k = 0; k < open.size(); ++k) {
        const double share = budget * roots[open[k]] / sqrt_sum;
        if (k == 0 || share < smallest) {
          argmin = k;
          smallest = share;
        }
      }
    }
    const int posts_left_after = static_cast<int>(open.size()) - 1;
    // Nearest integer, at least one node, and never so many that the other
    // open posts cannot receive their mandatory node each.
    int assigned = static_cast<int>(std::llround(smallest));
    assigned = std::clamp(assigned, 1, remaining - posts_left_after);
    result[open[argmin]] = assigned;
    remaining -= assigned;
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(argmin));
  }
  return result;
}

double allocation_objective(std::span<const double> weights, std::span<const int> allocation) {
  if (weights.size() != allocation.size()) {
    throw std::invalid_argument("weights/allocation size mismatch");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (allocation[i] < 1) throw std::invalid_argument("every post needs at least one node");
    total += weights[i] / static_cast<double>(allocation[i]);
  }
  return total;
}

std::vector<int> greedy_allocate(std::span<const double> weights, int total_nodes) {
  const int n = static_cast<int>(weights.size());
  if (n == 0) throw std::invalid_argument("allocation needs at least one post");
  if (total_nodes < n) {
    throw std::invalid_argument("need at least one node per post (M >= N)");
  }
  std::vector<int> result(weights.size(), 1);
  // Marginal gain of the (m+1)-th node at post i: w_i/m - w_i/(m+1).
  auto gain = [&](std::size_t i) {
    const double m = static_cast<double>(result[i]);
    return weights[i] / m - weights[i] / (m + 1.0);
  };
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item> heap;
  for (std::size_t i = 0; i < weights.size(); ++i) heap.emplace(gain(i), i);
  for (int extra = total_nodes - n; extra > 0; --extra) {
    auto [g, i] = heap.top();
    heap.pop();
    ++result[i];
    heap.emplace(gain(i), i);
  }
  return result;
}

}  // namespace wrsn::core
