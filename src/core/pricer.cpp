#include "core/pricer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace wrsn::core {
namespace {

// Cached registry references: the lock is taken once per process, not per
// repair (same pattern as graph/dijkstra.cpp's run counters).
void note_repair_region(std::size_t region_size) noexcept {
  static obs::Histogram& sizes =
      obs::Registry::global().histogram("pricer/repair_region_size");
  sizes.record(static_cast<double>(region_size));
}

void note_full_fallback() noexcept {
  static obs::Counter& fallbacks = obs::Registry::global().counter("pricer/full_fallbacks");
  fallbacks.increment();
}

}  // namespace

DeploymentPricer::DeploymentPricer(const Instance& instance, std::vector<int> deployment)
    : DeploymentPricer(instance, std::move(deployment), Options{}) {}

DeploymentPricer::DeploymentPricer(const Instance& instance, std::vector<int> deployment,
                                   Options options)
    : instance_(&instance),
      options_(options),
      bs_(instance.graph().base_station()),
      deployment_(std::move(deployment)),
      weight_(instance, deployment_),
      scratch_weight_(weight_) {
  // weight_ has already rejected a deployment of the wrong size.
  const int n = instance.num_posts();
  disabled_.assign(deployment_.size(), 0);
  full_recompute(weight_, dist_, &parent_);
  static_sum_ = 0.0;
  for (int p = 0; p < n; ++p) {
    static_sum_ += instance.static_energy(p) * weight_.inv_efficiency(p);
  }
  base_cost_ = weighted_distance_sum(dist_) + static_sum_;
  in_region_.assign(static_cast<std::size_t>(n) + 1, 0);
}

double DeploymentPricer::weighted_distance_sum(const std::vector<double>& dist) const {
  double total = 0.0;
  if (num_disabled_ == 0) {
    // The historical summation, preserved exactly so existing golden
    // regressions stay bit-identical.
    for (int p = 0; p < instance_->num_posts(); ++p) {
      total += instance_->report_rate(p) * dist[static_cast<std::size_t>(p)];
    }
    return total;
  }
  // Disabled posts originate no reports; enabled-but-unreachable posts keep
  // infinite distance, which correctly makes the total infinite.
  for (int p = 0; p < instance_->num_posts(); ++p) {
    if (disabled_[static_cast<std::size_t>(p)]) continue;
    total += instance_->report_rate(p) * dist[static_cast<std::size_t>(p)];
  }
  return total;
}

void DeploymentPricer::full_recompute(const RechargingWeight& weight,
                                      std::vector<double>& dist,
                                      std::vector<int>* parents) const {
  const auto& adj = instance_->adjacency();
  const int n = instance_->num_posts();
  if (num_disabled_ > 0) {
    // Disabled posts carry +infinity efficiency entries, which the shared
    // Dijkstra machinery rejects (detail::check_weight) -- and unreachable
    // survivors are expected here, not an error.  Run a dense Dijkstra that
    // tolerates both: infinite edges never relax, cut-off posts simply keep
    // kInfinity.
    const std::size_t vertices = static_cast<std::size_t>(n) + 1;
    dist.assign(vertices, graph::kInfinity);
    dist[static_cast<std::size_t>(bs_)] = 0.0;
    settled_.assign(vertices, 0);
    for (std::size_t iter = 0; iter < vertices; ++iter) {
      int u = -1;
      double du = graph::kInfinity;
      for (std::size_t v = 0; v < vertices; ++v) {
        if (!settled_[v] && dist[v] < du) {
          du = dist[v];
          u = static_cast<int>(v);
        }
      }
      if (u < 0) break;  // everything reachable is settled
      settled_[static_cast<std::size_t>(u)] = 1;
      const auto in = adj.in(u);
      const double* in_tx = adj.in_tx(u);
      for (std::size_t i = 0; i < in.size(); ++i) {
        const int v = in[i];
        if (v == bs_ || settled_[static_cast<std::size_t>(v)]) continue;
        const double cand = weight(v, u, in_tx[i]) + du;
        if (cand < dist[static_cast<std::size_t>(v)]) dist[static_cast<std::size_t>(v)] = cand;
      }
    }
  } else {
    if (!graph::shortest_distances_to_base(instance_->graph(), adj, weight, full_scratch_)) {
      throw InfeasibleInstance("some post cannot reach the base station");
    }
    dist = full_scratch_.dist;
  }
  if (parents == nullptr) return;
  // Rebuild one strict-argmin tight parent per reachable post.  The argmin
  // (not a tolerance-tight first match) keeps decremental repair regions
  // honest: a post whose cheapest next hop avoids post `a` never lands in
  // a's invalidation region.  Disabled and cut-off posts keep parent -1.
  parents->assign(static_cast<std::size_t>(n), -1);
  for (int p = 0; p < n; ++p) {
    if (!std::isfinite(dist[static_cast<std::size_t>(p)])) continue;
    int best = -1;
    double best_cost = graph::kInfinity;
    const auto out = adj.out(p);
    const double* out_tx = adj.out_tx(p);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const int u = out[i];
      const double du = dist[static_cast<std::size_t>(u)];
      if (!std::isfinite(du)) continue;
      const double cand = weight(p, u, out_tx[i]) + du;
      if (cand < best_cost) {
        best_cost = cand;
        best = u;
      }
    }
    (*parents)[static_cast<std::size_t>(p)] = best;
  }
}

void DeploymentPricer::improve_relax(const std::vector<int>& sources,
                                     const RechargingWeight& weight,
                                     std::vector<double>& dist,
                                     std::vector<int>* parents) const {
  const auto& adj = instance_->adjacency();
  heap_.clear();
  const auto push = [&](double d, int v) {
    heap_.emplace_back(d, v);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  };

  for (int j : sources) {
    // Seed 1: j's own distance can improve through any out-edge (its
    // transmit term got cheaper).
    {
      double best = dist[static_cast<std::size_t>(j)];
      int best_parent = -1;
      const auto out = adj.out(j);
      const double* out_tx = adj.out_tx(j);
      for (std::size_t i = 0; i < out.size(); ++i) {
        const int u = out[i];
        const double du = dist[static_cast<std::size_t>(u)];
        if (!std::isfinite(du)) continue;
        const double cand = weight(j, u, out_tx[i]) + du;
        if (cand < best) {
          best = cand;
          best_parent = u;
        }
      }
      if (best < dist[static_cast<std::size_t>(j)]) {
        dist[static_cast<std::size_t>(j)] = best;
        if (parents != nullptr) (*parents)[static_cast<std::size_t>(j)] = best_parent;
        push(best, j);
      }
    }
    // Seed 2: hops into j got cheaper (receive term), even if dist(j) is
    // unchanged.
    const auto in = adj.in(j);
    const double* in_tx = adj.in_tx(j);
    for (std::size_t i = 0; i < in.size(); ++i) {
      const int v = in[i];
      if (v == bs_) continue;
      const double cand = weight(v, j, in_tx[i]) + dist[static_cast<std::size_t>(j)];
      if (cand < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = cand;
        if (parents != nullptr) (*parents)[static_cast<std::size_t>(v)] = j;
        push(cand, v);
      }
    }
  }

  // Improve-only Dijkstra continuation (lazy deletions).
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist[static_cast<std::size_t>(u)] * (1.0 + 1e-15)) continue;  // stale
    const auto in = adj.in(u);
    const double* in_tx = adj.in_tx(u);
    for (std::size_t i = 0; i < in.size(); ++i) {
      const int v = in[i];
      if (v == bs_) continue;
      const double cand = weight(v, u, in_tx[i]) + dist[static_cast<std::size_t>(u)];
      if (cand < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = cand;
        if (parents != nullptr) (*parents)[static_cast<std::size_t>(v)] = u;
        push(cand, v);
      }
    }
  }
}

void DeploymentPricer::refresh_children() const {
  if (!children_stale_) return;
  const int n = instance_->num_posts();
  const std::size_t vertices = static_cast<std::size_t>(n) + 1;
  child_offset_.assign(vertices + 1, 0);
  for (int p = 0; p < n; ++p) {
    // Disabled/unreachable posts have parent -1: they hang off nothing.
    if (parent_[static_cast<std::size_t>(p)] < 0) continue;
    ++child_offset_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(p)]) + 1];
  }
  for (std::size_t v = 1; v <= vertices; ++v) child_offset_[v] += child_offset_[v - 1];
  child_list_.assign(static_cast<std::size_t>(n), 0);
  std::vector<int> cursor(child_offset_.begin(), child_offset_.end() - 1);
  for (int p = 0; p < n; ++p) {
    if (parent_[static_cast<std::size_t>(p)] < 0) continue;
    child_list_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(parent_[static_cast<std::size_t>(p)])]++)] = p;
  }
  children_stale_ = false;
}

void DeploymentPricer::collect_region(int a) const {
  refresh_children();
  region_.clear();
  region_.push_back(a);
  in_region_[static_cast<std::size_t>(a)] = 1;
  // The region is a's subtree in the parent tree: exactly the vertices whose
  // committed shortest path uses an edge incident to a.  region_ doubles as
  // the BFS work list.
  for (std::size_t head = 0; head < region_.size(); ++head) {
    const int v = region_[head];
    for (int i = child_offset_[static_cast<std::size_t>(v)];
         i < child_offset_[static_cast<std::size_t>(v) + 1]; ++i) {
      const int c = child_list_[static_cast<std::size_t>(i)];
      if (in_region_[static_cast<std::size_t>(c)]) continue;
      in_region_[static_cast<std::size_t>(c)] = 1;
      region_.push_back(c);
    }
  }
}

void DeploymentPricer::repair_increase(int a, const RechargingWeight& weight,
                                       std::vector<double>& dist,
                                       std::vector<int>* parents) const {
  const int n = instance_->num_posts();
  collect_region(a);
  note_repair_region(region_.size());
  if (static_cast<double>(region_.size()) >
      options_.full_recompute_fraction * static_cast<double>(n)) {
    for (int v : region_) in_region_[static_cast<std::size_t>(v)] = 0;
    note_full_fallback();
    full_recompute(weight, dist, parents);
    return;
  }

  const auto& adj = instance_->adjacency();
  heap_.clear();
  const auto push = [&](double d, int v) {
    heap_.emplace_back(d, v);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  };

  // Invalidate the region, then re-seed every region vertex from its intact
  // (out-of-region) neighbors; distances outside the region are exact for
  // the new weights because only edges incident to `a` got more expensive.
  // A vertex nothing re-attaches keeps parent -1: its old parent may be a
  // region vertex that is now gone or routes back through it.
  for (int v : region_) {
    dist[static_cast<std::size_t>(v)] = graph::kInfinity;
    if (parents != nullptr) (*parents)[static_cast<std::size_t>(v)] = -1;
  }
  for (int v : region_) {
    double best = graph::kInfinity;
    int best_parent = -1;
    const auto out = adj.out(v);
    const double* out_tx = adj.out_tx(v);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const int u = out[i];
      if (in_region_[static_cast<std::size_t>(u)]) continue;
      const double du = dist[static_cast<std::size_t>(u)];
      if (!std::isfinite(du)) continue;
      const double cand = weight(v, u, out_tx[i]) + du;
      if (cand < best) {
        best = cand;
        best_parent = u;
      }
    }
    if (best_parent >= 0) {
      dist[static_cast<std::size_t>(v)] = best;
      if (parents != nullptr) (*parents)[static_cast<std::size_t>(v)] = best_parent;
      push(best, v);
    }
  }

  // Bounded Dijkstra: relaxations stay inside the region (everything else
  // is already exact), with the usual lazy-deletion staleness check.
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist[static_cast<std::size_t>(u)] * (1.0 + 1e-15)) continue;  // stale
    const auto in = adj.in(u);
    const double* in_tx = adj.in_tx(u);
    for (std::size_t i = 0; i < in.size(); ++i) {
      const int v = in[i];
      if (v == bs_ || !in_region_[static_cast<std::size_t>(v)]) continue;
      const double cand = weight(v, u, in_tx[i]) + dist[static_cast<std::size_t>(u)];
      if (cand < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = cand;
        if (parents != nullptr) (*parents)[static_cast<std::size_t>(v)] = u;
        push(cand, v);
      }
    }
  }

  for (int v : region_) in_region_[static_cast<std::size_t>(v)] = 0;
}

void DeploymentPricer::load_donor(int a) const {
  if (donor_ == a) return;
  const int previous = donor_;
  donor_ = -1;  // stays dropped if the repair below throws
  if (previous >= 0) {
    donor_weight_->copy_entry(previous, weight_);  // the only entry off the committed table
  } else {
    donor_weight_ = weight_;  // first use, or dropped by a commit or a throw
  }
  donor_weight_->set_node_count(a, deployment_[static_cast<std::size_t>(a)] - 1);
  donor_dist_ = dist_;
  repair_increase(a, *donor_weight_, donor_dist_, nullptr);
  donor_ = a;
}

double DeploymentPricer::cost_with_extra_node(int j) const {
  if (j < 0 || j >= instance_->num_posts()) throw std::out_of_range("post index out of range");
  if (is_disabled(j)) throw std::invalid_argument("cannot add a node to a disabled post");
  scratch_dist_ = dist_;
  scratch_weight_ = weight_;
  scratch_weight_.set_node_count(j, deployment_[static_cast<std::size_t>(j)] + 1);
  const double static_term =
      static_sum_ + instance_->static_energy(j) *
                        (scratch_weight_.inv_efficiency(j) - weight_.inv_efficiency(j));
  sources_ = {j};
  improve_relax(sources_, scratch_weight_, scratch_dist_, nullptr);
  return weighted_distance_sum(scratch_dist_) + static_term;
}

double DeploymentPricer::cost_with_removed_node(int a) const {
  if (a < 0 || a >= instance_->num_posts()) throw std::out_of_range("post index out of range");
  if (deployment_[static_cast<std::size_t>(a)] < 2) {
    throw std::invalid_argument("cannot remove the last node from a post");
  }
  load_donor(a);
  const double static_term =
      static_sum_ + instance_->static_energy(a) *
                        (donor_weight_->inv_efficiency(a) - weight_.inv_efficiency(a));
  return weighted_distance_sum(donor_dist_) + static_term;
}

double DeploymentPricer::cost_with_moved_node(int a, int b) const {
  const int n = instance_->num_posts();
  if (a < 0 || a >= n || b < 0 || b >= n) throw std::out_of_range("post index out of range");
  if (a == b) return base_cost_;
  if (deployment_[static_cast<std::size_t>(a)] < 2) {
    throw std::invalid_argument("cannot remove the last node from a post");
  }
  // Phase 1 -- the removal (weight increase) under {a new, b old}: repaired
  // distances are exact for that intermediate weight set, and the donor
  // cache keeps them for the next receiver.  Phase 2 -- the addition, a
  // pure weight decrease from there: improve-only relaxation on a copy
  // lands on the exact fixpoint for {a new, b new}.
  load_donor(a);
  scratch_dist_ = donor_dist_;
  RechargingWeight& weight = *donor_weight_;
  donor_ = -1;  // a throw before b's entry is copied back leaves the cache dropped
  weight.set_node_count(b, deployment_[static_cast<std::size_t>(b)] + 1);
  sources_ = {b};
  improve_relax(sources_, weight, scratch_dist_, nullptr);
  const double static_term =
      static_sum_ +
      instance_->static_energy(a) * (weight.inv_efficiency(a) - weight_.inv_efficiency(a)) +
      instance_->static_energy(b) * (weight.inv_efficiency(b) - weight_.inv_efficiency(b));
  weight.copy_entry(b, weight_);
  donor_ = a;
  return weighted_distance_sum(scratch_dist_) + static_term;
}

double DeploymentPricer::cost_with_added_nodes(
    const std::vector<std::pair<int, int>>& extra) const {
  const int n = instance_->num_posts();
  scratch_weight_ = weight_;
  sources_.clear();
  double static_term = static_sum_;
  for (const auto& [j, count] : extra) {
    if (j < 0 || j >= n) throw std::out_of_range("post index out of range");
    if (count < 0) throw std::invalid_argument("extra node counts must be >= 0");
    if (count == 0) continue;
    const double old_inv = scratch_weight_.inv_efficiency(j);
    scratch_weight_.set_node_count(j, deployment_[static_cast<std::size_t>(j)] + count);
    static_term += instance_->static_energy(j) * (scratch_weight_.inv_efficiency(j) - old_inv);
    sources_.push_back(j);
  }
  if (sources_.empty()) return base_cost_;
  scratch_dist_ = dist_;
  improve_relax(sources_, scratch_weight_, scratch_dist_, nullptr);
  return weighted_distance_sum(scratch_dist_) + static_term;
}

void DeploymentPricer::add_node(int j) {
  if (j < 0 || j >= instance_->num_posts()) throw std::out_of_range("post index out of range");
  if (is_disabled(j)) throw std::invalid_argument("cannot add a node to a disabled post");
  drop_donor();
  ++deployment_[static_cast<std::size_t>(j)];
  const double old_inv = weight_.inv_efficiency(j);
  weight_.set_node_count(j, deployment_[static_cast<std::size_t>(j)]);
  static_sum_ += instance_->static_energy(j) * (weight_.inv_efficiency(j) - old_inv);
  sources_ = {j};
  improve_relax(sources_, weight_, dist_, &parent_);
  children_stale_ = true;
  base_cost_ = weighted_distance_sum(dist_) + static_sum_;
}

void DeploymentPricer::remove_node(int a) {
  if (a < 0 || a >= instance_->num_posts()) throw std::out_of_range("post index out of range");
  if (deployment_[static_cast<std::size_t>(a)] < 2) {
    throw std::invalid_argument("cannot remove the last node from a post");
  }
  drop_donor();
  --deployment_[static_cast<std::size_t>(a)];
  const double old_inv = weight_.inv_efficiency(a);
  weight_.set_node_count(a, deployment_[static_cast<std::size_t>(a)]);
  static_sum_ += instance_->static_energy(a) * (weight_.inv_efficiency(a) - old_inv);
  repair_increase(a, weight_, dist_, &parent_);
  children_stale_ = true;
  base_cost_ = weighted_distance_sum(dist_) + static_sum_;
}

void DeploymentPricer::move_node(int a, int b) {
  const int n = instance_->num_posts();
  if (a < 0 || a >= n || b < 0 || b >= n) throw std::out_of_range("post index out of range");
  if (a == b) return;
  remove_node(a);
  add_node(b);
}

void DeploymentPricer::disable_post(int a) {
  if (a < 0 || a >= instance_->num_posts()) throw std::out_of_range("post index out of range");
  if (disabled_[static_cast<std::size_t>(a)]) {
    throw std::invalid_argument("post is already disabled");
  }
  drop_donor();
  // The static term leaves the objective before the efficiency goes to
  // +infinity (a destroyed site senses nothing and costs nothing).
  static_sum_ -= instance_->static_energy(a) * weight_.inv_efficiency(a);
  deployment_[static_cast<std::size_t>(a)] = 0;
  weight_.disable(a);
  disabled_[static_cast<std::size_t>(a)] = 1;
  ++num_disabled_;
  // Every edge through `a` just became unusable -- the same shape as a
  // removal's weight increase, so the same subtree-invalidation repair
  // applies.  `a` itself re-seeds to infinity (all its out-edges are
  // infinite); survivors re-attach through intact neighbors or stay cut off.
  repair_increase(a, weight_, dist_, &parent_);
  dist_[static_cast<std::size_t>(a)] = graph::kInfinity;
  parent_[static_cast<std::size_t>(a)] = -1;
  children_stale_ = true;
  base_cost_ = weighted_distance_sum(dist_) + static_sum_;
}

}  // namespace wrsn::core
