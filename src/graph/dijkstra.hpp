// Single-sink shortest paths with *all* tight predecessors retained.
//
// RFH Phase I runs Dijkstra from every post to the base station and must
// keep every minimum-energy path, not just one: the union of all tight
// next-hop edges forms the shortest-path DAG the paper calls a "fat tree",
// which Phase II then trims by concentrating workload.  We compute the DAG
// in one Dijkstra pass from the base station over reversed edges.
//
// The weight is any callable, taken by concrete type so the compiler
// inlines it into the relaxation loop.  A 3-argument callable
// `w(from, to, tx)` receives the per-edge transmit energy packed inside the
// ReachAdjacency, streamed in lockstep with the neighbor ids (the solvers
// pass core::RechargingWeight or core::EnergyWeight this way -- no (N+1)^2
// matrix behind them); a plain 2-argument callable still works and looks
// the edge up itself.  The caller supplies a prebuilt `ReachAdjacency`, so
// repeated runs over one graph skip the reachability probing.
//
// One inner loop does the work: a bucket queue (Dial) that exploits the
// narrow edge-weight range the paper's small discrete level set produces,
// with a binary heap as its fallback for weights that advertise no usable
// `bounds()` or whose range needs more than `kMaxBuckets` buckets
// (docs/performance.md).  Both produce bit-identical results; a lambda that
// forwards to a weight class hides its bounds and so runs the heap.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/bitset.hpp"
#include "graph/reach_graph.hpp"

namespace wrsn::graph {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Global bounds on the edge weights a weight callable can produce for the
/// *current* weight state.  Weight classes expose these via a `bounds()`
/// member; the bucket Dijkstra sizes its queue from them.  Bounds must be
/// conservative: every weight returned during the run must lie inside
/// [min_weight, max_weight].
struct WeightBounds {
  double min_weight = 0.0;
  double max_weight = kInfinity;
  bool usable() const noexcept {
    return min_weight > 0.0 && std::isfinite(min_weight) && std::isfinite(max_weight) &&
           max_weight >= min_weight;
  }
};

/// The shortest-path DAG toward the base station ("fat tree").
struct ShortestPathDag {
  /// dist[v] = minimum total weight of a v -> base path; kInfinity when v
  /// cannot reach the base station.
  std::vector<double> dist;
  /// parents[v] = every next hop u with dist[v] == w(v,u) + dist[u] (within
  /// the relative tie tolerance). Empty for the base station.
  std::vector<std::vector<int>> parents;
  int base_station = 0;
  bool all_posts_reachable = false;

  int num_vertices() const noexcept { return static_cast<int>(dist.size()); }
};

/// Relative tolerance under which two path costs count as equal when the
/// tight-predecessor DAG is extracted.
constexpr double kRelTieEps = 1e-9;

/// Reusable buffers for repeated Dijkstra runs over one graph; at steady
/// state a run performs zero allocations.  One per thread in parallel
/// callers (buffers are not synchronized).
struct DijkstraScratch {
  std::vector<double> dist;
  std::vector<char> settled;
  std::vector<std::pair<double, int>> heap;  // heap-loop storage
  // Bucket-loop storage: the outer vector is resized rarely and the inner
  // ones retain capacity across runs.
  std::vector<std::vector<std::pair<double, int>>> buckets;
};

namespace detail {

/// Bumps the obs counter dijkstra/dial_runs or dijkstra/heap_runs (defined
/// in the .cpp so this header stays free of obs includes).
void note_run(bool dial) noexcept;

inline void check_weight(double w) {
  if (!(w > 0.0) || !std::isfinite(w)) {
    throw std::invalid_argument("edge weights must be positive and finite");
  }
}

inline bool tight_edge(double dist_v, double dist_u, double weight) {
  const double via = dist_u + weight;
  const double scale = std::max({std::fabs(dist_v), std::fabs(via), 1e-300});
  return std::fabs(dist_v - via) <= kRelTieEps * scale;
}

/// Detects the packed-tx weight form `w(from, to, tx)`.
template <class WeightT>
constexpr bool takes_packed_tx_v =
    std::is_invocable_r_v<double, const WeightT&, int, int, double>;

/// Evaluates the weight of edge from -> to; `tx` points at the packed
/// per-edge tx array (index i), or nullptr when the adjacency packed none.
template <class WeightT>
inline double eval_weight(const WeightT& weight, int from, int to, const double* tx,
                          std::size_t i) {
  if constexpr (takes_packed_tx_v<WeightT>) {
    return weight(from, to, tx[i]);
  } else {
    (void)tx;
    (void)i;
    return weight(from, to);
  }
}

template <class WeightT>
concept HasWeightBounds = requires(const WeightT& w) {
  { w.bounds() } -> std::convertible_to<WeightBounds>;
};

template <class WeightT>
inline WeightBounds weight_bounds(const WeightT& weight) {
  if constexpr (HasWeightBounds<WeightT>) {
    return weight.bounds();
  } else {
    return WeightBounds{};  // unusable -> bucket selection declines
  }
}

/// Hard cap on the bucket count: graphs whose weight range is wider fall
/// back to the heap rather than allocating an unbounded queue.
constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;

/// Bucket width is *half* the minimum edge weight: a relaxation then jumps
/// >= 2 buckets in exact arithmetic, so even worst-case floating-point
/// rounding of the bucket index (<= 1 off) can never land a new candidate
/// in the bucket currently being drained -- which is what makes settling a
/// bucket in arbitrary order exact, hence bit-identical to the heap.
inline std::size_t bucket_count(const WeightBounds& b) noexcept {
  if (!b.usable()) return 0;
  const double ratio = 2.0 * b.max_weight / b.min_weight;
  if (!(ratio < static_cast<double>(kMaxBuckets - 3))) return 0;
  return static_cast<std::size_t>(ratio) + 3;
}

/// Throws when a packed-tx weight is paired with an adjacency that packed
/// no tx energies (the arrays the weight form relies on do not exist).
template <class WeightT>
inline void require_tx(const ReachAdjacency& adj) {
  if constexpr (takes_packed_tx_v<WeightT>) {
    if (!adj.has_tx()) {
      throw std::invalid_argument(
          "packed-tx weight requires a ReachAdjacency built with a radio");
    }
  }
}

}  // namespace detail

/// Distance-only charging-aware Dijkstra from the base station over
/// reversed edges: fills `scratch.dist` (indexed by vertex) and returns
/// true when every post can reach the base.  This is the solver hot path --
/// deployment pricing needs only the distances, so the O(E) tight-edge
/// extraction of `shortest_paths_to_base` is skipped entirely.
template <class WeightT>
bool shortest_distances_to_base(const ReachGraph& graph, const ReachAdjacency& adj,
                                const WeightT& weight, DijkstraScratch& scratch) {
  const int n = graph.num_vertices();
  const int bs = graph.base_station();
  detail::require_tx<WeightT>(adj);
  auto& dist = scratch.dist;
  auto& settled = scratch.settled;
  dist.assign(static_cast<std::size_t>(n), kInfinity);
  settled.assign(static_cast<std::size_t>(n), 0);
  dist[static_cast<std::size_t>(bs)] = 0.0;

  const WeightBounds wb = detail::weight_bounds(weight);
  const std::size_t num_buckets = detail::bucket_count(wb);
  detail::note_run(num_buckets > 0);

  if (num_buckets > 0) {
    // Dial's algorithm over real weights: tentative distances of pending
    // vertices span at most max_weight, so a circular array of
    // ceil(max/width) + slack buckets indexed by floor(d / width) (mod size)
    // is a faithful monotone priority queue.  Stale entries are skipped by
    // the exact d != dist[v] test, same as the heap's lazy deletions.
    auto& buckets = scratch.buckets;
    if (buckets.size() < num_buckets) buckets.resize(num_buckets);
    for (auto& b : buckets) b.clear();
    const double inv_width = 2.0 / wb.min_weight;  // 1 / (min_weight / 2)
    std::size_t cur = 0;  // global bucket counter, monotone
    std::size_t pending = 1;
    buckets[0].emplace_back(0.0, bs);
    while (pending > 0) {
      std::size_t skip = 0;
      while (buckets[(cur + skip) % num_buckets].empty()) ++skip;
      cur += skip;
      auto& bucket = buckets[cur % num_buckets];
      while (!bucket.empty()) {
        const auto [d, u] = bucket.back();
        bucket.pop_back();
        --pending;
        if (settled[static_cast<std::size_t>(u)]) continue;
        if (d != dist[static_cast<std::size_t>(u)]) continue;  // stale
        settled[static_cast<std::size_t>(u)] = 1;
        const auto in = adj.in(u);
        const double* tx = adj.in_tx(u);
        for (std::size_t i = 0; i < in.size(); ++i) {
          const int v = in[i];
          if (settled[static_cast<std::size_t>(v)]) continue;
          const double w = detail::eval_weight(weight, v, u, tx, i);
          detail::check_weight(w);
          const double candidate = d + w;
          if (candidate < dist[static_cast<std::size_t>(v)]) {
            dist[static_cast<std::size_t>(v)] = candidate;
            buckets[static_cast<std::size_t>(candidate * inv_width) % num_buckets]
                .emplace_back(candidate, v);
            ++pending;
          }
        }
      }
      ++cur;
    }
  } else {
    auto& heap = scratch.heap;
    heap.clear();
    heap.emplace_back(0.0, bs);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const auto [d, u] = heap.back();
      heap.pop_back();
      if (settled[static_cast<std::size_t>(u)]) continue;
      settled[static_cast<std::size_t>(u)] = 1;
      const auto in = adj.in(u);
      const double* tx = adj.in_tx(u);
      for (std::size_t i = 0; i < in.size(); ++i) {
        const int v = in[i];
        if (settled[static_cast<std::size_t>(v)]) continue;
        const double w = detail::eval_weight(weight, v, u, tx, i);
        detail::check_weight(w);
        const double candidate = d + w;
        if (candidate < dist[static_cast<std::size_t>(v)]) {
          dist[static_cast<std::size_t>(v)] = candidate;
          heap.emplace_back(candidate, v);
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
      }
    }
  }

  for (int v = 0; v < n; ++v) {
    if (v != bs && !std::isfinite(dist[static_cast<std::size_t>(v)])) return false;
  }
  return true;
}

/// Runs Dijkstra from the base station over reversed edges and extracts the
/// tight-predecessor DAG; two path costs tie within `kRelTieEps` (relative
/// comparison).
template <class WeightT>
ShortestPathDag shortest_paths_to_base(const ReachGraph& graph, const ReachAdjacency& adj,
                                       const WeightT& weight) {
  const int n = graph.num_vertices();
  const int bs = graph.base_station();
  DijkstraScratch scratch;
  ShortestPathDag dag;
  dag.base_station = bs;
  dag.all_posts_reachable =
      shortest_distances_to_base(graph, adj, weight, scratch);
  dag.dist = std::move(scratch.dist);
  dag.parents.assign(static_cast<std::size_t>(n), {});

  // Tight-predecessor extraction: v keeps every next hop on some shortest
  // path. Done as a post-pass so ties discovered in any relaxation order are
  // all retained.
  for (int v = 0; v < n; ++v) {
    if (v == bs) continue;
    if (!std::isfinite(dag.dist[static_cast<std::size_t>(v)])) continue;
    const auto out = adj.out(v);
    const double* tx = adj.out_tx(v);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const int u = out[i];
      if (!std::isfinite(dag.dist[static_cast<std::size_t>(u)])) continue;
      const double w = detail::eval_weight(weight, v, u, tx, i);
      if (detail::tight_edge(dag.dist[static_cast<std::size_t>(v)],
                             dag.dist[static_cast<std::size_t>(u)], w)) {
        dag.parents[static_cast<std::size_t>(v)].push_back(u);
      }
    }
    if (dag.parents[static_cast<std::size_t>(v)].empty()) {
      // Numerically impossible unless the tolerance is zero and rounding
      // split a tie; fall back to the strict argmin so the DAG stays usable.
      int best = -1;
      double best_cost = kInfinity;
      for (std::size_t i = 0; i < out.size(); ++i) {
        const int u = out[i];
        if (!std::isfinite(dag.dist[static_cast<std::size_t>(u)])) continue;
        const double cost =
            dag.dist[static_cast<std::size_t>(u)] + detail::eval_weight(weight, v, u, tx, i);
        if (cost < best_cost) {
          best_cost = cost;
          best = u;
        }
      }
      if (best >= 0) dag.parents[static_cast<std::size_t>(v)].push_back(best);
    }
  }
  return dag;
}

/// Reachability closure of a (possibly trimmed) shortest-path DAG.
struct DagReach {
  /// through[v] = set of vertices lying on some v -> base path, excluding v.
  std::vector<Bitset> through;
  /// descendants[p] = set of posts v (v != p) whose data can route through p.
  std::vector<Bitset> descendants;
  /// workload[p] = |descendants[p]| -- the paper's Phase II routing workload.
  std::vector<int> workload;
};

/// Computes the closure for the DAG's current parent lists.  Parent edges
/// must point from larger to strictly smaller `dist` (guaranteed for DAGs
/// produced by shortest_paths_to_base, preserved by edge deletion).
DagReach compute_dag_reach(const ShortestPathDag& dag);

}  // namespace wrsn::graph
