#include "graph/dijkstra.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace wrsn::graph {

namespace detail {

void note_run(bool dial) noexcept {
  // Cached references: the registry lock is taken once per process, not per
  // run (obs sits below graph in the layering, see CONTRIBUTING.md).
  static obs::Counter& heap_runs = obs::Registry::global().counter("dijkstra/heap_runs");
  static obs::Counter& dial_runs = obs::Registry::global().counter("dijkstra/dial_runs");
  (dial ? dial_runs : heap_runs).increment();
}

}  // namespace detail

DagReach compute_dag_reach(const ShortestPathDag& dag) {
  const int n = dag.num_vertices();
  const std::size_t bits = static_cast<std::size_t>(n);
  DagReach reach;
  reach.through.assign(bits, Bitset(bits));
  reach.descendants.assign(bits, Bitset(bits));
  reach.workload.assign(bits, 0);

  // Process vertices in increasing dist order; every parent has strictly
  // smaller dist, so its through-set is already final.
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return dag.dist[static_cast<std::size_t>(a)] <
                                       dag.dist[static_cast<std::size_t>(b)]; });

  for (int v : order) {
    if (v == dag.base_station) continue;
    if (!std::isfinite(dag.dist[static_cast<std::size_t>(v)])) continue;
    auto& through_v = reach.through[static_cast<std::size_t>(v)];
    for (int p : dag.parents[static_cast<std::size_t>(v)]) {
      through_v.set(static_cast<std::size_t>(p));
      through_v |= reach.through[static_cast<std::size_t>(p)];
    }
  }

  // Transpose: descendants[p] = { posts v : p in through[v] }, iterating
  // members word-wise instead of testing all n bits per vertex.
  for (int v = 0; v < n; ++v) {
    if (v == dag.base_station) continue;
    reach.through[static_cast<std::size_t>(v)].for_each_set_bit([&](std::size_t p) {
      reach.descendants[p].set(static_cast<std::size_t>(v));
    });
  }
  for (int p = 0; p < n; ++p) {
    reach.workload[static_cast<std::size_t>(p)] =
        static_cast<int>(reach.descendants[static_cast<std::size_t>(p)].count());
  }
  return reach;
}

}  // namespace wrsn::graph
