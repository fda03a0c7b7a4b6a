#include "graph/dijkstra.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "geom/field.hpp"
#include "graph/bitset.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"

namespace wrsn::graph {
namespace {

/// Unit-weight helper.
auto unit_weight() {
  return [](int, int) { return 1.0; };
}

/// Unit weight that advertises its bounds, so kAuto runs the Dial loop.
struct BoundedUnitWeight {
  double operator()(int, int) const { return 1.0; }
  WeightBounds bounds() const { return {1.0, 1.0}; }
};

/// The DAG over a fresh adjacency of `g` (radio-less test graphs).
template <class WeightT>
ShortestPathDag dag_of(const ReachGraph& g, const WeightT& weight) {
  return shortest_paths_to_base(g, ReachAdjacency(g), weight);
}

TEST(Bitset, BasicOperations) {
  Bitset b(130);
  EXPECT_EQ(b.count(), 0u);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, UnionAccumulates) {
  Bitset a(70);
  Bitset b(70);
  a.set(3);
  b.set(3);
  b.set(69);
  a |= b;
  EXPECT_TRUE(a.test(3));
  EXPECT_TRUE(a.test(69));
  EXPECT_EQ(a.count(), 2u);
}

TEST(Bitset, IntersectionAndDifference) {
  Bitset a(130);
  Bitset b(130);
  for (const std::size_t i : {1u, 64u, 65u, 129u}) a.set(i);
  for (const std::size_t i : {1u, 65u, 100u}) b.set(i);
  Bitset both = a;
  both &= b;
  EXPECT_EQ(both.count(), 2u);
  EXPECT_TRUE(both.test(1));
  EXPECT_TRUE(both.test(65));
  a.and_not(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_TRUE(a.test(64));
  EXPECT_TRUE(a.test(129));
  EXPECT_FALSE(a.test(100));
}

TEST(Dijkstra, ChainDistances) {
  // 0 -> 1 -> 2 -> base(3), each edge weight 1.
  ReachGraph g(3);
  g.set_min_level(0, 1, 0);
  g.set_min_level(1, 2, 0);
  g.set_min_level(2, 3, 0);
  const auto dag = dag_of(g, unit_weight());
  EXPECT_TRUE(dag.all_posts_reachable);
  EXPECT_DOUBLE_EQ(dag.dist[3], 0.0);
  EXPECT_DOUBLE_EQ(dag.dist[2], 1.0);
  EXPECT_DOUBLE_EQ(dag.dist[1], 2.0);
  EXPECT_DOUBLE_EQ(dag.dist[0], 3.0);
  EXPECT_EQ(dag.parents[0], (std::vector<int>{1}));
  EXPECT_EQ(dag.parents[1], (std::vector<int>{2}));
  EXPECT_EQ(dag.parents[2], (std::vector<int>{3}));
  EXPECT_TRUE(dag.parents[3].empty());
}

TEST(Dijkstra, PrefersCheaperLongerPath) {
  // 0 can go straight to base (weight 10) or via 1 (3 + 3).
  ReachGraph g(2);
  g.set_min_level(0, 2, 1);
  g.set_min_level(0, 1, 0);
  g.set_min_level(1, 2, 0);
  const auto weight = [](int from, int to) {
    if (from == 0 && to == 2) return 10.0;
    (void)from;
    (void)to;
    return 3.0;
  };
  const auto dag = dag_of(g, weight);
  EXPECT_DOUBLE_EQ(dag.dist[0], 6.0);
  EXPECT_EQ(dag.parents[0], (std::vector<int>{1}));
}

TEST(Dijkstra, KeepsAllTightParents) {
  // Diamond: 0 -> {1, 2} -> base(3), all edges weight 1: two shortest paths.
  ReachGraph g(3);
  g.set_min_level(0, 1, 0);
  g.set_min_level(0, 2, 0);
  g.set_min_level(1, 3, 0);
  g.set_min_level(2, 3, 0);
  const auto dag = dag_of(g, unit_weight());
  EXPECT_DOUBLE_EQ(dag.dist[0], 2.0);
  std::vector<int> parents = dag.parents[0];
  std::sort(parents.begin(), parents.end());
  EXPECT_EQ(parents, (std::vector<int>{1, 2}));
}

TEST(Dijkstra, UnreachablePostFlagged) {
  ReachGraph g(2);
  g.set_min_level(0, 2, 0);
  // post 1 disconnected
  const auto dag = dag_of(g, unit_weight());
  EXPECT_FALSE(dag.all_posts_reachable);
  EXPECT_TRUE(std::isinf(dag.dist[1]));
  EXPECT_TRUE(dag.parents[1].empty());
  // the rest of the DAG is still valid
  EXPECT_DOUBLE_EQ(dag.dist[0], 1.0);
}

TEST(Dijkstra, RejectsNonPositiveWeights) {
  ReachGraph g(1);
  g.set_min_level(0, 1, 0);
  EXPECT_THROW(dag_of(g, [](int, int) { return 0.0; }), std::invalid_argument);
  EXPECT_THROW(dag_of(g, [](int, int) { return -1.0; }), std::invalid_argument);
}

TEST(Dijkstra, AsymmetricWeightsRespectDirection) {
  // 0 -> 1 cheap, 1 -> 0 expensive; only the 0 -> 1 -> base direction is used.
  ReachGraph g(2);
  g.set_min_level_symmetric(0, 1, 0);
  g.set_min_level(1, 2, 0);
  const auto weight = [](int from, int to) {
    if (from == 0 && to == 1) return 1.0;
    if (from == 1 && to == 0) return 100.0;
    return 1.0;
  };
  const auto dag = dag_of(g, weight);
  EXPECT_DOUBLE_EQ(dag.dist[0], 2.0);
}

TEST(Dijkstra, GeometricSmokeAllReachable) {
  geom::FieldConfig cfg;
  cfg.width = 200.0;
  cfg.height = 200.0;
  cfg.num_posts = 40;
  cfg.max_nearest_neighbor = 60.0;
  util::Rng rng(17);
  const geom::Field field = geom::generate_field(cfg, rng);
  const auto radio = energy::RadioModel::uniform_levels(3, 25.0);
  const ReachGraph g = ReachGraph::from_field(field, radio);
  if (!g.connected_to_base()) GTEST_SKIP() << "random field disconnected";
  const auto dag =
      dag_of(g, [&](int from, int to) { return radio.tx_energy(g.min_level(from, to)); });
  EXPECT_TRUE(dag.all_posts_reachable);
  // dist must be monotone along parent edges.
  for (int v = 0; v < g.num_posts(); ++v) {
    for (int p : dag.parents[v]) {
      EXPECT_LT(dag.dist[static_cast<std::size_t>(p)], dag.dist[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(Dijkstra, MatchesBellmanFordOracleOnRandomGraphs) {
  // Property: on random directed graphs with random positive weights, the
  // Dijkstra distances must equal a Bellman-Ford relaxation fixpoint.
  util::Rng rng(271);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = rng.uniform_int(3, 15);
    ReachGraph g(n);
    // Random weight table; edge probability ~0.4 plus a guaranteed path
    // chain so the graph is connected to the base.
    std::vector<double> weights(static_cast<std::size_t>((n + 1) * (n + 1)), 0.0);
    for (int u = 0; u <= n; ++u) {
      for (int v = 0; v <= n; ++v) {
        if (u == v) continue;
        if (rng.bernoulli(0.4)) {
          g.set_min_level(u, v, 0);
          weights[static_cast<std::size_t>(u * (n + 1) + v)] = rng.uniform(0.1, 10.0);
        }
      }
    }
    for (int v = 0; v < n; ++v) {
      const int next = v + 1;  // v -> v+1 -> ... -> base(n)
      if (!g.reachable(v, next)) {
        g.set_min_level(v, next, 0);
        weights[static_cast<std::size_t>(v * (n + 1) + next)] = rng.uniform(0.1, 10.0);
      }
    }
    const auto weight = [&](int from, int to) {
      return weights[static_cast<std::size_t>(from * (n + 1) + to)];
    };

    const auto dag = dag_of(g, weight);
    ASSERT_TRUE(dag.all_posts_reachable);

    // Bellman-Ford toward the base over reversed edges.
    std::vector<double> oracle(static_cast<std::size_t>(n + 1), kInfinity);
    oracle[static_cast<std::size_t>(n)] = 0.0;
    for (int pass = 0; pass <= n; ++pass) {
      for (int v = 0; v <= n; ++v) {
        for (int u = 0; u <= n; ++u) {
          if (v == u || !g.reachable(v, u)) continue;
          if (!std::isfinite(oracle[static_cast<std::size_t>(u)])) continue;
          oracle[static_cast<std::size_t>(v)] =
              std::min(oracle[static_cast<std::size_t>(v)],
                       oracle[static_cast<std::size_t>(u)] + weight(v, u));
        }
      }
    }
    for (int v = 0; v <= n; ++v) {
      EXPECT_NEAR(dag.dist[static_cast<std::size_t>(v)], oracle[static_cast<std::size_t>(v)],
                  1e-9)
          << "vertex " << v << " trial " << trial;
    }
  }
}

// ------------------------------------------------------- adjacency + variants

TEST(ReachAdjacency, ListsMatchReachabilityAndStayAscending) {
  util::Rng rng(311);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = rng.uniform_int(2, 12);
    ReachGraph g(n);
    for (int u = 0; u <= n; ++u) {
      for (int v = 0; v <= n; ++v) {
        if (u != v && rng.bernoulli(0.35)) g.set_min_level(u, v, 0);
      }
    }
    const ReachAdjacency adj(g);
    ASSERT_EQ(adj.num_vertices(), n + 1);
    for (int u = 0; u <= n; ++u) {
      for (int v = 0; v <= n; ++v) {
        if (u == v) continue;
        const bool listed = std::find(adj.out(u).begin(), adj.out(u).end(), v) != adj.out(u).end();
        EXPECT_EQ(listed, g.reachable(u, v)) << u << "->" << v;
        const bool listed_in =
            std::find(adj.in(v).begin(), adj.in(v).end(), u) != adj.in(v).end();
        EXPECT_EQ(listed_in, g.reachable(u, v));
      }
    }
    for (int v = 0; v <= n; ++v) {
      EXPECT_TRUE(std::is_sorted(adj.out(v).begin(), adj.out(v).end()));
      EXPECT_TRUE(std::is_sorted(adj.in(v).begin(), adj.in(v).end()));
    }
  }
}

/// Table-driven random weight with bounds(), so kAuto runs the Dial loop.
struct RandomTableWeight {
  const std::vector<double>* weights;
  int stride;
  double operator()(int from, int to) const {
    return (*weights)[static_cast<std::size_t>(from * stride + to)];
  }
  WeightBounds bounds() const { return {0.1, 10.0}; }
};

TEST(Dijkstra, HeapAndDialLoopsAreBitIdentical) {
  // Both inner loops perform the same relaxation arithmetic over the same
  // edge set, so distances and parent lists must match to the last bit.
  util::Rng rng(313);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = rng.uniform_int(3, 14);
    ReachGraph g(n);
    std::vector<double> weights(static_cast<std::size_t>((n + 1) * (n + 1)), 0.0);
    for (int u = 0; u <= n; ++u) {
      for (int v = 0; v <= n; ++v) {
        if (u == v) continue;
        if (rng.bernoulli(0.5)) {
          g.set_min_level(u, v, 0);
          weights[static_cast<std::size_t>(u * (n + 1) + v)] = rng.uniform(0.1, 10.0);
        }
      }
    }
    for (int v = 0; v < n; ++v) {
      if (!g.reachable(v, v + 1)) {
        g.set_min_level(v, v + 1, 0);
        weights[static_cast<std::size_t>(v * (n + 1) + v + 1)] = rng.uniform(0.1, 10.0);
      }
    }
    const RandomTableWeight weight{&weights, n + 1};
    const ReachAdjacency adj(g);
    obs::Counter& dial_runs = obs::Registry::global().counter("dijkstra/dial_runs");
    const std::uint64_t dial_before = dial_runs.value();
    const auto dial = shortest_paths_to_base(g, adj, weight);
    EXPECT_EQ(dial_runs.value(), dial_before + 1);
    obs::Counter& heap_runs = obs::Registry::global().counter("dijkstra/heap_runs");
    const std::uint64_t heap_before = heap_runs.value();
    const auto heap = shortest_paths_to_base(g, adj, test::heap_only(weight));
    EXPECT_EQ(heap_runs.value(), heap_before + 1);
    ASSERT_EQ(heap.dist.size(), dial.dist.size());
    for (std::size_t v = 0; v < heap.dist.size(); ++v) {
      EXPECT_EQ(heap.dist[v], dial.dist[v]) << "vertex " << v << " trial " << trial;
      EXPECT_EQ(heap.parents[v], dial.parents[v]) << "vertex " << v << " trial " << trial;
    }
    EXPECT_EQ(heap.all_posts_reachable, dial.all_posts_reachable);
  }
}

TEST(Dijkstra, DistanceOnlyMatchesDagDistances) {
  ReachGraph g(3);
  g.set_min_level(0, 1, 0);
  g.set_min_level(1, 2, 0);
  g.set_min_level(2, 3, 0);
  g.set_min_level(0, 3, 0);
  const auto weight = [](int from, int to) { return from == 0 && to == 3 ? 10.0 : 1.0; };
  const ReachAdjacency adj(g);
  const auto dag = shortest_paths_to_base(g, adj, weight);

  DijkstraScratch scratch;
  EXPECT_TRUE(shortest_distances_to_base(g, adj, weight, scratch));
  ASSERT_EQ(scratch.dist.size(), dag.dist.size());
  for (std::size_t v = 0; v < dag.dist.size(); ++v) {
    EXPECT_EQ(scratch.dist[v], dag.dist[v]) << "vertex " << v;
  }
}

TEST(Dijkstra, DistanceOnlyReportsUnreachable) {
  ReachGraph g(2);
  g.set_min_level(0, 2, 0);  // post 1 disconnected
  const ReachAdjacency adj(g);
  DijkstraScratch scratch;
  const BoundedUnitWeight unit;
  EXPECT_FALSE(shortest_distances_to_base(g, adj, test::heap_only(unit), scratch));
  EXPECT_TRUE(std::isinf(scratch.dist[1]));
  EXPECT_FALSE(shortest_distances_to_base(g, adj, unit, scratch));  // Dial
  EXPECT_TRUE(std::isinf(scratch.dist[1]));
}

TEST(Dijkstra, ScratchReuseAcrossDifferentGraphSizes) {
  DijkstraScratch scratch;
  const auto unit = [](int, int) { return 1.0; };
  for (int n : {5, 2, 9}) {
    ReachGraph g(n);
    for (int v = 0; v < n; ++v) g.set_min_level(v, v + 1, 0);
    const ReachAdjacency adj(g);
    EXPECT_TRUE(shortest_distances_to_base(g, adj, unit, scratch));
    ASSERT_EQ(static_cast<int>(scratch.dist.size()), n + 1);
    EXPECT_DOUBLE_EQ(scratch.dist[0], static_cast<double>(n));
  }
}

// ------------------------------------------------------------ DAG closure

TEST(DagReach, ChainWorkloads) {
  ReachGraph g(3);
  g.set_min_level(0, 1, 0);
  g.set_min_level(1, 2, 0);
  g.set_min_level(2, 3, 0);
  auto dag = dag_of(g, unit_weight());
  const DagReach reach = compute_dag_reach(dag);
  // post 2 carries posts 0 and 1; post 1 carries post 0; post 0 carries none.
  EXPECT_EQ(reach.workload[2], 2);
  EXPECT_EQ(reach.workload[1], 1);
  EXPECT_EQ(reach.workload[0], 0);
  // The base station is "through" every post's path.
  EXPECT_EQ(reach.workload[3], 3);
  EXPECT_TRUE(reach.through[0].test(1));
  EXPECT_TRUE(reach.through[0].test(2));
  EXPECT_TRUE(reach.through[0].test(3));
  EXPECT_FALSE(reach.through[2].test(1));
}

TEST(DagReach, DiamondCountsDistinctDescendants) {
  // 0 -> {1,2} -> base: both 1 and 2 *can* carry 0.
  ReachGraph g(3);
  g.set_min_level(0, 1, 0);
  g.set_min_level(0, 2, 0);
  g.set_min_level(1, 3, 0);
  g.set_min_level(2, 3, 0);
  auto dag = dag_of(g, unit_weight());
  const DagReach reach = compute_dag_reach(dag);
  EXPECT_EQ(reach.workload[1], 1);
  EXPECT_EQ(reach.workload[2], 1);
  EXPECT_TRUE(reach.descendants[1].test(0));
  EXPECT_TRUE(reach.descendants[2].test(0));
  EXPECT_EQ(reach.workload[3], 3);
}

TEST(DagReach, RecomputeAfterEdgeDeletion) {
  ReachGraph g(3);
  g.set_min_level(0, 1, 0);
  g.set_min_level(0, 2, 0);
  g.set_min_level(1, 3, 0);
  g.set_min_level(2, 3, 0);
  auto dag = dag_of(g, unit_weight());
  // Delete 0 -> 2: all of 0's traffic must now pass through 1.
  auto& parents = dag.parents[0];
  parents.erase(std::remove(parents.begin(), parents.end(), 2), parents.end());
  const DagReach reach = compute_dag_reach(dag);
  EXPECT_EQ(reach.workload[1], 1);
  EXPECT_EQ(reach.workload[2], 0);
}

}  // namespace
}  // namespace wrsn::graph
