// Sparse-vs-dense equivalence: the sparse execution path (grid-built CSR
// ReachGraph, packed-tx adjacency, bucket Dijkstra) must be *bit-identical*
// to the dense oracle wherever both apply -- same levels, same distances,
// same solver output doubles.  These tests are the contract that lets
// `from_field` flip storage above kAutoSparseThreshold without perturbing a
// single golden value.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/cost.hpp"
#include "core/idb.hpp"
#include "core/instance.hpp"
#include "core/rfh.hpp"
#include "energy/charging_model.hpp"
#include "energy/radio_model.hpp"
#include "geom/field.hpp"
#include "graph/dijkstra.hpp"
#include "graph/reach_graph.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace wrsn {
namespace {

using graph::ReachAdjacency;
using graph::ReachGraph;

geom::Field random_field(util::Rng& rng, int num_posts, double extent) {
  geom::Field field;
  field.width = extent;
  field.height = extent;
  field.base_station = {0.0, 0.0};
  for (int i = 0; i < num_posts; ++i) {
    field.posts.push_back({rng.uniform(0.0, extent), rng.uniform(0.0, extent)});
  }
  return field;
}

/// (neighbor, level) pairs of u's out-edges, in walk order.
std::vector<std::pair<int, int>> out_edges(const ReachGraph& g, int u) {
  std::vector<std::pair<int, int>> edges;
  g.for_each_out_edge(u, [&](int to, int level) { edges.emplace_back(to, level); });
  return edges;
}

/// (neighbor, level) pairs of u's in-edges, in walk order.
std::vector<std::pair<int, int>> in_edges(const ReachGraph& g, int u) {
  std::vector<std::pair<int, int>> edges;
  g.for_each_in_edge(u, [&](int from, int level) { edges.emplace_back(from, level); });
  return edges;
}

TEST(SparseReachGraph, MatchesDenseOracleOnRandomFields) {
  util::Rng rng(42);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = rng.uniform_int(3, 120);
    const double extent = rng.uniform(30.0, 400.0);
    const geom::Field field = random_field(rng, n, extent);
    const auto radio = energy::RadioModel::uniform_levels(rng.uniform_int(1, 4), 25.0);

    const ReachGraph dense = ReachGraph::from_field(field, radio, ReachGraph::Storage::kDense);
    const ReachGraph sparse = ReachGraph::from_field(field, radio, ReachGraph::Storage::kSparse);
    ASSERT_FALSE(dense.is_sparse());
    ASSERT_TRUE(sparse.is_sparse());

    const int nv = dense.num_vertices();
    for (int u = 0; u < nv; ++u) {
      for (int v = 0; v < nv; ++v) {
        ASSERT_EQ(dense.min_level(u, v), sparse.min_level(u, v))
            << "trial " << trial << " pair (" << u << ", " << v << ")";
        if (dense.reachable(u, v)) {
          // Bit-identical, not just approximately equal: the sparse path
          // recomputes from coordinates and squaring is sign-insensitive.
          ASSERT_EQ(dense.distance(u, v), sparse.distance(u, v));
        }
      }
      ASSERT_EQ(out_edges(dense, u), out_edges(sparse, u));
      ASSERT_EQ(in_edges(dense, u), in_edges(sparse, u));
    }
    EXPECT_EQ(dense.connected_to_base(), sparse.connected_to_base());
    EXPECT_EQ(sparse.connected_to_base(), geom::is_connected(field, radio.max_range()));

    // The packed adjacency (ids and per-edge tx energies) must agree too.
    const ReachAdjacency adj_dense(dense, radio);
    const ReachAdjacency adj_sparse(sparse, radio);
    ASSERT_EQ(adj_dense.min_tx(), adj_sparse.min_tx());
    ASSERT_EQ(adj_dense.max_tx(), adj_sparse.max_tx());
    for (int u = 0; u < nv; ++u) {
      const auto in_d = adj_dense.in(u);
      const auto in_s = adj_sparse.in(u);
      ASSERT_TRUE(std::equal(in_d.begin(), in_d.end(), in_s.begin(), in_s.end()));
      for (std::size_t i = 0; i < in_d.size(); ++i) {
        ASSERT_EQ(adj_dense.in_tx(u)[i], adj_sparse.in_tx(u)[i]);
      }
    }
  }
}

TEST(SparseReachGraph, FromFieldAutoSelectsStorageByThreshold) {
  const auto radio = energy::RadioModel::uniform_levels(3, 25.0);
  const geom::Field small = geom::grid_field(200.0, 200.0, 6, 6, geom::BaseStationCorner::LowerLeft);
  EXPECT_LE(static_cast<int>(small.posts.size()), ReachGraph::kAutoSparseThreshold);
  EXPECT_FALSE(ReachGraph::from_field(small, radio).is_sparse());

  // 34x34 grid = 1156 posts (minus one colliding with the corner) > 1024.
  const geom::Field large =
      geom::grid_field(1320.0, 1320.0, 34, 34, geom::BaseStationCorner::LowerLeft);
  ASSERT_GT(static_cast<int>(large.posts.size()), ReachGraph::kAutoSparseThreshold);
  const ReachGraph g = ReachGraph::from_field(large, radio);
  EXPECT_TRUE(g.is_sparse());
  EXPECT_GT(g.num_sparse_edges(), 0u);
}

TEST(SparseReachGraph, SparseGraphsAreImmutable) {
  util::Rng rng(7);
  const geom::Field field = random_field(rng, 10, 100.0);
  const auto radio = energy::RadioModel::uniform_levels(3, 25.0);
  ReachGraph sparse = ReachGraph::from_field(field, radio, ReachGraph::Storage::kSparse);
  EXPECT_THROW(sparse.set_min_level(0, 1, 0), std::logic_error);
  EXPECT_THROW(sparse.set_min_level_symmetric(0, 1, 0), std::logic_error);
}

// One connected fixture shared by the Dijkstra and solver equivalence tests:
// 40 m grid spacing with 25/50/75 m level ranges gives every post its 8-cell
// neighborhood (diagonals at ~56.6 m).
core::Instance grid_instance(int cols, int rows, energy::ChargingModel charging,
                             int spare_per_post = 2) {
  const double spacing = 40.0;
  geom::Field field = geom::grid_field(spacing * (cols - 1), spacing * (rows - 1), cols, rows,
                                       geom::BaseStationCorner::LowerLeft);
  const auto radio = energy::RadioModel::uniform_levels(3, 25.0);
  const int n = static_cast<int>(field.posts.size());
  return core::Instance::geometric(std::move(field), radio, charging,
                                   n * (1 + spare_per_post));
}

TEST(DijkstraVariants, HeapAndBucketAreBitIdentical) {
  util::Rng rng(99);
  const std::vector<energy::ChargingModel> models{
      energy::ChargingModel::linear(0.008),
      energy::ChargingModel::sub_linear(0.008, 0.7),
      energy::ChargingModel::saturating(0.008, 5.0),
  };
  for (const auto& charging : models) {
    const core::Instance inst = grid_instance(7, 7, charging);
    const int n = inst.num_posts();
    std::vector<int> deployment(static_cast<std::size_t>(n));
    for (int& m : deployment) m = rng.uniform_int(1, 4);

    const core::RechargingWeight weight(inst, deployment);
    ASSERT_TRUE(weight.bounds().usable());

    graph::DijkstraScratch heap_s;
    graph::DijkstraScratch bucket_s;
    ASSERT_TRUE(graph::shortest_distances_to_base(inst.graph(), inst.adjacency(),
                                                  test::heap_only(weight), heap_s));
    ASSERT_TRUE(
        graph::shortest_distances_to_base(inst.graph(), inst.adjacency(), weight, bucket_s));
    for (std::size_t v = 0; v < heap_s.dist.size(); ++v) {
      ASSERT_EQ(heap_s.dist[v], bucket_s.dist[v]) << "vertex " << v;
    }

    // The legacy 2-argument weight form must still produce the same doubles
    // (it reads the same tx energies through the instance instead of the
    // packed arrays).
    const auto legacy = [&](int from, int to) { return weight(from, to); };
    graph::DijkstraScratch legacy_s;
    ASSERT_TRUE(
        graph::shortest_distances_to_base(inst.graph(), inst.adjacency(), legacy, legacy_s));
    for (std::size_t v = 0; v < heap_s.dist.size(); ++v) {
      ASSERT_EQ(heap_s.dist[v], legacy_s.dist[v]);
    }

    // Parent extraction goes through the same weights: DAGs must agree.
    const auto dag_heap =
        graph::shortest_paths_to_base(inst.graph(), inst.adjacency(), test::heap_only(weight));
    const auto dag_bucket =
        graph::shortest_paths_to_base(inst.graph(), inst.adjacency(), weight);
    EXPECT_EQ(dag_heap.dist, dag_bucket.dist);
    EXPECT_EQ(dag_heap.parents, dag_bucket.parents);
  }
}

TEST(DijkstraVariants, AutoPicksBucketOnSparseBoundedWeights) {
  // 15x15 grid, ~224 posts: the recharging weight's usable bounds() make
  // Dial eligible.
  const core::Instance inst = grid_instance(15, 15, energy::ChargingModel::linear(0.008));
  const std::vector<int> deployment(static_cast<std::size_t>(inst.num_posts()), 1);
  const core::RechargingWeight weight(inst, deployment);
  ASSERT_TRUE(weight.bounds().usable());

  obs::Counter& dial = obs::Registry::global().counter("dijkstra/dial_runs");
  const std::uint64_t before = dial.value();
  graph::DijkstraScratch scratch;
  ASSERT_TRUE(graph::shortest_distances_to_base(inst.graph(), inst.adjacency(), weight, scratch));
  EXPECT_EQ(dial.value(), before + 1);
}

TEST(DijkstraVariants, AutoFallsBackToHeapWithoutBounds) {
  const core::Instance inst = grid_instance(6, 6, energy::ChargingModel::linear(0.008));
  const auto unbounded = [](int, int) { return 1.0; };  // no bounds() member
  obs::Counter& heap_runs = obs::Registry::global().counter("dijkstra/heap_runs");
  obs::Counter& dial = obs::Registry::global().counter("dijkstra/dial_runs");
  const std::uint64_t heap_before = heap_runs.value();
  const std::uint64_t dial_before = dial.value();
  graph::DijkstraScratch scratch;
  ASSERT_TRUE(
      graph::shortest_distances_to_base(inst.graph(), inst.adjacency(), unbounded, scratch));
  EXPECT_EQ(heap_runs.value(), heap_before + 1);
  EXPECT_EQ(dial.value(), dial_before);
}

TEST(SparseSolves, RfhAndIdbMatchDenseBitForBit) {
  // Same field, both storages, full solver stacks: every output double and
  // every structural decision must coincide.
  const double spacing = 40.0;
  const geom::Field field =
      geom::grid_field(spacing * 5, spacing * 5, 6, 6, geom::BaseStationCorner::LowerLeft);
  const auto radio = energy::RadioModel::uniform_levels(3, 25.0);
  const auto charging = energy::ChargingModel::linear(0.008);
  const int nodes = static_cast<int>(field.posts.size()) * 3;

  const core::Instance dense_inst = core::Instance::geometric(field, radio, charging, nodes);
  ASSERT_FALSE(dense_inst.graph().is_sparse());
  const core::Instance sparse_inst = core::Instance::abstract(
      graph::ReachGraph::from_field(field, radio, ReachGraph::Storage::kSparse), radio, charging,
      nodes);
  ASSERT_TRUE(sparse_inst.graph().is_sparse());

  const core::RfhResult rfh_dense = core::solve_rfh(dense_inst, {});
  const core::RfhResult rfh_sparse = core::solve_rfh(sparse_inst, {});
  EXPECT_EQ(rfh_dense.cost, rfh_sparse.cost);
  EXPECT_EQ(rfh_dense.best_iteration, rfh_sparse.best_iteration);
  EXPECT_EQ(rfh_dense.per_iteration_cost, rfh_sparse.per_iteration_cost);
  ASSERT_EQ(rfh_dense.solution.deployment, rfh_sparse.solution.deployment);
  for (int p = 0; p < dense_inst.num_posts(); ++p) {
    EXPECT_EQ(rfh_dense.solution.tree.parent(p), rfh_sparse.solution.tree.parent(p));
  }

  const core::IdbResult idb_dense = core::solve_idb(dense_inst, {});
  const core::IdbResult idb_sparse = core::solve_idb(sparse_inst, {});
  EXPECT_EQ(idb_dense.cost, idb_sparse.cost);
  ASSERT_EQ(idb_dense.solution.deployment, idb_sparse.solution.deployment);
  for (int p = 0; p < dense_inst.num_posts(); ++p) {
    EXPECT_EQ(idb_dense.solution.tree.parent(p), idb_sparse.solution.tree.parent(p));
  }
}

TEST(SparseSolves, LargeSparseInstancePricesWithoutDenseMatrices) {
  // Above the threshold the auto path must build sparse and still pass a
  // full pricing round-trip; the dense matrices would already cost ~32 MB
  // here and O(n^2) time, so keep an eye on the gauge instead of the clock.
  const auto radio = energy::RadioModel::uniform_levels(3, 25.0);
  const geom::Field field =
      geom::grid_field(1320.0, 1320.0, 34, 34, geom::BaseStationCorner::LowerLeft);
  const auto charging = energy::ChargingModel::linear(0.008);
  const int n = static_cast<int>(field.posts.size());
  const core::Instance inst = core::Instance::geometric(field, radio, charging, 2 * n);
  ASSERT_TRUE(inst.graph().is_sparse());

  const std::vector<int> deployment(static_cast<std::size_t>(n), 2);
  core::CostEvalScratch scratch;
  const double cost = core::optimal_cost_for_deployment(inst, deployment, scratch);
  EXPECT_TRUE(std::isfinite(cost));
  EXPECT_GT(cost, 0.0);

  // The adjacency gauge reflects O(V + E) storage, far below the ~10.7 MB
  // a single dense (N+1)^2 double matrix would take at this size.
  const double adjacency_bytes =
      obs::Registry::global().gauge("instance/adjacency_bytes").value();
  EXPECT_GT(adjacency_bytes, 0.0);
  const double dense_matrix_bytes = static_cast<double>(n + 1) * (n + 1) * sizeof(double);
  EXPECT_LT(adjacency_bytes, dense_matrix_bytes / 4.0);
}

}  // namespace
}  // namespace wrsn
