#include "core/failures.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/baseline.hpp"
#include "core/idb.hpp"
#include "core/rfh.hpp"
#include "helpers.hpp"

namespace wrsn::core {
namespace {

TEST(RemovePosts, MappingsAreConsistent) {
  util::Rng rng(1001);
  const Instance inst = test::random_instance(10, 20, 130.0, rng);
  const SubInstance sub = remove_posts(inst, {2, 5, 7}, 14);
  EXPECT_EQ(sub.instance.num_posts(), 7);
  EXPECT_EQ(sub.to_original.size(), 7u);
  for (int a = 0; a < 7; ++a) {
    const int p = sub.to_original[static_cast<std::size_t>(a)];
    EXPECT_EQ(sub.from_original[static_cast<std::size_t>(p)], a);
  }
  EXPECT_EQ(sub.from_original[2], -1);
  EXPECT_EQ(sub.from_original[5], -1);
  EXPECT_EQ(sub.from_original[7], -1);
}

TEST(RemovePosts, GeometryAndWorkloadCarriedOver) {
  geom::Field field;
  field.base_station = {0.0, 0.0};
  field.posts = {{20.0, 0.0}, {40.0, 0.0}, {60.0, 0.0}};
  Workload workload;
  workload.report_rates = {1.0, 2.0, 3.0};
  workload.static_energy = {0.0, 1e-9, 2e-9};
  const Instance inst = Instance::geometric(field, test::paper_radio(),
                                            test::paper_charging(), 6, workload);
  const SubInstance sub = remove_posts(inst, {1}, 4);
  ASSERT_EQ(sub.instance.num_posts(), 2);
  EXPECT_DOUBLE_EQ(sub.instance.report_rate(0), 1.0);
  EXPECT_DOUBLE_EQ(sub.instance.report_rate(1), 3.0);
  EXPECT_DOUBLE_EQ(sub.instance.static_energy(1), 2e-9);
  ASSERT_TRUE(sub.instance.field().has_value());
  EXPECT_DOUBLE_EQ(sub.instance.field()->posts[1].x, 60.0);
}

TEST(RemovePosts, DisconnectionDetected) {
  // Chain 20-40-60-80: removing posts 1 and 2 leaves {20, 80}, still
  // connected because the 60 m hop 80->20 is within range; removing
  // {0, 1, 2} strands the 80 m post (80 > 75 m max range).
  const Instance inst = test::chain_instance(4, 8);
  EXPECT_NO_THROW(remove_posts(inst, {1}, 6));
  EXPECT_NO_THROW(remove_posts(inst, {1, 2}, 4));
  EXPECT_THROW(remove_posts(inst, {0, 1, 2}, 2), InfeasibleInstance);
}

TEST(RemovePosts, ValidationErrors) {
  const Instance inst = test::chain_instance(3, 6);
  EXPECT_THROW(remove_posts(inst, {9}, 4), std::out_of_range);
  EXPECT_THROW(remove_posts(inst, {0, 1, 2}, 0), InfeasibleInstance);
  EXPECT_THROW(remove_posts(inst, {0}, 1), InfeasibleInstance);  // 2 survivors, 1 node
}

TEST(SurvivesFailure, MatchesConnectivityGroundTruth) {
  const Instance inst = test::chain_instance(4, 8);
  EXPECT_TRUE(survives_failure(inst, {}));
  EXPECT_TRUE(survives_failure(inst, {3}));
  EXPECT_TRUE(survives_failure(inst, {1}));
  EXPECT_TRUE(survives_failure(inst, {1, 2}));  // 80 -> 20 hop is 60 m
  EXPECT_FALSE(survives_failure(inst, {0, 1, 2}));
  EXPECT_FALSE(survives_failure(inst, {0, 1, 2, 3}));
}

TEST(AssessFailure, NoFailureIsNeutral) {
  util::Rng rng(1009);
  const Instance inst = test::random_instance(10, 25, 130.0, rng);
  const auto plan = solve_idb(inst);
  const FailureImpact impact = assess_failure(inst, plan.solution, {});
  EXPECT_TRUE(impact.connected);
  EXPECT_EQ(impact.nodes_lost, 0);
  EXPECT_NEAR(impact.cost_fixed_deployment, plan.cost, plan.cost * 1e-9);
  EXPECT_NEAR(impact.cost_redeployed, plan.cost, plan.cost * 1e-9);
}

TEST(AssessFailure, CountsLostNodes) {
  util::Rng rng(1013);
  const Instance inst = test::random_instance(8, 24, 120.0, rng);
  const auto plan = solve_idb(inst);
  const FailureImpact impact = assess_failure(inst, plan.solution, {0, 3});
  EXPECT_EQ(impact.nodes_lost,
            plan.solution.deployment[0] + plan.solution.deployment[3]);
}

TEST(AssessFailure, RedeploymentTracksFixedDeployment) {
  // Redeployment optimizes over a superset of configurations, but IDB is a
  // heuristic, so it may land a percent or two on either side of the
  // kept-in-place cost; it must never be far worse.
  util::Rng rng(1019);
  int assessed = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Instance inst = test::random_instance(10, 30, 140.0, rng);
    const auto plan = solve_idb(inst);
    const int victim = rng.uniform_int(0, 9);
    const FailureImpact impact = assess_failure(inst, plan.solution, {victim});
    if (!impact.connected) continue;
    EXPECT_LE(impact.cost_redeployed, impact.cost_fixed_deployment * 1.05);
    ++assessed;
  }
  EXPECT_GT(assessed, 2);
}

TEST(AssessFailure, RoutingFixedIsConsistent) {
  util::Rng rng(1021);
  const Instance inst = test::random_instance(10, 30, 140.0, rng);
  const auto plan = solve_idb(inst);
  const FailureImpact impact = assess_failure(inst, plan.solution, {4});
  ASSERT_TRUE(impact.connected);
  ASSERT_TRUE(impact.routing_fixed.has_value());
  const auto& tree = impact.routing_fixed->tree;
  // Failed post has no parent; survivors never route through it.
  EXPECT_EQ(tree.parent(4), graph::RoutingTree::kNoParent);
  for (int p = 0; p < 10; ++p) {
    if (p == 4) continue;
    EXPECT_NE(tree.parent(p), 4) << "survivor routed through the failed post";
  }
}

TEST(AssessFailure, DisconnectionReportedGracefully) {
  const Instance inst = test::chain_instance(4, 8);
  const auto plan = solve_idb(inst);
  const FailureImpact impact = assess_failure(inst, plan.solution, {0, 1, 2});
  EXPECT_FALSE(impact.connected);
  EXPECT_TRUE(std::isinf(impact.cost_fixed_deployment));
  EXPECT_FALSE(impact.routing_fixed.has_value());
}

TEST(AssessFailure, FixedDeploymentStaysNearRedeployedOptimum) {
  // Losing any single post of a line leaves the kept-in-place deployment
  // within a modest band of a fresh plan for the shrunken network -- the
  // concentration pattern degrades gracefully rather than collapsing.
  const Instance inst = test::chain_instance(4, 12);
  const auto plan = solve_idb(inst);
  for (int victim = 0; victim < 4; ++victim) {
    const FailureImpact impact = assess_failure(inst, plan.solution, {victim});
    ASSERT_TRUE(impact.connected) << "victim " << victim;
    const double gap = impact.cost_fixed_deployment / impact.cost_redeployed;
    EXPECT_GE(gap, 0.90) << "victim " << victim;
    EXPECT_LE(gap, 1.50) << "victim " << victim;
  }
}

TEST(RemovePosts, DuplicateIndicesCollapse) {
  // Duplicates in the failure set must behave exactly like the deduplicated
  // set -- the mask representation makes {1, 1, 2} identical to {1, 2}.
  util::Rng rng(1031);
  const Instance inst = test::random_instance(10, 20, 130.0, rng);
  const SubInstance once = remove_posts(inst, {1, 2}, 14);
  const SubInstance twice = remove_posts(inst, {1, 1, 2, 2, 1}, 14);
  EXPECT_EQ(once.instance.num_posts(), twice.instance.num_posts());
  EXPECT_EQ(once.to_original, twice.to_original);
  EXPECT_EQ(once.from_original, twice.from_original);
}

TEST(RemovePosts, NegativeIndexRejected) {
  const Instance inst = test::chain_instance(3, 6);
  EXPECT_THROW(remove_posts(inst, {-1}, 4), std::out_of_range);
  EXPECT_THROW(remove_posts(inst, {0, -2}, 4), std::out_of_range);
}

TEST(AssessFailure, BaseAdjacentFailureOnSparseChain) {
  // A 50 m-spaced chain (max range 75 m): the base-adjacent post is the only
  // gateway, so its loss disconnects every survivor.
  geom::Field field;
  field.base_station = {0.0, 0.0};
  field.width = 300.0;
  field.height = 1.0;
  for (int i = 1; i <= 4; ++i) field.posts.push_back({50.0 * i, 0.0});
  const Instance inst = Instance::geometric(field, test::paper_radio(),
                                            test::paper_charging(), 8);
  const auto plan = solve_idb(inst);
  const FailureImpact impact = assess_failure(inst, plan.solution, {0});
  EXPECT_FALSE(impact.connected);
  EXPECT_TRUE(std::isinf(impact.cost_fixed_deployment));
  EXPECT_EQ(impact.nodes_lost, plan.solution.deployment[0]);
  EXPECT_FALSE(impact.routing_fixed.has_value());
}

TEST(AssessFailure, BaseAdjacentFailureWithAlternativeGateway) {
  // The dense 20 m chain keeps multiple posts within base range: losing the
  // nearest one must re-route the survivors, not disconnect them.
  const Instance inst = test::chain_instance(4, 8);
  const auto plan = solve_idb(inst);
  const FailureImpact impact = assess_failure(inst, plan.solution, {0});
  ASSERT_TRUE(impact.connected);
  ASSERT_TRUE(impact.routing_fixed.has_value());
  const auto& tree = impact.routing_fixed->tree;
  for (int p = 1; p < 4; ++p) EXPECT_NE(tree.parent(p), 0);
}

TEST(AssessFailure, AllButOneSurvivorStillAssessable) {
  const Instance inst = test::chain_instance(4, 8);
  const auto plan = solve_idb(inst);
  // Post 0 (20 m from the base) survives alone: still a network.
  const FailureImpact alone = assess_failure(inst, plan.solution, {1, 2, 3});
  EXPECT_TRUE(alone.connected);
  ASSERT_TRUE(alone.routing_fixed.has_value());
  EXPECT_EQ(alone.routing_fixed->tree.parent(0), inst.graph().base_station());
  EXPECT_GT(alone.cost_fixed_deployment, 0.0);
  // Every post failing is degenerate but must not throw.
  const FailureImpact none = assess_failure(inst, plan.solution, {0, 1, 2, 3});
  EXPECT_FALSE(none.connected);
}

TEST(AssessFailure, InvalidIndicesRejected) {
  const Instance inst = test::chain_instance(3, 6);
  const auto plan = solve_idb(inst);
  EXPECT_THROW(assess_failure(inst, plan.solution, {3}), std::out_of_range);
  EXPECT_THROW(assess_failure(inst, plan.solution, {-1}), std::out_of_range);
}

TEST(AssessFailure, FixedCostMatchesFreshDijkstraOracle) {
  // cost_fixed_deployment must equal an independent shortest-path pricing of
  // the surviving deployment on the induced sub-instance.
  util::Rng rng(1033);
  int assessed = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = test::random_instance(12, 30, 140.0, rng);
    const auto plan = solve_idb(inst);
    const std::vector<int> failed = {rng.uniform_int(0, 5), rng.uniform_int(6, 11)};
    const FailureImpact impact = assess_failure(inst, plan.solution, failed);
    if (!impact.connected) continue;
    int survivor_nodes = 0;
    for (int p = 0; p < 12; ++p) {
      if (p != failed[0] && p != failed[1]) {
        survivor_nodes += plan.solution.deployment[static_cast<std::size_t>(p)];
      }
    }
    const SubInstance sub = remove_posts(inst, failed, survivor_nodes);
    std::vector<int> kept(sub.to_original.size());
    for (std::size_t si = 0; si < sub.to_original.size(); ++si) {
      kept[si] =
          plan.solution.deployment[static_cast<std::size_t>(sub.to_original[si])];
    }
    const double oracle = optimal_cost_for_deployment(sub.instance, kept);
    EXPECT_NEAR(impact.cost_fixed_deployment, oracle, oracle * 1e-9) << "trial " << trial;
    ++assessed;
  }
  EXPECT_GT(assessed, 1);
}

TEST(AssessFailure, GoldenReoptimizedRouting) {
  // Exact outputs recorded while the kept-in-place routing still came from
  // the type-erased weight adapter: the re-optimized tree (FNV-1a over the
  // parent vector on original indices) and both costs must match to the
  // last bit.
  struct Golden {
    int posts;
    std::uint64_t seed;
    std::vector<int> failed;
    std::uint64_t tree_hash;
    double cost_fixed;
    double cost_redeployed;
  };
  const std::vector<Golden> goldens = {
      {20, 9301, {3}, 1585491199351270432ULL, 9.3669642857142858e-05, 8.6995427911931844e-05},
      {60, 9302, {5, 17}, 7842103480500523624ULL, 0.00039549654130591628,
       0.00035741786489335313},
      {150, 9303, {0, 40, 99}, 674801251408847496ULL, 0.0011228510925236511,
       0.00096872928712816195},
  };
  for (const Golden& golden : goldens) {
    util::Rng rng(golden.seed);
    const double side = std::round(500.0 * std::sqrt(golden.posts / 300.0));
    const Instance inst = test::random_instance(golden.posts, 3 * golden.posts, side, rng);
    const auto plan = solve_rfh(inst);
    const FailureImpact impact = assess_failure(inst, plan.solution, golden.failed);
    ASSERT_TRUE(impact.connected) << golden.posts;
    ASSERT_TRUE(impact.routing_fixed.has_value()) << golden.posts;
    EXPECT_EQ(test::parent_hash(impact.routing_fixed->tree), golden.tree_hash) << golden.posts;
    EXPECT_EQ(impact.cost_fixed_deployment, golden.cost_fixed) << golden.posts;
    EXPECT_EQ(impact.cost_redeployed, golden.cost_redeployed) << golden.posts;
  }
}

}  // namespace
}  // namespace wrsn::core
