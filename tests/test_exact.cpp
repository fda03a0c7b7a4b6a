#include "core/exact.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "core/idb.hpp"
#include "core/rfh.hpp"
#include "helpers.hpp"

namespace wrsn::core {
namespace {

TEST(CompositionCount, KnownValues) {
  EXPECT_EQ(composition_count(5, 3), 6u);    // C(4,2)
  EXPECT_EQ(composition_count(10, 1), 1u);
  EXPECT_EQ(composition_count(4, 4), 1u);
  EXPECT_EQ(composition_count(36, 10), 70607460u);  // C(35,9), the paper's Fig 7 size
  EXPECT_EQ(composition_count(3, 5), 0u);    // infeasible
  EXPECT_EQ(composition_count(0, 0), 0u);
}

TEST(CompositionCount, SaturatesInsteadOfOverflowing) {
  EXPECT_EQ(composition_count(1000, 500), std::numeric_limits<std::uint64_t>::max());
}

TEST(SolveExact, ValidAndBudgetRespected) {
  util::Rng rng(139);
  const Instance inst = test::random_instance(5, 12, 100.0, rng);
  const ExactResult result = solve_exact(inst);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(is_valid_solution(inst, result.solution));
  EXPECT_EQ(std::accumulate(result.solution.deployment.begin(),
                            result.solution.deployment.end(), 0),
            12);
}

TEST(SolveExact, BranchAndBoundMatchesExhaustive) {
  // The pruning bound must never cut the optimum.
  util::Rng rng(149);
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = test::random_instance(5, 5 + trial * 2, 100.0, rng);
    ExactOptions exhaustive;
    exhaustive.branch_and_bound = false;
    exhaustive.warm_start = false;
    ExactOptions pruned;
    pruned.branch_and_bound = true;
    const ExactResult full = solve_exact(inst, exhaustive);
    const ExactResult fast = solve_exact(inst, pruned);
    EXPECT_NEAR(full.cost, fast.cost, full.cost * 1e-9) << "trial " << trial;
  }
}

TEST(SolveExact, ExhaustiveEvaluatesEveryComposition) {
  util::Rng rng(151);
  const Instance inst = test::random_instance(4, 9, 100.0, rng);
  ExactOptions options;
  options.branch_and_bound = false;
  options.warm_start = false;
  const ExactResult result = solve_exact(inst, options);
  EXPECT_EQ(result.evaluations, composition_count(9, 4));
}

TEST(SolveExact, PruningReducesEvaluations) {
  util::Rng rng(157);
  const Instance inst = test::random_instance(6, 16, 120.0, rng);
  ExactOptions exhaustive;
  exhaustive.branch_and_bound = false;
  exhaustive.warm_start = false;
  const ExactResult full = solve_exact(inst, exhaustive);
  const ExactResult fast = solve_exact(inst, ExactOptions{});
  EXPECT_LT(fast.evaluations, full.evaluations);
  EXPECT_GT(fast.pruned, 0u);
}

TEST(SolveExact, NeverWorseThanHeuristics) {
  util::Rng rng(163);
  for (int trial = 0; trial < 4; ++trial) {
    const Instance inst = test::random_instance(5, 11, 100.0, rng);
    const double exact_cost = solve_exact(inst).cost;
    EXPECT_LE(exact_cost, solve_idb(inst).cost * (1.0 + 1e-9));
    EXPECT_LE(exact_cost, solve_rfh(inst).cost * (1.0 + 1e-9));
  }
}

TEST(SolveExact, MaxPerPostCapRespected) {
  util::Rng rng(167);
  const Instance inst = test::random_instance(5, 9, 100.0, rng);
  ExactOptions options;
  options.max_per_post = 2;
  const ExactResult result = solve_exact(inst, options);
  EXPECT_TRUE(is_valid_solution(inst, result.solution));
  for (int m : result.solution.deployment) EXPECT_LE(m, 2);
}

TEST(SolveExact, CapTooTightThrows) {
  util::Rng rng(173);
  const Instance inst = test::random_instance(4, 10, 100.0, rng);
  ExactOptions options;
  options.max_per_post = 2;  // 4 posts * 2 < 10 nodes
  EXPECT_THROW(solve_exact(inst, options), InfeasibleInstance);
}

TEST(SolveExact, CappedOptimumAtLeastUncapped) {
  util::Rng rng(179);
  const Instance inst = test::random_instance(5, 10, 100.0, rng);
  const double uncapped = solve_exact(inst).cost;
  ExactOptions options;
  options.max_per_post = 2;
  const double capped = solve_exact(inst, options).cost;
  EXPECT_GE(capped, uncapped - uncapped * 1e-12);
}

TEST(SolveExact, EvaluationBudgetStopsSearch) {
  util::Rng rng(181);
  const Instance inst = test::random_instance(6, 18, 120.0, rng);
  ExactOptions options;
  options.branch_and_bound = false;
  options.warm_start = true;
  options.max_evaluations = 10;
  const ExactResult result = solve_exact(inst, options);
  EXPECT_FALSE(result.complete);
  EXPECT_LE(result.evaluations, 10u);
  // Warm start guarantees a usable (if suboptimal) solution.
  EXPECT_TRUE(is_valid_solution(inst, result.solution));
}

TEST(RelaxationBound, LowerBoundsEverySolver) {
  util::Rng rng(187);
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = test::random_instance(6, 6 + trial * 3, 110.0, rng);
    const double bound = deployment_relaxation_bound(inst);
    EXPECT_LE(bound, solve_exact(inst).cost * (1.0 + 1e-9)) << "trial " << trial;
    EXPECT_LE(bound, solve_idb(inst).cost * (1.0 + 1e-9));
    EXPECT_LE(bound, solve_rfh(inst).cost * (1.0 + 1e-9));
  }
}

TEST(RelaxationBound, TightWhenSinglePost) {
  // With one post the "generous" allocation IS the real deployment.
  const Instance inst = test::chain_instance(1, 4);
  EXPECT_NEAR(deployment_relaxation_bound(inst), solve_exact(inst).cost, 1e-18);
}

TEST(SolveExact, SinglePostTrivial) {
  const Instance inst = test::chain_instance(1, 4);
  const ExactResult result = solve_exact(inst);
  EXPECT_EQ(result.solution.deployment, (std::vector<int>{4}));
  const double expected = inst.radio().tx_energy(0) / (4.0 * inst.charging().eta());
  EXPECT_NEAR(result.cost, expected, expected * 1e-12);
}

TEST(SolveExact, TwoPostChainHandCheck) {
  // Posts at 20 m and 40 m on a line, M = 3: the optimum is computable by
  // hand over the 2 compositions x 2 routings.
  const Instance inst = test::chain_instance(2, 3);
  const ExactResult result = solve_exact(inst);
  const double eta = inst.charging().eta();
  const double e0 = inst.radio().tx_energy(0);
  const double e1 = inst.radio().tx_energy(1);
  const double er = inst.rx_energy();

  double best = std::numeric_limits<double>::infinity();
  for (const auto& [m0, m1] : std::vector<std::pair<int, int>>{{2, 1}, {1, 2}}) {
    // routing A: chain 1 -> 0 -> bs.
    const double chain_cost = (2.0 * e0 + er) / (m0 * eta) + e0 / (m1 * eta);
    // routing B: both direct (post 1 needs level 1 for 40 m).
    const double star_cost = e0 / (m0 * eta) + e1 / (m1 * eta);
    best = std::min({best, chain_cost, star_cost});
  }
  EXPECT_NEAR(result.cost, best, best * 1e-12);
}

TEST(SolveExact, GoldenFinalTrees) {
  // Exact outputs recorded while the final routing still came from the
  // type-erased weight adapter: the tree (FNV-1a over the parent vector),
  // the deployment and the cost must match to the last bit.
  struct Golden {
    int posts;
    int nodes;
    std::uint64_t seed;
    std::uint64_t tree_hash;
    std::vector<int> deployment;
    double cost;
  };
  const std::vector<Golden> goldens = {
      {6, 15, 9401, 14617065406404462159ULL, {3, 4, 3, 2, 1, 2}, 4.0311197916666672e-05},
      {8, 18, 9402, 10151806068204692474ULL, {2, 2, 2, 3, 1, 1, 6, 1},
       5.2898437499999994e-05},
      {10, 20, 9403, 16990682149594052750ULL, {1, 1, 5, 2, 2, 1, 1, 4, 2, 1},
       7.4058203125000003e-05},
  };
  for (const Golden& golden : goldens) {
    util::Rng rng(golden.seed);
    const Instance inst = test::random_instance(golden.posts, golden.nodes, 130.0, rng);
    const ExactResult result = solve_exact(inst);
    ASSERT_TRUE(result.complete) << golden.posts;
    EXPECT_EQ(test::parent_hash(result.solution.tree), golden.tree_hash) << golden.posts;
    EXPECT_EQ(result.solution.deployment, golden.deployment) << golden.posts;
    EXPECT_EQ(result.cost, golden.cost) << golden.posts;
  }
}

}  // namespace
}  // namespace wrsn::core
