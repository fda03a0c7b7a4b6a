#include "core/baseline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "helpers.hpp"

namespace wrsn::core {
namespace {

TEST(BalancedDeployment, EvenSplit) {
  EXPECT_EQ(balanced_deployment(4, 8), (std::vector<int>{2, 2, 2, 2}));
  EXPECT_EQ(balanced_deployment(3, 10), (std::vector<int>{4, 3, 3}));
  EXPECT_EQ(balanced_deployment(5, 5), (std::vector<int>{1, 1, 1, 1, 1}));
}

TEST(BalancedDeployment, SumAlwaysMatches) {
  for (int n = 1; n <= 7; ++n) {
    for (int m = n; m <= n + 20; ++m) {
      const auto d = balanced_deployment(n, m);
      EXPECT_EQ(std::accumulate(d.begin(), d.end(), 0), m);
      for (int v : d) EXPECT_GE(v, 1);
    }
  }
}

TEST(BalancedDeployment, RejectsBadArguments) {
  EXPECT_THROW(balanced_deployment(0, 5), std::invalid_argument);
  EXPECT_THROW(balanced_deployment(5, 4), std::invalid_argument);
}

TEST(SolveBaseline, ValidSolution) {
  util::Rng rng(191);
  const Instance inst = test::random_instance(20, 60, 150.0, rng);
  const BaselineResult result = solve_balanced_baseline(inst);
  EXPECT_TRUE(is_valid_solution(inst, result.solution));
  EXPECT_GT(result.cost, 0.0);
}

TEST(SolveBaseline, UsesMinimumEnergyRouting) {
  // Posts at 20/40/60/80 m on a line. Under Eq. (1)'s constants the
  // transceiver term alpha dominates, so relaying (which adds a reception
  // at the relay) loses to a direct higher-level hop whenever one exists:
  //   post 1 (40 m): direct at level 1 (58.1 nJ) < via post 0 (>100 nJ)
  //   post 2 (60 m): direct at level 2 (91.1 nJ) < any relay route
  //   post 3 (80 m): out of direct range; cheapest is via post 1.
  const Instance inst = test::chain_instance(4, 8);
  const BaselineResult result = solve_balanced_baseline(inst);
  const int bs = inst.graph().base_station();
  EXPECT_EQ(result.solution.tree.parent(0), bs);
  EXPECT_EQ(result.solution.tree.parent(1), bs);
  EXPECT_EQ(result.solution.tree.parent(2), bs);
  EXPECT_EQ(result.solution.tree.parent(3), 1);
  EXPECT_EQ(result.solution.deployment, (std::vector<int>{2, 2, 2, 2}));
}

TEST(MinHopBaseline, MinimizesDepth) {
  // Chain at 20 m spacing: min-hop sends everyone as far as range allows.
  // Posts at 20/40/60/80: posts 0..2 reach the base directly (<= 75 m);
  // post 3 needs one relay, and the cheapest single-hop relay is post 1
  // (40 m hop, level 1) rather than post 2 (20 m) plus... any relay gives
  // depth 2; the energy tie-break picks the cheapest.
  const Instance inst = test::chain_instance(4, 8);
  const BaselineResult result = solve_min_hop_baseline(inst);
  const auto depths = result.solution.tree.depths();
  EXPECT_EQ(depths[0], 1);
  EXPECT_EQ(depths[1], 1);
  EXPECT_EQ(depths[2], 1);
  EXPECT_EQ(depths[3], 2);
}

TEST(MinHopBaseline, DepthNeverExceedsEnergySpt) {
  util::Rng rng(197);
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = test::random_instance(25, 50, 200.0, rng);
    const BaselineResult hop = solve_min_hop_baseline(inst);
    const BaselineResult energy = solve_balanced_baseline(inst);
    const auto hop_depths = hop.solution.tree.depths();
    const auto energy_depths = energy.solution.tree.depths();
    for (int p = 0; p < inst.num_posts(); ++p) {
      EXPECT_LE(hop_depths[static_cast<std::size_t>(p)],
                energy_depths[static_cast<std::size_t>(p)])
          << "post " << p << " trial " << trial;
    }
    EXPECT_TRUE(is_valid_solution(inst, hop.solution));
  }
}

TEST(MinHopBaseline, EnergyTieBreakPicksCheaperParent) {
  // Two candidate relays at equal hop depth; the tie-break must choose the
  // one needing less transmit energy.
  geom::Field field;
  field.base_station = {0.0, 0.0};
  field.posts = {{30.0, 0.0}, {0.0, 70.0}, {55.0, 40.0}};
  // Post 2 is 68 m from base (reachable, depth 1). It is also reachable
  // from posts 0 and 1. All depth-1; nothing to re-route.
  const Instance inst =
      Instance::geometric(field, test::paper_radio(), test::paper_charging(), 3);
  const BaselineResult result = solve_min_hop_baseline(inst);
  EXPECT_EQ(result.solution.tree.parent(2), inst.graph().base_station());
}

TEST(SolveBaseline, CostMatchesEvaluator) {
  util::Rng rng(193);
  const Instance inst = test::random_instance(12, 30, 150.0, rng);
  const BaselineResult result = solve_balanced_baseline(inst);
  EXPECT_NEAR(result.cost, total_recharging_cost(inst, result.solution), result.cost * 1e-12);
}

TEST(SolveBaseline, GoldenTreesAndCosts) {
  // Exact outputs recorded while both baselines still priced edges through
  // the type-erased weight adapter: every tree (FNV-1a over the parent
  // vector) and every cost must match to the last bit.  Fields at the
  // paper's N = 300 density; the 1200-post field takes sparse storage.
  struct Golden {
    int posts;
    std::uint64_t seed;
    std::uint64_t min_hop_hash;
    double min_hop_cost;
    std::uint64_t balanced_hash;
    double balanced_cost;
    std::uint64_t energy_only_hash;
    double energy_only_cost;
  };
  const std::vector<Golden> goldens = {
      {30, 9101, 13057510119871074693ULL, 0.00026412500000000009, 13057510119871074693ULL,
       0.00026412500000000009, 3309864061881047933ULL, 0.00026693229166666673},
      {200, 9102, 7074904038689861126ULL, 0.0041795442708333309, 7074904038689861126ULL,
       0.0041795442708333309, 14375681268898129472ULL, 0.0043305455729166714},
      {1200, 9103, 8413881901751450442ULL, 0.06544058333333308, 14177221064838527813ULL,
       0.065435802083333064, 2059563148267974564ULL, 0.068822247395832994},
  };
  for (const Golden& golden : goldens) {
    util::Rng rng(golden.seed);
    const double side = std::round(500.0 * std::sqrt(golden.posts / 300.0));
    const Instance inst = test::random_instance(golden.posts, 3 * golden.posts, side, rng);
    const BaselineResult min_hop = solve_min_hop_baseline(inst);
    const BaselineResult balanced = solve_balanced_baseline(inst);
    const BaselineResult energy_only = solve_balanced_baseline(inst, false);
    EXPECT_EQ(test::parent_hash(min_hop.solution.tree), golden.min_hop_hash) << golden.posts;
    EXPECT_EQ(min_hop.cost, golden.min_hop_cost) << golden.posts;
    EXPECT_EQ(test::parent_hash(balanced.solution.tree), golden.balanced_hash) << golden.posts;
    EXPECT_EQ(balanced.cost, golden.balanced_cost) << golden.posts;
    EXPECT_EQ(test::parent_hash(energy_only.solution.tree), golden.energy_only_hash)
        << golden.posts;
    EXPECT_EQ(energy_only.cost, golden.energy_only_cost) << golden.posts;
  }
}

}  // namespace
}  // namespace wrsn::core
