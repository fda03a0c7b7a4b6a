#include "core/idb.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "core/rfh.hpp"
#include "helpers.hpp"

namespace wrsn::core {
namespace {

// ------------------------------------------------------ multiset enumeration

TEST(ForEachMultiset, CountMatchesStarsAndBars) {
  // C(n + delta - 1, delta) combinations.
  struct Case {
    int n;
    int delta;
    int expected;
  };
  for (const Case c : {Case{3, 1, 3}, Case{3, 2, 6}, Case{4, 3, 20}, Case{1, 5, 1},
                       Case{5, 0, 1}}) {
    int count = 0;
    idb_detail::for_each_multiset(c.n, c.delta,
                                  [&](const std::vector<int>&) { ++count; });
    EXPECT_EQ(count, c.expected) << "n=" << c.n << " delta=" << c.delta;
  }
}

TEST(ForEachMultiset, EachVisitSumsToDelta) {
  idb_detail::for_each_multiset(4, 3, [&](const std::vector<int>& counts) {
    EXPECT_EQ(static_cast<int>(counts.size()), 4);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 3);
    for (int c : counts) EXPECT_GE(c, 0);
  });
}

TEST(ForEachMultiset, VisitsAreDistinct) {
  std::set<std::vector<int>> seen;
  idb_detail::for_each_multiset(3, 4, [&](const std::vector<int>& counts) {
    EXPECT_TRUE(seen.insert(counts).second) << "duplicate multiset";
  });
  EXPECT_EQ(seen.size(), 15u);  // C(6, 4)
}

TEST(ForEachMultiset, RejectsBadArguments) {
  EXPECT_THROW(idb_detail::for_each_multiset(0, 1, [](const std::vector<int>&) {}),
               std::invalid_argument);
  EXPECT_THROW(idb_detail::for_each_multiset(2, -1, [](const std::vector<int>&) {}),
               std::invalid_argument);
}

// ------------------------------------------------------------------ solver

TEST(SolveIdb, ProducesValidSolution) {
  util::Rng rng(101);
  const Instance inst = test::random_instance(15, 40, 150.0, rng);
  const IdbResult result = solve_idb(inst);
  EXPECT_TRUE(is_valid_solution(inst, result.solution));
  EXPECT_EQ(result.rounds, 25);
  EXPECT_EQ(result.evaluations, 25u * 15u);
  EXPECT_GT(result.cost, 0.0);
}

TEST(SolveIdb, ExactBudgetNoRounds) {
  util::Rng rng(103);
  const Instance inst = test::random_instance(10, 10, 120.0, rng);
  const IdbResult result = solve_idb(inst);
  EXPECT_EQ(result.rounds, 0);
  for (int m : result.solution.deployment) EXPECT_EQ(m, 1);
  EXPECT_TRUE(is_valid_solution(inst, result.solution));
}

TEST(SolveIdb, DeltaBatchingCoversBudget) {
  util::Rng rng(107);
  const Instance inst = test::random_instance(8, 19, 120.0, rng);
  // 11 spare nodes with delta = 4 -> rounds of 4,4,3.
  const IdbResult result = solve_idb(inst, IdbOptions{4, false});
  EXPECT_EQ(result.rounds, 3);
  EXPECT_EQ(std::accumulate(result.solution.deployment.begin(),
                            result.solution.deployment.end(), 0),
            19);
  EXPECT_TRUE(is_valid_solution(inst, result.solution));
}

TEST(SolveIdb, RejectsBadDelta) {
  util::Rng rng(109);
  const Instance inst = test::random_instance(5, 8, 100.0, rng);
  EXPECT_THROW(solve_idb(inst, IdbOptions{0, false}), std::invalid_argument);
}

TEST(SolveIdb, HistoryIsMonotoneNonIncreasing) {
  // Adding a node can only lower the optimal-routing cost, and IDB picks
  // the best placement each round, so the committed cost must decrease.
  util::Rng rng(113);
  const Instance inst = test::random_instance(12, 36, 150.0, rng);
  const IdbResult result = solve_idb(inst, IdbOptions{1, true});
  ASSERT_EQ(result.per_iteration_cost.size(), 24u);
  for (std::size_t i = 1; i < result.per_iteration_cost.size(); ++i) {
    EXPECT_LE(result.per_iteration_cost[i], result.per_iteration_cost[i - 1] * (1.0 + 1e-12));
  }
  EXPECT_NEAR(result.cost, result.per_iteration_cost.back(), result.cost * 1e-9);
}

TEST(SolveIdb, DeterministicForSameInstance) {
  util::Rng rng_a(127);
  util::Rng rng_b(127);
  const Instance a = test::random_instance(12, 30, 150.0, rng_a);
  const Instance b = test::random_instance(12, 30, 150.0, rng_b);
  EXPECT_EQ(solve_idb(a).solution.deployment, solve_idb(b).solution.deployment);
}

TEST(SolveIdb, Delta1NotWorseThanBigDeltaOnAverage) {
  // delta = 1 evaluates more fine-grained placements; over several fields
  // it should be at least as good as delta = 4 in total.
  util::Rng rng(131);
  double d1_total = 0.0;
  double d4_total = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = test::random_instance(10, 26, 120.0, rng);
    d1_total += solve_idb(inst, IdbOptions{1, false}).cost;
    d4_total += solve_idb(inst, IdbOptions{4, false}).cost;
  }
  EXPECT_LE(d1_total, d4_total * 1.02);
}

TEST(SolveIdb, CompetitiveWithRfh) {
  // Section VI-D: IDB (delta=1) leads RFH by a margin. Averaged over random
  // fields, IDB must not lose.
  util::Rng rng(137);
  double idb_total = 0.0;
  double rfh_total = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = test::random_instance(15, 45, 150.0, rng);
    idb_total += solve_idb(inst).cost;
    rfh_total += solve_rfh(inst).cost;
  }
  EXPECT_LE(idb_total, rfh_total * 1.01);
}

TEST(SolveIdb, SinglePostGetsEverything) {
  const Instance inst = test::chain_instance(1, 5);
  const IdbResult result = solve_idb(inst);
  EXPECT_EQ(result.solution.deployment, (std::vector<int>{5}));
}

TEST(SolveIdb, GoldenDeploymentsAndCosts) {
  // IDB outputs recorded while the pricer (delta = 1) and the multiset
  // sweep's Dijkstra scratch (delta = 2) still bump-allocated from a
  // solve-scoped arena: the deployment and the tree (FNV-1a over the
  // parent vector) and the cost must match to the last bit.
  struct Golden {
    int posts;
    int nodes;
    double side;
    int delta;
    bool sub_linear;
    std::uint64_t seed;
    std::uint64_t deployment_hash;
    std::uint64_t tree_hash;
    double cost;
  };
  const std::vector<Golden> goldens = {
      {50, 150, 300.0, 1, false, 9601, 14435986931714129365ULL, 12217972960889122238ULL,
       0.000473306583748283},
      {50, 150, 300.0, 1, true, 9602, 8524733008712572869ULL, 9922613924685298035ULL,
       0.00056676457854327328},
      {150, 450, 420.0, 1, false, 9603, 1614047094900681847ULL, 16395021606411656583ULL,
       0.0013531853001055103},
      {150, 450, 420.0, 1, true, 9604, 3375170535922285503ULL, 706876685676685566ULL,
       0.0019871603499054822},
      {300, 900, 520.0, 1, false, 9605, 6829295280858298159ULL, 11078613902718471326ULL,
       0.0025634838010170167},
      {300, 900, 520.0, 1, true, 9606, 2310203101412803587ULL, 3805701953348133562ULL,
       0.0036227842599921038},
      // delta = 2 with an odd spare count, so the last round places one node.
      {50, 75, 300.0, 2, false, 9607, 7382405856172434352ULL, 4400964096083321717ULL,
       0.0010379854817708328},
      {50, 75, 300.0, 2, true, 9608, 1755504873062818468ULL, 8317722545275105937ULL,
       0.00096919901492670767},
      {150, 153, 420.0, 2, false, 9609, 4707872600644509472ULL, 11918730785758352918ULL,
       0.0085552070312499961},
      {150, 153, 420.0, 2, true, 9610, 2111088661724034722ULL, 14113928473388705401ULL,
       0.0095817130584618417},
      {300, 302, 520.0, 2, false, 9611, 14504419308819687663ULL, 14526334666551867681ULL,
       0.02204945703125006},
      {300, 302, 520.0, 2, true, 9612, 594984090792622923ULL, 12735116580688893565ULL,
       0.022103841793827777},
  };
  for (const Golden& golden : goldens) {
    util::Rng rng(golden.seed);
    const energy::ChargingModel charging = golden.sub_linear
                                               ? energy::ChargingModel::sub_linear(0.01, 0.8)
                                               : energy::ChargingModel::linear(0.01);
    const Instance inst =
        test::random_instance(golden.posts, golden.nodes, golden.side, rng, charging);
    const IdbResult result = solve_idb(inst, IdbOptions{golden.delta, false});
    EXPECT_EQ(test::fnv1a(result.solution.deployment), golden.deployment_hash)
        << "seed " << golden.seed;
    EXPECT_EQ(test::parent_hash(result.solution.tree), golden.tree_hash) << "seed " << golden.seed;
    EXPECT_EQ(result.cost, golden.cost) << "seed " << golden.seed;
  }
}

}  // namespace
}  // namespace wrsn::core
