#include "core/allocation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/rng.hpp"

namespace wrsn::core {
namespace {

TEST(FractionalAllocation, ProportionalToSqrt) {
  // Weights 1 and 4: shares proportional to 1 and 2.
  const auto shares = fractional_allocation(std::vector<double>{1.0, 4.0}, 9.0);
  EXPECT_NEAR(shares[0], 3.0, 1e-12);
  EXPECT_NEAR(shares[1], 6.0, 1e-12);
}

TEST(FractionalAllocation, SumsToBudget) {
  const std::vector<double> weights{0.5, 2.0, 7.25, 0.0, 3.0};
  const auto shares = fractional_allocation(weights, 42.0);
  EXPECT_NEAR(std::accumulate(shares.begin(), shares.end(), 0.0), 42.0, 1e-9);
}

TEST(FractionalAllocation, AllZeroWeightsSplitEvenly) {
  const auto shares = fractional_allocation(std::vector<double>{0.0, 0.0, 0.0}, 6.0);
  for (double s : shares) EXPECT_DOUBLE_EQ(s, 2.0);
}

TEST(FractionalAllocation, RejectsNegativeWeightsAndEmpty) {
  EXPECT_THROW(fractional_allocation(std::vector<double>{-1.0}, 5.0), std::invalid_argument);
  EXPECT_THROW(fractional_allocation(std::vector<double>{}, 5.0), std::invalid_argument);
}

TEST(FractionalAllocation, IsTheUnconstrainedOptimum) {
  // Perturbing the closed-form solution must not improve sum w_i/m_i.
  const std::vector<double> weights{1.0, 2.0, 5.0};
  const auto shares = fractional_allocation(weights, 10.0);
  auto objective = [&](const std::vector<double>& m) {
    double total = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) total += weights[i] / m[i];
    return total;
  };
  const double optimal = objective(shares);
  for (double delta : {0.05, -0.05, 0.2, -0.2}) {
    auto perturbed = shares;
    perturbed[0] += delta;
    perturbed[2] -= delta;  // keep the budget
    if (perturbed[0] <= 0.0 || perturbed[2] <= 0.0) continue;
    EXPECT_GE(objective(perturbed), optimal - 1e-12);
  }
}

TEST(LagrangeAllocate, ExactBudgetAndLowerBound) {
  const std::vector<double> weights{3.0, 1.0, 0.2, 8.0};
  const auto alloc = lagrange_allocate(weights, 17);
  EXPECT_EQ(std::accumulate(alloc.begin(), alloc.end(), 0), 17);
  for (int m : alloc) EXPECT_GE(m, 1);
}

TEST(LagrangeAllocate, MinimumBudgetGivesOneEach) {
  const std::vector<double> weights{5.0, 1.0, 2.0};
  const auto alloc = lagrange_allocate(weights, 3);
  EXPECT_EQ(alloc, (std::vector<int>{1, 1, 1}));
}

TEST(LagrangeAllocate, HeavierPostsGetMoreNodes) {
  const std::vector<double> weights{1.0, 100.0, 1.0};
  const auto alloc = lagrange_allocate(weights, 12);
  EXPECT_GT(alloc[1], alloc[0]);
  EXPECT_GT(alloc[1], alloc[2]);
}

TEST(LagrangeAllocate, ZeroWeightPostStillGetsOne) {
  const std::vector<double> weights{0.0, 10.0};
  const auto alloc = lagrange_allocate(weights, 5);
  EXPECT_EQ(alloc[0], 1);
  EXPECT_EQ(alloc[1], 4);
}

TEST(LagrangeAllocate, RejectsInsufficientBudget) {
  EXPECT_THROW(lagrange_allocate(std::vector<double>{1.0, 1.0}, 1), std::invalid_argument);
}

TEST(LagrangeAllocate, SymmetricWeightsSplitEvenly) {
  const std::vector<double> weights{2.0, 2.0, 2.0, 2.0};
  const auto alloc = lagrange_allocate(weights, 12);
  EXPECT_EQ(alloc, (std::vector<int>{3, 3, 3, 3}));
}

TEST(LagrangeAllocate, GoldenAllocations) {
  // Exact allocations recorded before the single-sqrt, allocation-free
  // rounding loop: every share and so every rounded count must match.
  // Covers zero weights, the all-zero split, exact ties and long vectors
  // (pinned by an FNV-1a hash over the counts).
  EXPECT_EQ(lagrange_allocate(std::vector<double>{3.0, 1.0, 0.2, 8.0}, 17),
            (std::vector<int>{5, 3, 1, 8}));
  EXPECT_EQ(lagrange_allocate(std::vector<double>{0.0, 2.5, 0.0, 7.0, 1e-3, 0.0, 4.0}, 20),
            (std::vector<int>{1, 4, 1, 7, 1, 1, 5}));
  EXPECT_EQ(lagrange_allocate(std::vector<double>{0.0, 0.0, 0.0, 0.0, 0.0}, 13),
            (std::vector<int>{3, 3, 2, 3, 2}));
  EXPECT_EQ(lagrange_allocate(std::vector<double>{2.0, 0.0, 2.0, 2.0, 0.0, 2.0, 2.0}, 23),
            (std::vector<int>{4, 1, 4, 4, 1, 5, 4}));

  const auto hash = [](const std::vector<int>& counts) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const int m : counts) {
      h ^= static_cast<std::uint32_t>(m);
      h *= 0x100000001b3ULL;
    }
    return h;
  };
  struct Golden {
    int n;
    int budget;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  // Weights mix zeros, small-integer ties (the Bits workload) and spread
  // reals (the Energy workload).
  const std::vector<Golden> goldens = {
      {50, 173, 11, 5048106177146876354ULL},
      {300, 900, 12, 5638572272002791279ULL},
      {2000, 6000, 13, 12905032270361583001ULL},
  };
  for (const Golden& golden : goldens) {
    util::Rng rng(golden.seed);
    std::vector<double> weights;
    for (int i = 0; i < golden.n; ++i) {
      const int kind = rng.uniform_int(0, 9);
      weights.push_back(kind == 0   ? 0.0
                        : kind < 5 ? static_cast<double>(rng.uniform_int(1, 6))
                                   : rng.uniform(1e-7, 3e-5));
    }
    const std::vector<int> alloc = lagrange_allocate(weights, golden.budget);
    EXPECT_EQ(std::accumulate(alloc.begin(), alloc.end(), 0), golden.budget);
    EXPECT_EQ(hash(alloc), golden.hash) << golden.n << " posts";
  }
}

TEST(LagrangeAllocate, MatchesPerRoundRelaxationOracle) {
  // The paper's rounding read literally: re-solve fractional_allocation()
  // over the open posts every round.  lagrange_allocate must reproduce it
  // exactly, ties and zero weights included.
  const auto oracle = [](const std::vector<double>& weights, int total) {
    std::vector<int> result(weights.size(), 0);
    std::vector<std::size_t> open(weights.size());
    std::iota(open.begin(), open.end(), std::size_t{0});
    int remaining = total;
    while (!open.empty()) {
      std::vector<double> open_weights;
      for (const std::size_t i : open) open_weights.push_back(weights[i]);
      const std::vector<double> shares =
          fractional_allocation(open_weights, static_cast<double>(remaining));
      const std::size_t k = static_cast<std::size_t>(
          std::min_element(shares.begin(), shares.end()) - shares.begin());
      const int assigned = std::clamp(static_cast<int>(std::llround(shares[k])), 1,
                                      remaining - static_cast<int>(open.size()) + 1);
      result[open[k]] = assigned;
      remaining -= assigned;
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
    }
    return result;
  };
  util::Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = rng.uniform_int(1, 60);
    std::vector<double> weights;
    for (int i = 0; i < n; ++i) {
      const int kind = rng.uniform_int(0, 3);
      weights.push_back(kind == 0   ? 0.0
                        : kind == 1 ? static_cast<double>(rng.uniform_int(1, 3))
                                    : rng.uniform(0.0, 5.0));
    }
    const int total = n + rng.uniform_int(0, 4 * n);
    ASSERT_EQ(lagrange_allocate(weights, total), oracle(weights, total)) << "trial " << trial;
  }
}

TEST(AllocationObjective, MatchesManual) {
  const std::vector<double> weights{4.0, 9.0};
  const std::vector<int> alloc{2, 3};
  EXPECT_DOUBLE_EQ(allocation_objective(weights, alloc), 2.0 + 3.0);
  EXPECT_THROW(allocation_objective(weights, std::vector<int>{2}), std::invalid_argument);
  EXPECT_THROW(allocation_objective(weights, std::vector<int>{0, 5}), std::invalid_argument);
}

TEST(GreedyAllocate, MatchesBruteForceSmall) {
  // The separable-convex greedy is optimal: verify against enumeration.
  const std::vector<double> weights{3.0, 1.0, 7.0};
  const int total = 8;
  const auto greedy = greedy_allocate(weights, total);
  double best = 1e300;
  for (int a = 1; a <= total - 2; ++a) {
    for (int b = 1; a + b <= total - 1; ++b) {
      const int c = total - a - b;
      const std::vector<int> candidate{a, b, c};
      best = std::min(best, allocation_objective(weights, candidate));
    }
  }
  EXPECT_NEAR(allocation_objective(weights, greedy), best, 1e-12);
}

TEST(GreedyAllocate, BudgetRespected) {
  util::Rng rng(5);
  std::vector<double> weights;
  for (int i = 0; i < 40; ++i) weights.push_back(rng.uniform(0.0, 10.0));
  const auto alloc = greedy_allocate(weights, 173);
  EXPECT_EQ(std::accumulate(alloc.begin(), alloc.end(), 0), 173);
  for (int m : alloc) EXPECT_GE(m, 1);
}

TEST(LagrangeVsGreedy, PaperRoundingIsNearOptimal) {
  // The paper's rounding is a heuristic; it should track the exact integer
  // optimum closely on random workloads.
  util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> weights;
    const int n = rng.uniform_int(3, 12);
    for (int i = 0; i < n; ++i) weights.push_back(rng.uniform(0.1, 20.0));
    const int total = n + rng.uniform_int(0, 3 * n);
    const auto paper = lagrange_allocate(weights, total);
    const auto optimal = greedy_allocate(weights, total);
    const double paper_cost = allocation_objective(weights, paper);
    const double optimal_cost = allocation_objective(weights, optimal);
    EXPECT_GE(paper_cost, optimal_cost - 1e-12);
    EXPECT_LE(paper_cost, optimal_cost * 1.10)
        << "paper rounding more than 10% off at trial " << trial;
  }
}

// Property sweep: budgets and sizes.
class AllocationSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AllocationSweep, InvariantsHold) {
  const auto [n, extra] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n * 1000 + extra));
  std::vector<double> weights;
  for (int i = 0; i < n; ++i) weights.push_back(rng.uniform(0.0, 5.0));
  const int total = n + extra;
  const auto alloc = lagrange_allocate(weights, total);
  EXPECT_EQ(static_cast<int>(alloc.size()), n);
  EXPECT_EQ(std::accumulate(alloc.begin(), alloc.end(), 0), total);
  for (int m : alloc) EXPECT_GE(m, 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AllocationSweep,
                         ::testing::Combine(::testing::Values(1, 2, 5, 17, 64),
                                            ::testing::Values(0, 1, 7, 100)));

}  // namespace
}  // namespace wrsn::core
