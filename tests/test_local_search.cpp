#include "core/local_search.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/baseline.hpp"
#include "core/exact.hpp"
#include "core/idb.hpp"
#include "core/rfh.hpp"
#include "helpers.hpp"
#include "obs/sink.hpp"
#include "util/thread_pool.hpp"

namespace wrsn::core {
namespace {

TEST(LocalSearch, RequiresValidStart) {
  const Instance inst = test::chain_instance(3, 6);
  Solution bad{graph::RoutingTree(3, 3), {2, 2, 2}};  // tree incomplete
  EXPECT_THROW(refine_solution(inst, bad), std::invalid_argument);
}

TEST(LocalSearch, RejectsBadOptions) {
  const Instance inst = test::chain_instance(2, 4);
  const auto start = solve_balanced_baseline(inst).solution;
  LocalSearchOptions options;
  options.max_passes = 0;
  EXPECT_THROW(refine_solution(inst, start, options), std::invalid_argument);
}

TEST(LocalSearch, NeverWorsensAndConservesBudget) {
  util::Rng rng(401);
  for (int trial = 0; trial < 6; ++trial) {
    const Instance inst = test::random_instance(10, 25, 130.0, rng);
    const auto start = solve_balanced_baseline(inst).solution;
    const LocalSearchResult result = refine_solution(inst, start);
    EXPECT_TRUE(is_valid_solution(inst, result.solution));
    EXPECT_LE(result.cost, result.initial_cost * (1.0 + 1e-12));
    EXPECT_EQ(std::accumulate(result.solution.deployment.begin(),
                              result.solution.deployment.end(), 0),
              inst.num_nodes());
  }
}

TEST(LocalSearch, ImprovesNaiveBaselineSubstantially) {
  // An even deployment is far from the workload-proportional optimum; the
  // move neighborhood must recover most of the gap.
  util::Rng rng(409);
  const Instance inst = test::random_instance(12, 48, 150.0, rng);
  const auto start = solve_balanced_baseline(inst);
  const LocalSearchResult result = refine_solution(inst, start.solution);
  EXPECT_LT(result.cost, start.cost * 0.95);
  EXPECT_GT(result.moves_applied, 0);
}

TEST(LocalSearch, ReachesExactOptimumOnSmallInstances) {
  // On small instances the move neighborhood usually walks all the way to
  // the global optimum from the IDB start.
  util::Rng rng(419);
  int optimal_hits = 0;
  const int trials = 5;
  for (int trial = 0; trial < trials; ++trial) {
    const Instance inst = test::random_instance(5, 11, 100.0, rng);
    const double optimum = solve_exact(inst).cost;
    const auto start = solve_idb(inst).solution;
    const LocalSearchResult result = refine_solution(inst, start);
    EXPECT_GE(result.cost, optimum * (1.0 - 1e-9));
    if (result.cost <= optimum * (1.0 + 1e-9)) ++optimal_hits;
  }
  EXPECT_GE(optimal_hits, trials - 1);
}

TEST(LocalSearch, FixedPointOfItself) {
  util::Rng rng(421);
  const Instance inst = test::random_instance(8, 20, 120.0, rng);
  const auto first = refine_solution(inst, solve_rfh(inst).solution);
  const auto second = refine_solution(inst, first.solution);
  EXPECT_NEAR(second.cost, first.cost, first.cost * 1e-12);
  EXPECT_EQ(second.moves_applied, 0);
}

TEST(LocalSearch, TightBudgetIsNoOp) {
  util::Rng rng(431);
  const Instance inst = test::random_instance(6, 6, 100.0, rng);
  const auto start = solve_balanced_baseline(inst).solution;
  const LocalSearchResult result = refine_solution(inst, start);
  EXPECT_EQ(result.moves_applied, 0);
  for (int m : result.solution.deployment) EXPECT_EQ(m, 1);
}

TEST(LocalSearch, RfhPlusRefinementApproachesIdb) {
  // RFH is fast but ~5% behind IDB; refinement should close most of that
  // gap at a fraction of IDB's price.
  util::Rng rng(433);
  double rfh_total = 0.0;
  double refined_total = 0.0;
  double idb_total = 0.0;
  for (int trial = 0; trial < 4; ++trial) {
    const Instance inst = test::random_instance(12, 36, 150.0, rng);
    const auto rfh = solve_rfh(inst);
    rfh_total += rfh.cost;
    refined_total += refine_solution(inst, rfh.solution).cost;
    idb_total += solve_idb(inst).cost;
  }
  EXPECT_LE(refined_total, rfh_total);
  EXPECT_LE(refined_total, idb_total * 1.03);
}

TEST(LocalSearch, RejectsNegativeThreads) {
  const Instance inst = test::chain_instance(2, 4);
  const auto start = solve_balanced_baseline(inst).solution;
  LocalSearchOptions options;
  options.threads = -1;
  EXPECT_THROW(refine_solution(inst, start, options), std::invalid_argument);
}

TEST(LocalSearch, ThreadsZeroResolvesToHardware) {
  const Instance inst = test::chain_instance(3, 9);
  const auto start = solve_balanced_baseline(inst).solution;
  LocalSearchOptions options;
  options.threads = 0;
  const auto result = refine_solution(inst, start, options);
  EXPECT_EQ(result.threads_used, util::ThreadPool::hardware_threads());
}

TEST(LocalSearch, SerialRunsNeverWasteEvaluations) {
  util::Rng rng(9001);
  const Instance inst = test::random_instance(10, 30, 140.0, rng);
  const auto result = refine_solution(inst, solve_rfh(inst).solution);
  EXPECT_EQ(result.threads_used, 1);
  EXPECT_EQ(result.wasted_evaluations, 0u);
}

TEST(LocalSearch, ParallelMatchesSerialBitForBit) {
  // The speculative parallel scan must reproduce the serial run exactly:
  // same deployment, same cost to the last bit, same logical evaluation and
  // move counts.  Only wasted speculation may differ.
  for (std::uint64_t seed : {9001u, 9002u, 9003u}) {
    util::Rng rng(seed);
    const Instance inst = test::random_instance(10, 30, 140.0, rng);
    const Solution start = solve_rfh(inst).solution;

    LocalSearchOptions serial;
    serial.threads = 1;
    const auto base = refine_solution(inst, start, serial);

    for (int threads : {2, 3, 8}) {
      LocalSearchOptions parallel;
      parallel.threads = threads;
      const auto result = refine_solution(inst, start, parallel);
      EXPECT_EQ(result.solution.deployment, base.solution.deployment)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(result.cost, base.cost) << "seed " << seed << " threads " << threads;
      EXPECT_EQ(result.evaluations, base.evaluations)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(result.moves_applied, base.moves_applied);
      EXPECT_EQ(result.passes, base.passes);
      EXPECT_EQ(result.threads_used, threads);
      for (int p = 0; p < inst.num_posts(); ++p) {
        EXPECT_EQ(result.solution.tree.parent(p), base.solution.tree.parent(p));
      }
    }
  }
}

TEST(LocalSearch, ParallelEmitsIdenticalMoveEventStream) {
  // Sink callbacks fire from the calling thread in serial scan order, so the
  // observable event stream is independent of the thread count too.
  util::Rng rng(9002);
  const Instance inst = test::random_instance(10, 30, 140.0, rng);
  const Solution start = solve_rfh(inst).solution;

  obs::RecordingSink serial_sink;
  LocalSearchOptions serial;
  serial.threads = 1;
  serial.sink = &serial_sink;
  refine_solution(inst, start, serial);

  obs::RecordingSink parallel_sink;
  LocalSearchOptions parallel;
  parallel.threads = 4;
  parallel.sink = &parallel_sink;
  refine_solution(inst, start, parallel);

  ASSERT_EQ(parallel_sink.local_search_moves.size(), serial_sink.local_search_moves.size());
  for (std::size_t i = 0; i < serial_sink.local_search_moves.size(); ++i) {
    const auto& a = serial_sink.local_search_moves[i];
    const auto& b = parallel_sink.local_search_moves[i];
    EXPECT_EQ(a.pass, b.pass) << "event " << i;
    EXPECT_EQ(a.from_post, b.from_post) << "event " << i;
    EXPECT_EQ(a.to_post, b.to_post) << "event " << i;
    EXPECT_EQ(a.old_cost, b.old_cost) << "event " << i;
    EXPECT_EQ(a.new_cost, b.new_cost) << "event " << i;
    EXPECT_EQ(a.accepted, b.accepted) << "event " << i;
  }
  ASSERT_EQ(parallel_sink.local_search_passes.size(), serial_sink.local_search_passes.size());
  ASSERT_EQ(serial_sink.local_search_runs.size(), 1u);
  ASSERT_EQ(parallel_sink.local_search_runs.size(), 1u);
  EXPECT_EQ(serial_sink.local_search_runs[0].threads, 1);
  EXPECT_EQ(parallel_sink.local_search_runs[0].threads, 4);
  EXPECT_EQ(parallel_sink.local_search_runs[0].evaluations,
            serial_sink.local_search_runs[0].evaluations);
  EXPECT_EQ(serial_sink.local_search_runs[0].wasted_evaluations, 0u);
}

TEST(LocalSearch, BestImprovementReachesComparableCost) {
  // Best-improvement walks a different trajectory but must land within tie
  // tolerance of (or below) the first-improvement local optimum's quality
  // class: never worse than the start, valid, and within a few percent of
  // the serial result on these small instances.
  for (std::uint64_t seed : {9001u, 9002u, 9003u}) {
    util::Rng rng(seed);
    const Instance inst = test::random_instance(10, 30, 140.0, rng);
    const Solution start = solve_rfh(inst).solution;

    const auto first = refine_solution(inst, start);

    LocalSearchOptions best_options;
    best_options.strategy = LocalSearchStrategy::kBestImprovement;
    best_options.threads = 2;
    const auto best = refine_solution(inst, start, best_options);
    EXPECT_TRUE(is_valid_solution(inst, best.solution));
    EXPECT_LE(best.cost, best.initial_cost * (1.0 + 1e-12)) << "seed " << seed;
    EXPECT_LE(best.cost, first.cost * 1.05) << "seed " << seed;
    EXPECT_EQ(best.wasted_evaluations, 0u);
    // One applied move per improving pass, by construction.
    EXPECT_LE(best.moves_applied, best.passes);
  }
}

TEST(LocalSearch, GoldenRegressionAgainstPreCacheSolver) {
  // Exact outputs recorded from the pre-rework solver (seed commit): under
  // kFull pricing (the historical per-candidate fresh Dijkstra), the
  // scratch-reusing pricing and speculative machinery must not change the
  // refined cost, the accepted-move count, or the evaluation count.
  struct Golden {
    std::uint64_t seed;
    double cost;
    int moves;
    std::uint64_t evaluations;
  };
  const std::vector<Golden> goldens = {
      {9001, 4.2911625744047618e-05, 3, 271},
      {9002, 5.6360839843750001e-05, 4, 271},
      {9003, 0.00010665338541666666, 5, 145},
  };
  for (const Golden& golden : goldens) {
    util::Rng rng(golden.seed);
    const Instance inst = test::random_instance(10, 30, 140.0, rng);
    LocalSearchOptions options;
    options.pricing = MovePricing::kFull;
    const auto result = refine_solution(inst, solve_rfh(inst).solution, options);
    EXPECT_DOUBLE_EQ(result.cost, golden.cost) << "seed " << golden.seed;
    EXPECT_EQ(result.moves_applied, golden.moves) << "seed " << golden.seed;
    EXPECT_EQ(result.evaluations, golden.evaluations) << "seed " << golden.seed;
  }
}

TEST(LocalSearch, GoldenIncrementalRefinements) {
  // Default options (incremental pricing, first improvement) from RFH on
  // the paper's Fig. 8/9 fields: 500 m side, 600 nodes.  The refined
  // deployment (FNV-1a), the move, pass and evaluation counts and the cost
  // must match to the last bit, at 1 thread and -- on the 100-post fields
  // -- at 4 threads, whose speculative batches scan the same order.
  struct Golden {
    int posts;
    std::uint64_t seed;
    std::uint64_t deployment_hash;
    int moves;
    int passes;
    std::uint64_t evaluations;
    double cost;
  };
  const std::vector<Golden> goldens = {
      {100, 9701, 8942534947880023971ULL, 135, 6, 59401, 0.00071987861310600549},
      {100, 9702, 6255276818648804389ULL, 140, 7, 69301, 0.00075968223008958261},
      {200, 9703, 15560002175650760421ULL, 236, 6, 105444, 0.0021548462392580576},
      {200, 9704, 6274867984814990697ULL, 187, 8, 113819, 0.0021060992460493421},
      {300, 9705, 350541956882887861ULL, 128, 8, 101415, 0.003675696749301057},
      {300, 9706, 9573184881235169637ULL, 81, 7, 87774, 0.0037400176220005023},
  };
  for (const Golden& golden : goldens) {
    util::Rng rng(golden.seed);
    const Instance inst = test::random_instance(golden.posts, 600, 500.0, rng);
    const Solution start = solve_rfh(inst).solution;
    for (int threads : golden.posts == 100 ? std::vector<int>{1, 4} : std::vector<int>{1}) {
      LocalSearchOptions options;
      options.threads = threads;
      const auto result = refine_solution(inst, start, options);
      const auto label = [&] {
        return ::testing::Message() << "posts " << golden.posts << " seed " << golden.seed
                                    << " threads " << threads;
      };
      EXPECT_EQ(test::fnv1a(result.solution.deployment), golden.deployment_hash) << label();
      EXPECT_EQ(result.moves_applied, golden.moves) << label();
      EXPECT_EQ(result.passes, golden.passes) << label();
      EXPECT_EQ(result.evaluations, golden.evaluations) << label();
      EXPECT_EQ(result.cost, golden.cost) << label();
    }
  }
}

TEST(LocalSearch, IncrementalPricingMatchesFullOnGoldenInstances) {
  // The dynamic-repair pricer changes candidate costs only at the FP
  // summation level; on the golden instances the accepted-move sequence,
  // evaluation counts, final deployment and (within 1e-9 relative) the final
  // cost must match kFull -- serial and parallel, both strategies.
  for (std::uint64_t seed : {9001u, 9002u, 9003u}) {
    util::Rng rng(seed);
    const Instance inst = test::random_instance(10, 30, 140.0, rng);
    const Solution start = solve_rfh(inst).solution;
    for (const auto strategy :
         {LocalSearchStrategy::kFirstImprovement, LocalSearchStrategy::kBestImprovement}) {
      for (int threads : {1, 4}) {
        obs::RecordingSink full_sink;
        LocalSearchOptions full;
        full.pricing = MovePricing::kFull;
        full.strategy = strategy;
        full.threads = threads;
        full.sink = &full_sink;
        const auto full_result = refine_solution(inst, start, full);

        obs::RecordingSink inc_sink;
        LocalSearchOptions inc = full;
        inc.pricing = MovePricing::kIncremental;
        inc.sink = &inc_sink;
        const auto inc_result = refine_solution(inst, start, inc);

        const auto label = [&] {
          return ::testing::Message() << "seed " << seed << " strategy "
                                      << (strategy == LocalSearchStrategy::kBestImprovement)
                                      << " threads " << threads;
        };
        EXPECT_EQ(inc_result.solution.deployment, full_result.solution.deployment) << label();
        EXPECT_EQ(inc_result.moves_applied, full_result.moves_applied) << label();
        EXPECT_EQ(inc_result.passes, full_result.passes) << label();
        EXPECT_EQ(inc_result.evaluations, full_result.evaluations) << label();
        EXPECT_NEAR(inc_result.cost, full_result.cost, full_result.cost * 1e-9) << label();
        // Identical accepted-move event stream (costs within tolerance).
        ASSERT_EQ(inc_sink.local_search_moves.size(), full_sink.local_search_moves.size())
            << label();
        for (std::size_t i = 0; i < full_sink.local_search_moves.size(); ++i) {
          const auto& f = full_sink.local_search_moves[i];
          const auto& g = inc_sink.local_search_moves[i];
          EXPECT_EQ(g.from_post, f.from_post) << label() << " event " << i;
          EXPECT_EQ(g.to_post, f.to_post) << label() << " event " << i;
          EXPECT_EQ(g.accepted, f.accepted) << label() << " event " << i;
          EXPECT_NEAR(g.new_cost, f.new_cost, std::abs(f.new_cost) * 1e-9)
              << label() << " event " << i;
        }
      }
    }
  }
}

TEST(LocalSearch, RunEventMatchesResult) {
  util::Rng rng(9003);
  const Instance inst = test::random_instance(10, 30, 140.0, rng);
  obs::RecordingSink sink;
  LocalSearchOptions options;
  options.threads = 2;
  options.sink = &sink;
  const auto result = refine_solution(inst, solve_rfh(inst).solution, options);
  ASSERT_EQ(sink.local_search_runs.size(), 1u);
  const auto& run = sink.local_search_runs[0];
  EXPECT_EQ(run.threads, result.threads_used);
  EXPECT_FALSE(run.best_improvement);
  EXPECT_EQ(run.evaluations, result.evaluations);
  EXPECT_EQ(run.wasted_evaluations, result.wasted_evaluations);
  EXPECT_EQ(run.passes, result.passes);
  EXPECT_EQ(run.moves_applied, result.moves_applied);
}

}  // namespace
}  // namespace wrsn::core
