#include "core/pricer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/baseline.hpp"
#include "core/failures.hpp"
#include "core/idb.hpp"
#include "helpers.hpp"

namespace wrsn::core {
namespace {

TEST(Pricer, BaseCostMatchesFreshDijkstra) {
  util::Rng rng(801);
  const Instance inst = test::random_instance(20, 40, 180.0, rng);
  const std::vector<int> deployment = balanced_deployment(20, 40);
  const DeploymentPricer pricer(inst, deployment);
  EXPECT_NEAR(pricer.base_cost(), optimal_cost_for_deployment(inst, deployment),
              pricer.base_cost() * 1e-12);
}

TEST(Pricer, CandidatePricesMatchNaiveForEveryPost) {
  // The core exactness claim: incremental improve-only relaxation equals a
  // fresh Dijkstra on the modified deployment, for every candidate.
  util::Rng rng(809);
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = test::random_instance(15, 30, 150.0, rng);
    std::vector<int> deployment = balanced_deployment(15, 22 + trial);
    const DeploymentPricer pricer(inst, deployment);
    for (int j = 0; j < inst.num_posts(); ++j) {
      auto modified = deployment;
      ++modified[static_cast<std::size_t>(j)];
      const double naive = optimal_cost_for_deployment(inst, modified);
      EXPECT_NEAR(pricer.cost_with_extra_node(j), naive, naive * 1e-9)
          << "trial " << trial << " post " << j;
    }
  }
}

TEST(Pricer, CommitsStayExactAcrossManyAdditions) {
  // Repeated add_node must not drift from the ground truth.
  util::Rng rng(811);
  const Instance inst = test::random_instance(12, 12, 140.0, rng);
  std::vector<int> deployment(12, 1);
  DeploymentPricer pricer(inst, deployment);
  for (int step = 0; step < 40; ++step) {
    const int j = rng.uniform_int(0, 11);
    pricer.add_node(j);
    ++deployment[static_cast<std::size_t>(j)];
    const double naive = optimal_cost_for_deployment(inst, deployment);
    ASSERT_NEAR(pricer.base_cost(), naive, naive * 1e-9) << "step " << step;
  }
}

TEST(Pricer, DistancesMatchPerVertex) {
  util::Rng rng(821);
  const Instance inst = test::random_instance(10, 25, 130.0, rng);
  std::vector<int> deployment = balanced_deployment(10, 25);
  DeploymentPricer pricer(inst, deployment);
  pricer.add_node(3);
  ++deployment[3];
  const auto dag = graph::shortest_paths_to_base(inst.graph(), inst.adjacency(),
                                                 RechargingWeight(inst, deployment));
  for (int v = 0; v < inst.num_posts(); ++v) {
    EXPECT_NEAR(pricer.distance(v), dag.dist[static_cast<std::size_t>(v)],
                dag.dist[static_cast<std::size_t>(v)] * 1e-9);
  }
}

TEST(Pricer, CandidateCostNeverAboveBase) {
  // Monotonicity: an extra node can only help.
  util::Rng rng(823);
  const Instance inst = test::random_instance(15, 30, 150.0, rng);
  const DeploymentPricer pricer(inst, balanced_deployment(15, 30));
  for (int j = 0; j < inst.num_posts(); ++j) {
    EXPECT_LE(pricer.cost_with_extra_node(j), pricer.base_cost() * (1.0 + 1e-12));
  }
}

TEST(Pricer, RejectsBadInput) {
  util::Rng rng(827);
  const Instance inst = test::random_instance(5, 10, 100.0, rng);
  EXPECT_THROW(DeploymentPricer(inst, {1, 1}), std::invalid_argument);
  DeploymentPricer pricer(inst, balanced_deployment(5, 10));
  EXPECT_THROW(pricer.cost_with_extra_node(5), std::out_of_range);
  EXPECT_THROW(pricer.add_node(-1), std::out_of_range);
  EXPECT_THROW(pricer.cost_with_removed_node(-1), std::out_of_range);
  EXPECT_THROW(pricer.cost_with_moved_node(0, 5), std::out_of_range);
  EXPECT_THROW(pricer.remove_node(5), std::out_of_range);
  EXPECT_THROW(pricer.move_node(-1, 0), std::out_of_range);
  EXPECT_THROW(pricer.cost_with_added_nodes({{0, -1}}), std::invalid_argument);
  // Removing (or moving away) the last node of a post is not a deployment.
  DeploymentPricer thin(inst, std::vector<int>(5, 1));
  EXPECT_THROW(thin.cost_with_removed_node(2), std::invalid_argument);
  EXPECT_THROW(thin.cost_with_moved_node(2, 3), std::invalid_argument);
  EXPECT_THROW(thin.remove_node(2), std::invalid_argument);
  EXPECT_THROW(thin.move_node(2, 3), std::invalid_argument);
}

TEST(Pricer, RemovalPricesMatchNaiveForEveryPost) {
  // Decremental repair exactness: cost_with_removed_node equals a fresh
  // Dijkstra on the reduced deployment, for every removable post.
  util::Rng rng(1201);
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = test::random_instance(15, 45, 150.0, rng);
    std::vector<int> deployment = balanced_deployment(15, 38 + trial);
    const DeploymentPricer pricer(inst, deployment);
    for (int a = 0; a < inst.num_posts(); ++a) {
      if (deployment[static_cast<std::size_t>(a)] < 2) continue;
      auto modified = deployment;
      --modified[static_cast<std::size_t>(a)];
      const double naive = optimal_cost_for_deployment(inst, modified);
      EXPECT_NEAR(pricer.cost_with_removed_node(a), naive, naive * 1e-9)
          << "trial " << trial << " post " << a;
    }
  }
}

TEST(Pricer, MovePricesMatchNaiveForEveryPair) {
  util::Rng rng(1217);
  const Instance inst = test::random_instance(12, 36, 140.0, rng);
  std::vector<int> deployment = balanced_deployment(12, 30);
  const DeploymentPricer pricer(inst, deployment);
  for (int a = 0; a < inst.num_posts(); ++a) {
    if (deployment[static_cast<std::size_t>(a)] < 2) continue;
    for (int b = 0; b < inst.num_posts(); ++b) {
      if (b == a) continue;
      auto modified = deployment;
      --modified[static_cast<std::size_t>(a)];
      ++modified[static_cast<std::size_t>(b)];
      const double naive = optimal_cost_for_deployment(inst, modified);
      EXPECT_NEAR(pricer.cost_with_moved_node(a, b), naive, naive * 1e-9)
          << "move " << a << " -> " << b;
    }
  }
}

TEST(Pricer, MovePricesIgnoreCallOrderAndCommits) {
  // The pricer keeps the last donor's removal repair between calls.  A
  // price must never depend on that: every move costs the same double in
  // donor-major order (local search's scan), receiver-major order (a new
  // donor on every call) and a shuffled order interleaved with the other
  // pricing calls; and after each kind of commit the cached donor prices
  // like a twin pricer that saw the same commits and priced nothing.
  util::Rng rng(1231);
  const Instance inst = test::random_instance(40, 120, 260.0, rng);
  const int n = inst.num_posts();
  const std::vector<int> deployment = balanced_deployment(n, 120);
  const auto at = [n](int a, int b) { return static_cast<std::size_t>(a * n + b); };

  DeploymentPricer donor_major(inst, deployment);
  std::vector<double> moves(static_cast<std::size_t>(n * n));
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) moves[at(a, b)] = donor_major.cost_with_moved_node(a, b);
  }
  DeploymentPricer receiver_major(inst, deployment);
  for (int b = 0; b < n; ++b) {
    for (int a = 0; a < n; ++a) {
      ASSERT_EQ(receiver_major.cost_with_moved_node(a, b), moves[at(a, b)])
          << "move " << a << " -> " << b;
    }
  }

  // References for the interleaved calls, each from a pricer of its own.
  std::vector<double> removals(static_cast<std::size_t>(n));
  std::vector<double> extras(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    removals[static_cast<std::size_t>(p)] =
        DeploymentPricer(inst, deployment).cost_with_removed_node(p);
    extras[static_cast<std::size_t>(p)] =
        DeploymentPricer(inst, deployment).cost_with_extra_node(p);
  }
  const DeploymentPricer batch_reference(inst, deployment);

  std::vector<std::pair<int, int>> pairs;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) pairs.emplace_back(a, b);
  }
  std::shuffle(pairs.begin(), pairs.end(), rng);
  DeploymentPricer shuffled(inst, deployment);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [a, b] = pairs[i];
    ASSERT_EQ(shuffled.cost_with_moved_node(a, b), moves[at(a, b)])
        << "move " << a << " -> " << b << " at call " << i;
    switch (i % 4) {
      case 0:
        ASSERT_EQ(shuffled.cost_with_removed_node(b), removals[static_cast<std::size_t>(b)]);
        break;
      case 1:
        ASSERT_EQ(shuffled.cost_with_extra_node(a), extras[static_cast<std::size_t>(a)]);
        break;
      case 2: {
        const std::vector<std::pair<int, int>> extra = {{b, 2}};
        ASSERT_EQ(shuffled.cost_with_added_nodes(extra),
                  batch_reference.cost_with_added_nodes(extra));
        break;
      }
      default:
        break;
    }
  }

  // Commits.  The donor has a post (not the base station) as its parent,
  // which the last step takes out of service.
  int donor = 0;
  while (donor_major.parent(donor) >= n) ++donor;
  const int parent = donor_major.parent(donor);
  const int other = (donor + 1 == parent) ? donor + 2 : donor + 1;
  struct Step {
    const char* name;
    std::function<void(DeploymentPricer&)> commit;
  };
  const std::vector<Step> steps = {
      {"move_node", [&](DeploymentPricer& p) { p.move_node(donor, other); }},
      {"add_node", [&](DeploymentPricer& p) { p.add_node(donor); }},
      {"remove_node", [&](DeploymentPricer& p) { p.remove_node(donor); }},
      {"disable_post", [&](DeploymentPricer& p) { p.disable_post(parent); }},
  };
  DeploymentPricer live(inst, deployment);
  std::vector<const Step*> history;
  for (const Step& step : steps) {
    for (int b = 0; b < n; ++b) live.cost_with_moved_node(donor, b);  // cache the donor
    step.commit(live);
    history.push_back(&step);
    DeploymentPricer twin(inst, deployment);
    for (const Step* done : history) done->commit(twin);
    EXPECT_EQ(live.cost_with_moved_node(donor, other), twin.cost_with_moved_node(donor, other))
        << "after " << step.name;
    EXPECT_EQ(live.cost_with_removed_node(donor), twin.cost_with_removed_node(donor))
        << "after " << step.name;
  }
}

TEST(Pricer, MoveToSamePostIsNoOp) {
  util::Rng rng(1223);
  const Instance inst = test::random_instance(10, 25, 130.0, rng);
  DeploymentPricer pricer(inst, balanced_deployment(10, 25));
  const double base = pricer.base_cost();
  EXPECT_EQ(pricer.cost_with_moved_node(4, 4), base);
  pricer.move_node(4, 4);
  EXPECT_EQ(pricer.base_cost(), base);
}

TEST(Pricer, BatchAddPricesMatchNaive) {
  // cost_with_added_nodes (the exact solver's tail bound) vs fresh Dijkstra.
  util::Rng rng(1229);
  const Instance inst = test::random_instance(12, 40, 140.0, rng);
  std::vector<int> deployment = balanced_deployment(12, 20);
  const DeploymentPricer pricer(inst, deployment);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::pair<int, int>> extra;
    auto modified = deployment;
    for (int j = 0; j < inst.num_posts(); ++j) {
      const int count = rng.uniform_int(0, 2);
      if (count == 0 && trial % 2 == 0) continue;  // mix of skipped and count=0 entries
      extra.emplace_back(j, count);
      modified[static_cast<std::size_t>(j)] += count;
    }
    const double naive = optimal_cost_for_deployment(inst, modified);
    EXPECT_NEAR(pricer.cost_with_added_nodes(extra), naive, naive * 1e-9) << "trial " << trial;
  }
  EXPECT_EQ(pricer.cost_with_added_nodes({}), pricer.base_cost());
}

// Random walk of committed add/remove/move mutations: the pricer's state
// (cost, per-vertex distances, parent tightness) must keep matching a fresh
// Dijkstra on the current deployment.
void check_committed_walk(const Instance& inst, DeploymentPricer::Options options,
                          unsigned seed) {
  util::Rng rng(seed);
  const int n = inst.num_posts();
  std::vector<int> deployment = balanced_deployment(n, 3 * n);
  DeploymentPricer pricer(inst, deployment, options);
  for (int step = 0; step < 60; ++step) {
    const int kind = rng.uniform_int(0, 2);
    const int a = rng.uniform_int(0, n - 1);
    const int b = rng.uniform_int(0, n - 1);
    if (kind == 0) {
      pricer.add_node(a);
      ++deployment[static_cast<std::size_t>(a)];
    } else if (kind == 1 && deployment[static_cast<std::size_t>(a)] >= 2) {
      pricer.remove_node(a);
      --deployment[static_cast<std::size_t>(a)];
    } else if (kind == 2 && deployment[static_cast<std::size_t>(a)] >= 2) {
      pricer.move_node(a, b);
      --deployment[static_cast<std::size_t>(a)];
      ++deployment[static_cast<std::size_t>(b)];
    } else {
      continue;
    }
    const double naive = optimal_cost_for_deployment(inst, deployment);
    ASSERT_NEAR(pricer.base_cost(), naive, naive * 1e-9) << "step " << step;
    const RechargingWeight weight(inst, deployment);
    const auto dag = graph::shortest_paths_to_base(inst.graph(), inst.adjacency(), weight);
    for (int v = 0; v < n; ++v) {
      ASSERT_NEAR(pricer.distance(v), dag.dist[static_cast<std::size_t>(v)],
                  dag.dist[static_cast<std::size_t>(v)] * 1e-9)
          << "step " << step << " vertex " << v;
      // The maintained parent must stay a tight next hop.
      const int p = pricer.parent(v);
      ASSERT_GE(p, 0);
      ASSERT_NEAR(pricer.distance(v),
                  weight(v, p) + pricer.distance(p),
                  pricer.distance(v) * 1e-9)
          << "step " << step << " vertex " << v;
    }
  }
}

TEST(Pricer, CommittedMutationsTrackFreshDijkstraAcrossChargingModels) {
  util::Rng rng(1301);
  const energy::ChargingModel models[] = {
      energy::ChargingModel::linear(0.01),
      energy::ChargingModel::sub_linear(0.01, 0.8),
      energy::ChargingModel::saturating(0.01, 4.0),
  };
  unsigned seed = 1303;
  for (const auto& charging : models) {
    const Instance inst = test::random_instance(14, 60, 150.0, rng, charging);
    for (int walk = 0; walk < 2; ++walk) check_committed_walk(inst, {}, seed++);
  }
}

TEST(Pricer, CandidateRemovalsMatchAcrossChargingModels) {
  util::Rng rng(1307);
  const energy::ChargingModel models[] = {
      energy::ChargingModel::linear(0.01),
      energy::ChargingModel::sub_linear(0.01, 0.7),
      energy::ChargingModel::saturating(0.01, 3.0),
  };
  for (const auto& charging : models) {
    const Instance inst = test::random_instance(12, 36, 140.0, rng, charging);
    std::vector<int> deployment = balanced_deployment(12, 30);
    const DeploymentPricer pricer(inst, deployment);
    for (int a = 0; a < inst.num_posts(); ++a) {
      if (deployment[static_cast<std::size_t>(a)] < 2) continue;
      auto modified = deployment;
      --modified[static_cast<std::size_t>(a)];
      const double naive = optimal_cost_for_deployment(inst, modified);
      EXPECT_NEAR(pricer.cost_with_removed_node(a), naive, naive * 1e-9);
      const int b = (a + 5) % 12;
      ++modified[static_cast<std::size_t>(b)];
      const double naive_move = optimal_cost_for_deployment(inst, modified);
      EXPECT_NEAR(pricer.cost_with_moved_node(a, b), naive_move, naive_move * 1e-9);
    }
  }
}

TEST(Pricer, ZeroFallbackThresholdForcesFullRecomputeAndStaysExact) {
  // full_recompute_fraction = 0 makes every decremental repair take the
  // fallback path; results must be identical to the bounded repair.
  util::Rng rng(1319);
  const Instance inst = test::random_instance(12, 40, 140.0, rng);
  DeploymentPricer::Options fallback_only;
  fallback_only.full_recompute_fraction = 0.0;
  check_committed_walk(inst, fallback_only, 1321);
}

TEST(Pricer, IdbFastPathMakesOptimalGreedySteps) {
  // delta=1 takes the pricer path. Exact ties between candidates can break
  // differently under incremental vs fresh evaluation (different fp
  // summation order), so trajectories need not be identical -- but every
  // committed step must be a numerically optimal greedy choice.
  util::Rng rng(829);
  for (int trial = 0; trial < 3; ++trial) {
    const Instance inst = test::random_instance(10, 24, 130.0, rng);
    DeploymentPricer pricer(inst, std::vector<int>(10, 1));
    std::vector<int> deployment(10, 1);
    for (int step = 0; step < inst.spare_nodes(); ++step) {
      // The pricer's greedy choice.
      int chosen = -1;
      double chosen_cost = graph::kInfinity;
      for (int j = 0; j < 10; ++j) {
        const double cost = pricer.cost_with_extra_node(j);
        if (cost < chosen_cost) {
          chosen_cost = cost;
          chosen = j;
        }
      }
      // The naive argmin over fresh Dijkstras.
      double naive_best = graph::kInfinity;
      for (int j = 0; j < 10; ++j) {
        auto tentative = deployment;
        ++tentative[static_cast<std::size_t>(j)];
        naive_best = std::min(naive_best, optimal_cost_for_deployment(inst, tentative));
      }
      // The chosen candidate must price within tolerance of the true best.
      auto committed = deployment;
      ++committed[static_cast<std::size_t>(chosen)];
      const double chosen_naive = optimal_cost_for_deployment(inst, committed);
      EXPECT_LE(chosen_naive, naive_best * (1.0 + 1e-9))
          << "trial " << trial << " step " << step;
      pricer.add_node(chosen);
      deployment = committed;
    }
  }
}

TEST(Pricer, DisablePostMatchesSubInstanceOracle) {
  // Disabling posts one by one must keep every survivor's distance equal to
  // a fresh shortest-path run on the induced sub-instance (original indices
  // mapped through core::remove_posts).
  util::Rng rng(1409);
  for (unsigned trial = 0; trial < 3; ++trial) {
    const Instance inst = test::random_instance(16, 48, 140.0, rng);
    std::vector<int> deployment = balanced_deployment(16, 40);
    DeploymentPricer pricer(inst, deployment);
    std::vector<int> disabled;
    util::Rng pick(1409 + trial);
    for (int step = 0; step < 6; ++step) {
      int victim = pick.uniform_int(0, 15);
      while (pricer.is_disabled(victim)) victim = (victim + 1) % 16;
      pricer.disable_post(victim);
      disabled.push_back(victim);
      if (!survives_failure(inst, disabled)) break;

      int survivors_nodes = 0;
      for (int p = 0; p < 16; ++p) {
        if (!pricer.is_disabled(p)) survivors_nodes += deployment[static_cast<std::size_t>(p)];
      }
      const SubInstance sub = remove_posts(inst, disabled, survivors_nodes);
      std::vector<int> sub_deployment(sub.to_original.size());
      for (std::size_t si = 0; si < sub.to_original.size(); ++si) {
        sub_deployment[si] = deployment[static_cast<std::size_t>(sub.to_original[si])];
      }
      const auto dag =
          graph::shortest_paths_to_base(sub.instance.graph(), sub.instance.adjacency(),
                                        RechargingWeight(sub.instance, sub_deployment));
      for (int p = 0; p < 16; ++p) {
        const int si = sub.from_original[static_cast<std::size_t>(p)];
        if (si < 0) {
          EXPECT_FALSE(std::isfinite(pricer.distance(p))) << "disabled post " << p;
          EXPECT_EQ(pricer.parent(p), -1);
          continue;
        }
        EXPECT_NEAR(pricer.distance(p), dag.dist[static_cast<std::size_t>(si)],
                    dag.dist[static_cast<std::size_t>(si)] * 1e-9)
            << "trial " << trial << " step " << step << " post " << p;
      }
      const double naive = optimal_cost_for_deployment(sub.instance, sub_deployment);
      EXPECT_NEAR(pricer.base_cost(), naive, naive * 1e-9);
    }
  }
}

TEST(Pricer, DisableFallbackMatchesBoundedRepair) {
  // Regression for the disabled-aware dense fallback: a pricer forced onto
  // the fallback path (fraction 0) must agree per vertex with one that
  // always runs the bounded repair (fraction > 1), across a disable
  // sequence that cuts off part of the network.
  util::Rng rng(1423);
  const Instance inst = test::random_instance(14, 40, 130.0, rng);
  const std::vector<int> deployment = balanced_deployment(14, 35);
  DeploymentPricer::Options always_fallback;
  always_fallback.full_recompute_fraction = 0.0;
  DeploymentPricer::Options never_fallback;
  never_fallback.full_recompute_fraction = 2.0;
  DeploymentPricer a(inst, deployment, always_fallback);
  DeploymentPricer b(inst, deployment, never_fallback);
  util::Rng pick(1427);
  for (int step = 0; step < 8; ++step) {
    int victim = pick.uniform_int(0, 13);
    while (a.is_disabled(victim)) victim = (victim + 1) % 14;
    a.disable_post(victim);
    b.disable_post(victim);
    for (int v = 0; v < 14; ++v) {
      if (!std::isfinite(b.distance(v))) {
        EXPECT_FALSE(std::isfinite(a.distance(v))) << "step " << step << " vertex " << v;
        continue;
      }
      EXPECT_NEAR(a.distance(v), b.distance(v), b.distance(v) * 1e-9)
          << "step " << step << " vertex " << v;
    }
  }
  EXPECT_EQ(a.num_disabled(), 8);
}

TEST(Pricer, DisabledSurvivorsCutOffKeepInfiniteDistance) {
  // A 50 m-spaced chain (radio max range 75 m) has no alternative paths:
  // disabling post 0 cuts off everyone behind it, which must read as
  // infinite distance, parent -1, and an infinite base cost -- not an
  // exception.
  geom::Field field;
  field.base_station = {0.0, 0.0};
  field.width = 300.0;
  field.height = 1.0;
  for (int i = 1; i <= 5; ++i) field.posts.push_back({50.0 * i, 0.0});
  const Instance inst = Instance::geometric(field, test::paper_radio(),
                                            test::paper_charging(), 10);
  DeploymentPricer pricer(inst, balanced_deployment(5, 10));
  pricer.disable_post(0);
  EXPECT_TRUE(pricer.is_disabled(0));
  for (int p = 1; p < 5; ++p) {
    EXPECT_FALSE(std::isfinite(pricer.distance(p))) << "post " << p;
    EXPECT_EQ(pricer.parent(p), -1) << "post " << p;
  }
  EXPECT_FALSE(std::isfinite(pricer.base_cost()));
}

TEST(Pricer, DisabledPostsLeaveNoStaleParents) {
  // The contract sim::NetworkSim adopts parents by: a post has parent -1
  // exactly when its distance is infinite, and every finite parent is an
  // enabled post with a finite distance (or the base station).  Checked
  // after every disable, on the bounded repair and on the default options.
  DeploymentPricer::Options bounded_only;
  bounded_only.full_recompute_fraction = 2.0;
  util::Rng rng(1433);
  for (int trial = 0; trial < 6; ++trial) {
    const Instance inst = test::random_instance(40, 120, 220.0, rng);
    const int n = inst.num_posts();
    const int bs = inst.graph().base_station();
    for (const DeploymentPricer::Options& options : {bounded_only, DeploymentPricer::Options{}}) {
      DeploymentPricer pricer(inst, balanced_deployment(n, 120), options);
      util::Rng pick(1439 + static_cast<std::uint64_t>(trial));
      for (int step = 0; step < n / 2; ++step) {
        int victim = pick.uniform_int(0, n - 1);
        while (pricer.is_disabled(victim)) victim = (victim + 1) % n;
        pricer.disable_post(victim);
        for (int p = 0; p < n; ++p) {
          SCOPED_TRACE("trial " + std::to_string(trial) + " step " + std::to_string(step) +
                       " post " + std::to_string(p));
          const int parent = pricer.parent(p);
          EXPECT_EQ(parent == -1, !std::isfinite(pricer.distance(p)));
          if (parent == -1 || parent == bs) continue;
          EXPECT_FALSE(pricer.is_disabled(parent));
          EXPECT_TRUE(std::isfinite(pricer.distance(parent)));
        }
      }
    }
  }
}

TEST(Pricer, DisableRejectsBadUse) {
  util::Rng rng(1429);
  const Instance inst = test::random_instance(6, 12, 100.0, rng);
  DeploymentPricer pricer(inst, balanced_deployment(6, 12));
  EXPECT_THROW(pricer.disable_post(-1), std::out_of_range);
  EXPECT_THROW(pricer.disable_post(6), std::out_of_range);
  pricer.disable_post(2);
  EXPECT_THROW(pricer.disable_post(2), std::invalid_argument);
  EXPECT_THROW(pricer.add_node(2), std::invalid_argument);
  EXPECT_THROW(pricer.cost_with_extra_node(2), std::invalid_argument);
  EXPECT_EQ(pricer.num_disabled(), 1);
}

}  // namespace
}  // namespace wrsn::core
