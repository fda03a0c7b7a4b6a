// Online fault injection and self-repairing routing in sim::NetworkSim.
//
// The oracles here are deliberately independent of the incremental
// machinery: connectivity is checked against a fresh BFS over the alive
// posts of the reach graph, and per-post traffic accounting against the
// conservation law originated == delivered + dropped + backlog.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>

#include "core/rfh.hpp"
#include "core/solver.hpp"
#include "exp/spec.hpp"
#include "helpers.hpp"
#include "sim/network_sim.hpp"
#include "util/rng.hpp"

namespace wrsn::sim {
namespace {

core::Solution chain_solution(const core::Instance& inst, std::vector<int> deployment) {
  graph::RoutingTree tree(inst.num_posts(), inst.graph().base_station());
  tree.set_parent(0, inst.graph().base_station());
  for (int p = 1; p < inst.num_posts(); ++p) tree.set_parent(p, p - 1);
  return core::Solution{std::move(tree), std::move(deployment)};
}

// Ground truth: which alive posts can reach the base through alive relays?
std::vector<bool> reachable_alive(const core::Instance& inst, const NetworkSim& sim) {
  const int bs = inst.graph().base_station();
  std::vector<bool> seen(static_cast<std::size_t>(inst.num_posts()), false);
  std::queue<int> frontier;
  frontier.push(bs);
  while (!frontier.empty()) {
    const int u = frontier.front();
    frontier.pop();
    for (int v : inst.adjacency().in(u)) {
      if (v == bs || seen[static_cast<std::size_t>(v)] || !sim.post_alive(v)) continue;
      seen[static_cast<std::size_t>(v)] = true;
      frontier.push(v);
    }
  }
  return seen;
}

void expect_conservation(const NetworkSim& sim, const core::Instance& inst) {
  for (int p = 0; p < inst.num_posts(); ++p) {
    const auto& post = sim.posts()[static_cast<std::size_t>(p)];
    EXPECT_NEAR(post.originated_bits,
                post.delivered_bits + post.dropped_bits + post.backlog_bits,
                1e-6 + post.originated_bits * 1e-12)
        << "post " << p;
  }
}

TEST(Resilience, InjectedDestructionReroutesOrphans) {
  util::Rng rng(47);
  const core::Instance inst = test::random_instance(15, 40, 100.0, rng);
  const auto rfh = core::solve_rfh(inst);
  NetworkConfig cfg;
  cfg.repair = RepairPolicy::kImmediateReroute;
  NetworkSim sim(inst, rfh.solution, cfg);

  // Destroy an interior post (one with routing children) if there is one.
  int victim = 0;
  for (int p = 0; p < inst.num_posts(); ++p) {
    for (int c = 0; c < inst.num_posts(); ++c) {
      if (rfh.solution.tree.parent(c) == p) {
        victim = p;
        break;
      }
    }
  }
  sim.inject({FaultKind::kPostDestroyed, victim, 0});
  sim.run_round();

  EXPECT_FALSE(sim.post_alive(victim));
  EXPECT_EQ(sim.destroyed_post_count(), 1);
  const auto reachable = reachable_alive(inst, sim);
  for (int p = 0; p < inst.num_posts(); ++p) {
    if (!sim.post_alive(p)) continue;
    EXPECT_EQ(sim.post_connected(p), reachable[static_cast<std::size_t>(p)]) << "post " << p;
    // A connected survivor's parent chain must avoid the destroyed post.
    if (sim.post_connected(p)) {
      EXPECT_NE(sim.routing().parent(p), victim);
    }
  }
  expect_conservation(sim, inst);
}

TEST(Resilience, ImmediateRerouteMatchesReachabilityOracle) {
  // Randomized destruction sequences: after every round the set of connected
  // posts must equal fresh BFS reachability over the survivors -- the
  // incremental pricer repair can neither orphan a reachable post nor
  // resurrect an unreachable one.
  for (std::uint64_t seed : {3u, 17u, 90u}) {
    util::Rng rng(seed);
    const core::Instance inst = test::random_instance(18, 45, 110.0, rng);
    const auto rfh = core::solve_rfh(inst);
    NetworkConfig cfg;
    cfg.repair = RepairPolicy::kImmediateReroute;
    NetworkSim sim(inst, rfh.solution, cfg);

    util::Rng faults(seed ^ 0xabcdu);
    for (int round = 0; round < 12; ++round) {
      // Destroy one random alive post every other round.
      if (round % 2 == 0) {
        std::vector<int> alive;
        for (int p = 0; p < inst.num_posts(); ++p) {
          if (sim.post_alive(p)) alive.push_back(p);
        }
        if (alive.size() <= 2) break;
        const int victim = alive[static_cast<std::size_t>(faults.uniform_int(
            0, static_cast<int>(alive.size()) - 1))];
        sim.inject({FaultKind::kPostDestroyed, victim, 0});
      }
      sim.run_round();
      const auto reachable = reachable_alive(inst, sim);
      for (int p = 0; p < inst.num_posts(); ++p) {
        if (!sim.post_alive(p)) continue;
        EXPECT_EQ(sim.post_connected(p), reachable[static_cast<std::size_t>(p)])
            << "seed " << seed << " round " << round << " post " << p;
      }
      expect_conservation(sim, inst);
    }
  }
}

TEST(Resilience, SampledFaultsAreDeterministic) {
  // Two sims with the same (solution, config) must agree bit for bit:
  // counters, per-post traffic, per-node batteries.
  util::Rng rng(61);
  const core::Instance inst = test::random_instance(14, 35, 110.0, rng);
  const auto rfh = core::solve_rfh(inst);
  NetworkConfig cfg;
  cfg.repair = RepairPolicy::kImmediateReroute;
  cfg.faults.seed = 4242;
  cfg.faults.post_destruction_hazard = 0.01;
  cfg.faults.node_death_hazard = 0.02;
  cfg.faults.link_outage_hazard = 0.02;
  cfg.faults.link_outage_rounds = 4;

  NetworkSim a(inst, rfh.solution, cfg);
  NetworkSim b(inst, rfh.solution, cfg);
  a.run_rounds(120);
  b.run_rounds(120);

  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_EQ(a.reroutes(), b.reroutes());
  EXPECT_EQ(a.destroyed_post_count(), b.destroyed_post_count());
  EXPECT_EQ(a.failed_node_count(), b.failed_node_count());
  EXPECT_EQ(a.delivered_bits_total(), b.delivered_bits_total());
  EXPECT_EQ(a.dropped_bits_total(), b.dropped_bits_total());
  for (int p = 0; p < inst.num_posts(); ++p) {
    const auto& pa = a.posts()[static_cast<std::size_t>(p)];
    const auto& pb = b.posts()[static_cast<std::size_t>(p)];
    EXPECT_EQ(pa.originated_bits, pb.originated_bits);
    EXPECT_EQ(pa.delivered_bits, pb.delivered_bits);
    EXPECT_EQ(pa.backlog_bits, pb.backlog_bits);
    for (std::size_t i = 0; i < pa.nodes.size(); ++i) {
      EXPECT_EQ(pa.nodes[i].battery_j, pb.nodes[i].battery_j);
      EXPECT_EQ(pa.nodes[i].failed, pb.nodes[i].failed);
    }
  }
  EXPECT_GT(a.faults_injected(), 0u);
}

TEST(Resilience, LinkOutageBuffersThenFlushes) {
  // A 3-round outage on a chain leaf within the backlog bound: nothing is
  // dropped, and the backlog flushes in full on reconnect.
  const core::Instance inst = test::chain_instance(3, 6);
  const core::Solution solution = chain_solution(inst, {2, 2, 2});
  NetworkConfig cfg;
  cfg.bits_per_report = 100;
  cfg.backlog_capacity_reports = 8;
  NetworkSim sim(inst, solution, cfg);

  // Inject before the first round: traffic accounting only runs on the
  // resilient path, which the first inject() switches on.
  sim.inject({FaultKind::kLinkOutage, 2, 3});
  sim.run_rounds(3);  // rounds 0-2: post 2 is down, buffering
  const auto& post2 = sim.posts()[2];
  EXPECT_EQ(post2.backlog_bits, 300.0);
  EXPECT_EQ(post2.dropped_bits, 0.0);
  EXPECT_EQ(post2.delivered_bits, 0.0);

  sim.run_round();  // round 3: outage expired, backlog + this round delivered
  EXPECT_EQ(post2.backlog_bits, 0.0);
  EXPECT_EQ(post2.delivered_bits, 400.0);
  EXPECT_EQ(post2.dropped_bits, 0.0);
  EXPECT_EQ(sim.delivery_ratio(), 1.0);
  // One disconnect -> reconnect cycle of three rounds was recorded.
  EXPECT_EQ(sim.repair_latency_mean(), 3.0);
  expect_conservation(sim, inst);
}

TEST(Resilience, BacklogOverflowDropsAtOrigin) {
  const core::Instance inst = test::chain_instance(2, 4);
  const core::Solution solution = chain_solution(inst, {2, 2});
  NetworkConfig cfg;
  cfg.bits_per_report = 100;
  cfg.backlog_capacity_reports = 2;  // 200 bits of buffer
  NetworkSim sim(inst, solution, cfg);
  sim.inject({FaultKind::kLinkOutage, 1, 5});
  sim.run_rounds(5);
  const auto& post1 = sim.posts()[1];
  EXPECT_EQ(post1.backlog_bits, 200.0);
  EXPECT_EQ(post1.dropped_bits, 300.0);
  EXPECT_EQ(post1.delivered_bits, 0.0);
  expect_conservation(sim, inst);
}

TEST(Resilience, DestructionDropsBufferedBits) {
  const core::Instance inst = test::chain_instance(2, 4);
  const core::Solution solution = chain_solution(inst, {2, 2});
  NetworkConfig cfg;
  cfg.bits_per_report = 100;
  NetworkSim sim(inst, solution, cfg);
  sim.inject({FaultKind::kLinkOutage, 1, 3});
  sim.run_rounds(2);  // post 1 buffers 200 bits
  EXPECT_EQ(sim.posts()[1].backlog_bits, 200.0);
  sim.inject({FaultKind::kPostDestroyed, 1, 0});
  sim.run_round();  // the site dies with its buffer
  EXPECT_EQ(sim.posts()[1].backlog_bits, 0.0);
  EXPECT_EQ(sim.posts()[1].dropped_bits, 200.0);
  EXPECT_FALSE(sim.post_alive(1));
  expect_conservation(sim, inst);
}

TEST(Resilience, NodeDeathsDegradeThenDestroy) {
  const core::Instance inst = test::chain_instance(2, 5);
  const core::Solution solution = chain_solution(inst, {2, 3});
  NetworkConfig cfg;
  cfg.repair = RepairPolicy::kNone;
  NetworkSim sim(inst, solution, cfg);

  sim.inject({FaultKind::kNodeDeath, 1, 0});
  sim.run_round();
  EXPECT_EQ(sim.failed_node_count(), 1);
  EXPECT_TRUE(sim.post_alive(1));

  sim.inject({FaultKind::kNodeDeath, 1, 0});
  sim.run_round();
  EXPECT_EQ(sim.failed_node_count(), 2);
  EXPECT_TRUE(sim.post_alive(1));

  // The last node's death takes the whole site with it.
  sim.inject({FaultKind::kNodeDeath, 1, 0});
  sim.run_round();
  EXPECT_FALSE(sim.post_alive(1));
  EXPECT_EQ(sim.destroyed_post_count(), 1);
}

TEST(Resilience, PeriodicMaintenanceReconnectsWithLatency) {
  util::Rng rng(73);
  const core::Instance inst = test::random_instance(15, 40, 100.0, rng);
  const auto rfh = core::solve_rfh(inst);
  NetworkConfig cfg;
  cfg.repair = RepairPolicy::kPeriodicMaintenance;
  cfg.maintenance_period = 10;
  NetworkSim sim(inst, rfh.solution, cfg);

  // Find an interior post whose children can survive without it.
  int victim = -1;
  for (int p = 0; p < inst.num_posts() && victim < 0; ++p) {
    for (int c = 0; c < inst.num_posts(); ++c) {
      if (rfh.solution.tree.parent(c) == p) {
        victim = p;
        break;
      }
    }
  }
  ASSERT_GE(victim, 0);
  sim.inject({FaultKind::kPostDestroyed, victim, 0});
  sim.run_round();  // round 0: damage, no repair until the maintenance visit

  std::vector<int> orphans;
  for (int p = 0; p < inst.num_posts(); ++p) {
    if (sim.post_alive(p) && !sim.post_connected(p)) orphans.push_back(p);
  }
  sim.run_rounds(10);  // crosses round 10: maintenance re-optimizes routing
  const auto reachable = reachable_alive(inst, sim);
  for (int p : orphans) {
    if (reachable[static_cast<std::size_t>(p)]) {
      EXPECT_TRUE(sim.post_connected(p)) << "post " << p;
    }
  }
  if (!orphans.empty() && sim.reroutes() > 0) {
    EXPECT_GT(sim.repair_latency_mean(), 0.0);
    EXPECT_LE(sim.repair_latency_mean(), 10.0);
  }
  expect_conservation(sim, inst);
}

TEST(Resilience, RepairBeatsNoRepairUnderHazard) {
  util::Rng rng(101);
  const core::Instance inst = test::random_instance(16, 40, 100.0, rng);
  const auto rfh = core::solve_rfh(inst);
  NetworkConfig base_cfg;
  base_cfg.faults.seed = 7;
  base_cfg.faults.post_destruction_hazard = 0.01;

  NetworkConfig none_cfg = base_cfg;
  none_cfg.repair = RepairPolicy::kNone;
  NetworkConfig reroute_cfg = base_cfg;
  reroute_cfg.repair = RepairPolicy::kImmediateReroute;

  NetworkSim none(inst, rfh.solution, none_cfg);
  NetworkSim reroute(inst, rfh.solution, reroute_cfg);
  none.run_rounds(200);
  reroute.run_rounds(200);

  // Same fault stream (same seed); repair can only help.
  EXPECT_EQ(none.faults_injected(), reroute.faults_injected());
  EXPECT_GE(reroute.delivery_ratio(), none.delivery_ratio());
  expect_conservation(none, inst);
  expect_conservation(reroute, inst);
}

TEST(Resilience, RerouteSurvivesPinnedCutOffTrial) {
  // Trial 65 of an independent-seed sweep (side 500, N = 100/200/300,
  // M = 600, k = 3, hazard 0.01, 30 runs from base seed 1) under 200 rounds
  // of `reroute`.  At round 110 post 222 was cut off while the pricer still
  // named its destroyed old parent 156, whose own stale parent was 222;
  // adopting that closed a parent cycle in the routing tree.
  exp::SweepSpec spec;
  spec.posts_axis = {100, 200, 300};
  spec.hazard_axis = {0.01};
  spec.runs = 30;
  spec.base_seed = 1;
  spec.seed_mode = exp::SeedMode::kIndependent;
  const int config_index = 2;
  const int run = 5;
  ASSERT_EQ(spec.field_seed(config_index, run), 690534760664260851ULL);
  const core::Instance inst =
      spec.build_instance(spec.expand()[config_index], spec.field_seed(config_index, run));
  for (const char* solver : {"rfh", "idb", "rfh+ls"}) {
    SCOPED_TRACE(solver);
    const core::Solution plan =
        core::SolverRegistry::global().create(solver)->solve(inst).solution;
    NetworkConfig cfg;
    cfg.faults.seed = spec.sim_seed(config_index, run);
    cfg.faults.post_destruction_hazard = 0.01;
    cfg.repair = RepairPolicy::kImmediateReroute;
    NetworkSim sim(inst, plan, cfg);
    ASSERT_EQ(sim.run_rounds(200), 200u);
    EXPECT_GT(sim.destroyed_post_count(), 0);
    EXPECT_GT(sim.reroutes(), 0u);
    EXPECT_NO_THROW(sim.routing().depths());
    expect_conservation(sim, inst);
  }
}

}  // namespace
}  // namespace wrsn::sim
