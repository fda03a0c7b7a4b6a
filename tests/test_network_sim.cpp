#include "sim/network_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/rfh.hpp"
#include "helpers.hpp"
#include "obs/sink.hpp"

namespace wrsn::sim {
namespace {

// ---------------------------------------------------------------------------
// Frozen verbatim replica of the fault-free round NetworkSim ran before its
// round bodies were merged into one.  NetworkSim must reproduce it with
// operator== on every fault-free configuration.
// ---------------------------------------------------------------------------
class LegacyNetworkSim {
 public:
  LegacyNetworkSim(const core::Instance& instance, const core::Solution& solution,
                   const NetworkConfig& config)
      : instance_(&instance), solution_(&solution), config_(config) {
    posts_.resize(static_cast<std::size_t>(instance.num_posts()));
    for (int p = 0; p < instance.num_posts(); ++p) {
      auto& post = posts_[static_cast<std::size_t>(p)];
      post.nodes.resize(
          static_cast<std::size_t>(solution.deployment[static_cast<std::size_t>(p)]));
      for (auto& node : post.nodes) {
        node.battery_j = config.battery_capacity_j * config.initial_charge;
      }
    }
    subtree_rates_ = core::subtree_rates(instance, solution.tree);
    leaves_first_ = solution.tree.leaves_first_order();
  }

  bool run_round() {
    const auto& tree = solution_->tree;
    const double bits = static_cast<double>(config_.bits_per_report);
    bool all_alive = true;

    std::vector<double> scheduled_rate(static_cast<std::size_t>(instance_->num_posts()));
    std::vector<double> through_rates = subtree_rates_;
    if (config_.rate_schedule) {
      std::fill(through_rates.begin(), through_rates.end(), 0.0);
      for (int p = 0; p < instance_->num_posts(); ++p) {
        const double factor = config_.rate_schedule(p, rounds_);
        if (factor < 0.0) throw std::logic_error("rate schedule returned a negative factor");
        scheduled_rate[static_cast<std::size_t>(p)] = instance_->report_rate(p) * factor;
      }
      for (int p : leaves_first_) {
        through_rates[static_cast<std::size_t>(p)] +=
            scheduled_rate[static_cast<std::size_t>(p)];
        const int parent = tree.parent(p);
        if (parent != tree.base_station()) {
          through_rates[static_cast<std::size_t>(parent)] +=
              through_rates[static_cast<std::size_t>(p)];
        }
      }
    } else {
      for (int p = 0; p < instance_->num_posts(); ++p) {
        scheduled_rate[static_cast<std::size_t>(p)] = instance_->report_rate(p);
      }
    }

    double round_consumed = 0.0;
    for (int p = 0; p < instance_->num_posts(); ++p) {
      auto& post = posts_[static_cast<std::size_t>(p)];
      const double through = through_rates[static_cast<std::size_t>(p)];
      const double tx_bits = through * bits;
      const double rx_bits = (through - scheduled_rate[static_cast<std::size_t>(p)]) * bits;
      const double energy = tx_bits * instance_->tx_energy(p, tree.parent(p)) +
                            rx_bits * instance_->rx_energy() +
                            instance_->static_energy(p) * bits;

      auto worker = std::max_element(
          post.nodes.begin(), post.nodes.end(),
          [](const NodeState& a, const NodeState& b) { return a.battery_j < b.battery_j; });
      worker->battery_j -= energy;
      ++worker->active_rounds;
      if (worker->battery_j < 0.0) {
        worker->dead = true;
        all_alive = false;
      }
      post.tx_bits += tx_bits;
      post.rx_bits += rx_bits;
      post.consumed_j += energy;
      round_consumed += energy;
    }
    ++rounds_;

    if (config_.sink != nullptr) {
      double battery_min = 0.0;
      double battery_sum = 0.0;
      std::uint64_t node_count = 0;
      bool first = true;
      for (const auto& post : posts_) {
        for (const auto& node : post.nodes) {
          if (first || node.battery_j < battery_min) battery_min = node.battery_j;
          first = false;
          battery_sum += node.battery_j;
          ++node_count;
        }
      }
      const double battery_mean =
          node_count == 0 ? 0.0 : battery_sum / static_cast<double>(node_count);
      config_.sink->on_sim_round(
          {rounds_, round_consumed, dead_node_count(), battery_min, battery_mean});
    }
    return all_alive;
  }

  const std::vector<PostState>& posts() const noexcept { return posts_; }

 private:
  int dead_node_count() const noexcept {
    int dead = 0;
    for (const auto& post : posts_) {
      for (const auto& node : post.nodes) dead += node.dead ? 1 : 0;
    }
    return dead;
  }

  const core::Instance* instance_;
  const core::Solution* solution_;
  NetworkConfig config_;
  std::vector<PostState> posts_;
  std::vector<double> subtree_rates_;
  std::vector<int> leaves_first_;
  std::uint64_t rounds_ = 0;
};

/// Runs NetworkSim and the frozen replica side by side and compares every
/// round result, node and post counter, and the replica's SimRoundEvent
/// fields with operator==.
void expect_matches_legacy_round(const core::Instance& inst, const core::Solution& solution,
                                 NetworkConfig cfg, int rounds) {
  obs::RecordingSink legacy_events;
  obs::RecordingSink events;
  NetworkConfig legacy_cfg = cfg;
  legacy_cfg.sink = &legacy_events;
  cfg.sink = &events;
  LegacyNetworkSim legacy(inst, solution, legacy_cfg);
  NetworkSim sim(inst, solution, cfg);
  for (int r = 0; r < rounds; ++r) {
    ASSERT_EQ(sim.run_round(), legacy.run_round()) << "round " << r;
  }
  for (int p = 0; p < inst.num_posts(); ++p) {
    SCOPED_TRACE("post " + std::to_string(p));
    const auto& a = sim.posts()[static_cast<std::size_t>(p)];
    const auto& b = legacy.posts()[static_cast<std::size_t>(p)];
    EXPECT_EQ(a.consumed_j, b.consumed_j);
    EXPECT_EQ(a.tx_bits, b.tx_bits);
    EXPECT_EQ(a.rx_bits, b.rx_bits);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (std::size_t i = 0; i < a.nodes.size(); ++i) {
      EXPECT_EQ(a.nodes[i].battery_j, b.nodes[i].battery_j) << "node " << i;
      EXPECT_EQ(a.nodes[i].active_rounds, b.nodes[i].active_rounds) << "node " << i;
      EXPECT_EQ(a.nodes[i].dead, b.nodes[i].dead) << "node " << i;
    }
  }
  ASSERT_EQ(events.sim_rounds.size(), legacy_events.sim_rounds.size());
  for (std::size_t r = 0; r < events.sim_rounds.size(); ++r) {
    SCOPED_TRACE("event " + std::to_string(r));
    const obs::SimRoundEvent& a = events.sim_rounds[r];
    const obs::SimRoundEvent& b = legacy_events.sim_rounds[r];
    EXPECT_EQ(a.round, b.round);
    EXPECT_EQ(a.consumed_j, b.consumed_j);
    EXPECT_EQ(a.dead_nodes, b.dead_nodes);
    EXPECT_EQ(a.battery_min_j, b.battery_min_j);
    EXPECT_EQ(a.battery_mean_j, b.battery_mean_j);
  }
  EXPECT_EQ(sim.faults_injected(), 0u);
  EXPECT_EQ(sim.reroutes(), 0u);
  EXPECT_EQ(sim.delivery_ratio(), 1.0);
}

/// An 80-post field re-sampled under per-post report rates in [0.3, 2.7]
/// and a static draw comparable to the radio's per-bit energies.
core::Instance heterogeneous_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  const core::Instance uniform = test::random_instance(80, 240, 400.0, rng);
  core::Workload workload;
  for (int p = 0; p < uniform.num_posts(); ++p) {
    workload.report_rates.push_back(rng.uniform(0.3, 2.7));
    workload.static_energy.push_back(rng.uniform(0.0, 1e-7));
  }
  return core::Instance::geometric(*uniform.field(), test::paper_radio(),
                                   test::paper_charging(), uniform.num_nodes(), workload);
}

core::Solution chain_solution(const core::Instance& inst, std::vector<int> deployment) {
  graph::RoutingTree tree(inst.num_posts(), inst.graph().base_station());
  tree.set_parent(0, inst.graph().base_station());
  for (int p = 1; p < inst.num_posts(); ++p) tree.set_parent(p, p - 1);
  return core::Solution{std::move(tree), std::move(deployment)};
}

TEST(NetworkSim, RejectsInvalidSolution) {
  const core::Instance inst = test::chain_instance(3, 6);
  core::Solution bad = chain_solution(inst, {2, 2, 2});
  bad.deployment = {6, 1, 1};  // sums to 8 != 6
  EXPECT_THROW(NetworkSim(inst, bad, {}), std::invalid_argument);
}

TEST(NetworkSim, RejectsBadConfig) {
  const core::Instance inst = test::chain_instance(2, 2);
  const core::Solution solution = chain_solution(inst, {1, 1});
  NetworkConfig cfg;
  cfg.bits_per_report = 0;
  EXPECT_THROW(NetworkSim(inst, solution, cfg), std::invalid_argument);
  cfg = NetworkConfig{};
  cfg.battery_capacity_j = 0.0;
  EXPECT_THROW(NetworkSim(inst, solution, cfg), std::invalid_argument);
}

TEST(NetworkSim, MeasuredEnergyMatchesAnalyticModel) {
  // The DES must agree with the closed-form per-post energy exactly.
  const core::Instance inst = test::chain_instance(4, 8);
  const core::Solution solution = chain_solution(inst, {3, 2, 2, 1});
  NetworkConfig cfg;
  cfg.bits_per_report = 500;
  NetworkSim sim(inst, solution, cfg);
  sim.run_rounds(10);
  const auto& expected = sim.expected_round_energy();
  for (int p = 0; p < inst.num_posts(); ++p) {
    EXPECT_NEAR(sim.posts()[static_cast<std::size_t>(p)].consumed_j,
                10.0 * expected[static_cast<std::size_t>(p)],
                expected[static_cast<std::size_t>(p)] * 1e-9)
        << "post " << p;
  }
}

TEST(NetworkSim, BitCountersMatchTopology) {
  const core::Instance inst = test::chain_instance(3, 3);
  const core::Solution solution = chain_solution(inst, {1, 1, 1});
  NetworkConfig cfg;
  cfg.bits_per_report = 100;
  NetworkSim sim(inst, solution, cfg);
  sim.run_round();
  // Chain 2 -> 1 -> 0 -> bs: post 0 forwards 2 descendants.
  EXPECT_EQ(sim.posts()[0].tx_bits, 300u);
  EXPECT_EQ(sim.posts()[0].rx_bits, 200u);
  EXPECT_EQ(sim.posts()[1].tx_bits, 200u);
  EXPECT_EQ(sim.posts()[1].rx_bits, 100u);
  EXPECT_EQ(sim.posts()[2].tx_bits, 100u);
  EXPECT_EQ(sim.posts()[2].rx_bits, 0u);
}

TEST(NetworkSim, RotationKeepsBatteriesBalanced) {
  // Section III: multi-node posts rotate so residual energy stays level.
  const core::Instance inst = test::chain_instance(2, 6);
  const core::Solution solution = chain_solution(inst, {4, 2});
  NetworkConfig cfg;
  cfg.bits_per_report = 1000;
  NetworkSim sim(inst, solution, cfg);
  sim.run_rounds(101);
  // Spread never exceeds one round's draw.
  const double one_round = sim.expected_round_energy()[0];
  EXPECT_LE(sim.battery_spread(0), one_round + 1e-15);
  // All four nodes at post 0 served at least once.
  for (const auto& node : sim.posts()[0].nodes) {
    EXPECT_GT(node.active_rounds, 0u);
  }
}

TEST(NetworkSim, ActiveRoundsSumToRounds) {
  const core::Instance inst = test::chain_instance(2, 5);
  const core::Solution solution = chain_solution(inst, {3, 2});
  NetworkSim sim(inst, solution, {});
  sim.run_rounds(50);
  for (const auto& post : sim.posts()) {
    std::uint64_t total = 0;
    for (const auto& node : post.nodes) total += node.active_rounds;
    EXPECT_EQ(total, 50u);
  }
}

TEST(NetworkSim, DeathDetectedWhenBatteryExhausted) {
  const core::Instance inst = test::chain_instance(2, 2);
  const core::Solution solution = chain_solution(inst, {1, 1});
  NetworkConfig cfg;
  cfg.bits_per_report = 1000;
  cfg.battery_capacity_j = 1e-6;  // tiny battery: dies quickly
  NetworkSim sim(inst, solution, cfg);
  const std::uint64_t completed = sim.run_rounds(100000, /*stop_on_death=*/true);
  EXPECT_LT(completed, 100000u);
  EXPECT_GT(sim.dead_node_count(), 0);
}

TEST(NetworkSim, NoDeathWithAmpleBattery) {
  const core::Instance inst = test::chain_instance(3, 6);
  const core::Solution solution = chain_solution(inst, {2, 2, 2});
  NetworkConfig cfg;
  cfg.battery_capacity_j = 10.0;
  NetworkSim sim(inst, solution, cfg);
  sim.run_rounds(1000);
  EXPECT_EQ(sim.dead_node_count(), 0);
}

TEST(NetworkSim, TotalConsumedTracksSum) {
  util::Rng rng(211);
  const core::Instance inst = test::random_instance(10, 25, 120.0, rng);
  const auto rfh = core::solve_rfh(inst);
  NetworkSim sim(inst, rfh.solution, {});
  sim.run_rounds(7);
  double manual = 0.0;
  for (const auto& post : sim.posts()) manual += post.consumed_j;
  EXPECT_NEAR(sim.total_consumed(), manual, manual * 1e-12);
  double expected = 0.0;
  for (double e : sim.expected_round_energy()) expected += e * 7.0;
  EXPECT_NEAR(manual, expected, expected * 1e-9);
}

TEST(NetworkSim, PerRoundCostMatchesObjective) {
  // Simulated consumption divided by charging efficiency equals the paper's
  // objective value (per bit) -- ties the DES back to the cost model.
  util::Rng rng(223);
  const core::Instance inst = test::random_instance(8, 20, 120.0, rng);
  const auto rfh = core::solve_rfh(inst);
  NetworkConfig cfg;
  cfg.bits_per_report = 1;
  NetworkSim sim(inst, rfh.solution, cfg);
  sim.run_rounds(1);
  double charger_energy = 0.0;
  for (int p = 0; p < inst.num_posts(); ++p) {
    charger_energy += inst.charging().charger_energy_for(
        sim.posts()[static_cast<std::size_t>(p)].consumed_j,
        rfh.solution.deployment[static_cast<std::size_t>(p)]);
  }
  EXPECT_NEAR(charger_energy, rfh.cost, rfh.cost * 1e-9);
}

TEST(NetworkSim, FaultFreeRoundMatchesLegacyRoundExactly) {
  util::Rng rng(41);
  const core::Instance uniform = test::random_instance(80, 240, 400.0, rng);
  const core::Solution uniform_plan = core::solve_rfh(uniform).solution;
  const core::Instance hetero = heterogeneous_instance(43);
  const core::Solution hetero_plan = core::solve_rfh(hetero).solution;
  NetworkConfig ample;
  ample.battery_capacity_j = 1.0;

  {
    SCOPED_TRACE("uniform rates, 1024 bits");
    expect_matches_legacy_round(uniform, uniform_plan, ample, 300);
  }
  {
    SCOPED_TRACE("heterogeneous rates and static energy");
    expect_matches_legacy_round(hetero, hetero_plan, ample, 300);
  }
  NetworkConfig cfg = ample;
  cfg.bits_per_report = 1000;
  {
    SCOPED_TRACE("1000 bits per report");
    expect_matches_legacy_round(hetero, hetero_plan, cfg, 300);
  }
  {
    SCOPED_TRACE("reroute repair at hazard 0");
    NetworkConfig reroute = cfg;
    reroute.repair = RepairPolicy::kImmediateReroute;
    expect_matches_legacy_round(hetero, hetero_plan, reroute, 300);
  }
  cfg.rate_schedule = diurnal_schedule(48, 0.6);
  {
    SCOPED_TRACE("diurnal schedule");
    expect_matches_legacy_round(hetero, hetero_plan, cfg, 300);
  }
  {
    SCOPED_TRACE("batteries small enough that nodes die");
    cfg.battery_capacity_j = 0.2;
    expect_matches_legacy_round(hetero, hetero_plan, cfg, 300);
    NetworkSim sim(hetero, hetero_plan, cfg);
    EXPECT_EQ(sim.run_rounds(100), 100u);
    EXPECT_EQ(sim.dead_node_count(), 0);
    sim.run_rounds(200);
    EXPECT_GT(sim.dead_node_count(), 0);
  }
}

TEST(NetworkSim, FaultFreeRunsDeliverEveryOriginatedBit) {
  util::Rng rng(47);
  const core::Instance inst = test::random_instance(12, 30, 120.0, rng);
  const auto rfh = core::solve_rfh(inst);
  obs::RecordingSink events;
  NetworkConfig cfg;
  cfg.sink = &events;
  NetworkSim sim(inst, rfh.solution, cfg);
  sim.run_rounds(5);
  const double per_round = inst.total_report_rate() * cfg.bits_per_report;
  EXPECT_EQ(sim.originated_bits_total(), 5 * per_round);
  EXPECT_EQ(sim.delivered_bits_total(), sim.originated_bits_total());
  ASSERT_EQ(events.sim_rounds.size(), 5u);
  for (const obs::SimRoundEvent& event : events.sim_rounds) {
    EXPECT_EQ(event.delivered_bits, per_round);
    EXPECT_EQ(event.dropped_bits, 0.0);
    EXPECT_EQ(event.backlog_bits, 0.0);
  }
}

}  // namespace
}  // namespace wrsn::sim
