// Executable network model: rounds of reporting over a deployed solution.
//
// Section III assumes posts with several nodes "rotate in performing the
// sensing/reporting tasks such that they maintain nearly the same level of
// residual energy".  This simulator makes the round/rotation/battery
// machinery concrete: each round every post originates one report and
// forwards its descendants' reports along the routing tree; the energy is
// drawn from the post's fullest node (which realizes the rotation), and
// per-post consumption is metered so the analytic cost model can be checked
// against an executable system.
//
// Resilience extension (docs/simulation.md): with `NetworkConfig::faults`
// enabled the simulator becomes a robustness testbed.  A deterministic
// FaultModel injects post destructions, node deaths and link outages at the
// start of each round; orphaned subtrees buffer their own reports up to a
// bounded backlog and then drop them (delivered/dropped bits accounted per
// post); and a pluggable RepairPolicy re-attaches survivors -- immediately
// via the incremental core::DeploymentPricer, or in periodic maintenance
// visits modeled with core::failures::assess_failure.  One round body
// serves every configuration; with faults disabled (the default) it sums
// traffic exactly as core::subtree_rates does.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cost.hpp"
#include "core/solution.hpp"
#include "sim/fault_model.hpp"
#include "sim/schedule.hpp"

namespace wrsn::obs {
class Sink;
class ProgressSink;
}

namespace wrsn::core {
class DeploymentPricer;
}

namespace wrsn::sim {

struct NetworkConfig {
  /// Bits per report (the analytic model is per-bit; the simulator scales).
  int bits_per_report = 1024;
  /// Rechargeable battery capacity per node, joules.
  double battery_capacity_j = 0.05;
  /// Fraction of capacity preloaded at deployment time.
  double initial_charge = 1.0;
  /// Optional time-varying traffic multiplier (null = the paper's constant
  /// one-report-per-round model). See sim/schedule.hpp.
  RateSchedule rate_schedule;
  /// Online fault injection (sim/fault_model.hpp); disabled by default.
  FaultConfig faults;
  /// Reaction to faults.  kImmediateReroute re-attaches survivors through
  /// the incremental DeploymentPricer the moment a deployment-changing
  /// fault lands; kPeriodicMaintenance re-optimizes survivor routing every
  /// `maintenance_period` rounds via core::failures::assess_failure.
  RepairPolicy repair = RepairPolicy::kNone;
  /// Rounds between maintenance visits (kPeriodicMaintenance only).
  int maintenance_period = 50;
  /// Backlog bound for a disconnected post, in reports; reports beyond it
  /// are dropped at the originating post.
  int backlog_capacity_reports = 8;
  /// Observer notified after every round with consumed joules, dead-node
  /// count, battery min/mean, and the resilience counters; fault and repair
  /// events arrive through on_sim_fault/on_sim_repair (obs/sink.hpp).
  obs::Sink* sink = nullptr;
  /// Live `wrsn-progress v1` heartbeats under source "sim" (round, delivery
  /// ratio, faults/repairs so far); throttled by the sink, with a final
  /// event from run_rounds.  nullptr = silent; purely observational.
  obs::ProgressSink* progress = nullptr;
};

/// Per-node battery state.
struct NodeState {
  double battery_j = 0.0;
  bool dead = false;    ///< battery ran out (legacy liveness accounting)
  bool failed = false;  ///< killed by a fault; out of the rotation for good
  std::uint64_t active_rounds = 0;  ///< rounds this node served as the post's worker
};

/// Per-post aggregate state. Bit counters are doubles because
/// heterogeneous report rates make per-round traffic fractional in report
/// units (the paper's uniform setting keeps them integral).
struct PostState {
  std::vector<NodeState> nodes;
  double tx_bits = 0.0;
  double rx_bits = 0.0;
  double consumed_j = 0.0;  ///< lifetime energy drawn at this post
  // Delivery accounting (dropped and backlog stay zero without faults).
  // Invariant: originated_bits == delivered_bits + dropped_bits + backlog_bits.
  double originated_bits = 0.0;  ///< bits sensed at this post
  double delivered_bits = 0.0;   ///< bits that reached the base station
  double dropped_bits = 0.0;     ///< bits lost to backlog overflow or destruction
  double backlog_bits = 0.0;     ///< bits buffered while disconnected
};

class NetworkSim {
 public:
  /// The solution must be valid for the instance.
  NetworkSim(const core::Instance& instance, const core::Solution& solution,
             const NetworkConfig& config = {});
  ~NetworkSim();
  NetworkSim(NetworkSim&&) noexcept;
  NetworkSim& operator=(NetworkSim&&) noexcept;

  /// Executes one reporting round. Returns false when some node would go
  /// negative (it is marked dead and the round still completes; callers
  /// checking liveness should treat any death as failure).
  bool run_round();
  /// Runs `count` rounds; stops early on first death when `stop_on_death`.
  /// Returns rounds actually completed.
  std::uint64_t run_rounds(std::uint64_t count, bool stop_on_death = false);

  /// Queues a fault to apply at the start of the next round, ahead of the
  /// stochastic model's draws; deterministic drills and tests use this
  /// instead of hazards.
  void inject(const Fault& fault);

  std::uint64_t rounds_completed() const noexcept { return rounds_; }
  const std::vector<PostState>& posts() const noexcept { return posts_; }
  PostState& mutable_post(int p) { return posts_.at(static_cast<std::size_t>(p)); }
  const core::Instance& instance() const noexcept { return *instance_; }
  const core::Solution& solution() const noexcept { return *solution_; }
  const NetworkConfig& config() const noexcept { return config_; }
  /// The live routing tree: starts as the solution's and diverges as repair
  /// policies re-attach survivors.
  const graph::RoutingTree& routing() const noexcept { return routing_; }

  /// Analytic per-round, per-post energy at *nominal* rates
  /// (bits_per_report * E(p)); with a rate schedule the realized draw
  /// varies around this.
  const std::vector<double>& expected_round_energy() const noexcept {
    return expected_round_energy_;
  }

  int dead_node_count() const noexcept;
  /// Max-min battery spread at post p, for rotation-balance checks.
  double battery_spread(int p) const;
  /// Total energy drawn across all posts so far.
  double total_consumed() const noexcept;

  // Resilience observers (faults, drops and backlog stay zero without faults).
  bool post_alive(int p) const;      ///< site not destroyed
  bool post_connected(int p) const;  ///< had a live path to the base last round
  int destroyed_post_count() const noexcept { return destroyed_count_; }
  int failed_node_count() const noexcept;
  std::uint64_t faults_injected() const noexcept { return faults_injected_; }
  std::uint64_t reroutes() const noexcept { return reroutes_; }
  std::uint64_t repair_events() const noexcept { return repair_events_; }
  /// Mean rounds-disconnected over all reconnections so far (0 when none).
  double repair_latency_mean() const noexcept;
  double originated_bits_total() const noexcept;
  double delivered_bits_total() const noexcept;
  double dropped_bits_total() const noexcept;
  double backlog_bits_total() const noexcept;
  /// delivered / originated over the whole run; 1 before any report.
  double delivery_ratio() const noexcept;

 private:
  void emit_progress(bool final_event);
  void apply_fault(const Fault& fault, std::uint64_t round, double& round_dropped,
                   int& applied, bool& deployment_changed);
  void destroy_post(int p, double& round_dropped);
  NodeState* fullest_live_node(int p);
  int adopt_pricer_parents();
  int run_maintenance();
  void compute_connectivity(std::uint64_t round);
  void record_transitions(std::uint64_t round);

  const core::Instance* instance_;
  const core::Solution* solution_;
  NetworkConfig config_;
  graph::RoutingTree routing_;
  std::vector<PostState> posts_;
  std::vector<int> leaves_first_;  // children-first order of routing_
  std::vector<double> expected_round_energy_;
  std::uint64_t rounds_ = 0;

  // Resilience state.
  std::unique_ptr<FaultModel> fault_model_;
  std::unique_ptr<core::DeploymentPricer> pricer_;  // kImmediateReroute only
  std::vector<char> destroyed_;
  std::vector<int> live_nodes_;                  // non-failed nodes per post
  std::vector<std::uint64_t> outage_until_;      // uplink down while round < this
  std::vector<char> connected_;                  // as of the last completed round
  std::vector<std::uint64_t> disconnected_since_;
  std::vector<Fault> pending_faults_;            // manual inject() queue
  std::vector<Fault> sampled_faults_;            // scratch
  std::vector<char> conn_state_;                 // scratch: 0 ? / 1 yes / 2 no
  std::vector<int> conn_path_;                   // scratch
  std::vector<double> own_reports_;              // scratch: reports sent this round
  std::vector<double> own_flushed_;              // scratch: backlog bits flushed
  std::vector<double> send_reports_;             // scratch: subtree load, reports
  std::vector<double> send_flushed_;             // scratch: subtree load, flushed bits
  int destroyed_count_ = 0;
  std::uint64_t faults_injected_ = 0;
  std::uint64_t reroutes_ = 0;
  std::uint64_t repair_events_ = 0;
  double repair_latency_sum_ = 0.0;
  double originated_total_ = 0.0;
  double delivered_total_ = 0.0;
  double dropped_total_ = 0.0;
};

}  // namespace wrsn::sim
