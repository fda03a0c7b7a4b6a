#include "sim/network_sim.hpp"

#include "core/failures.hpp"
#include "core/pricer.hpp"
#include "obs/progress.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace wrsn::sim {
namespace {

// Sentinel for "not currently disconnected" in disconnected_since_.
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

}  // namespace

NetworkSim::NetworkSim(const core::Instance& instance, const core::Solution& solution,
                       const NetworkConfig& config)
    : instance_(&instance), solution_(&solution), config_(config), routing_(solution.tree) {
  if (!core::is_valid_solution(instance, solution)) {
    throw std::invalid_argument("NetworkSim requires a valid solution");
  }
  if (config.bits_per_report <= 0) throw std::invalid_argument("bits_per_report must be positive");
  if (config.battery_capacity_j <= 0.0) {
    throw std::invalid_argument("battery capacity must be positive");
  }
  if (config.maintenance_period < 1) {
    throw std::invalid_argument("maintenance period must be >= 1 round");
  }
  if (config.backlog_capacity_reports < 0) {
    throw std::invalid_argument("backlog capacity must be >= 0 reports");
  }
  config.faults.validate();

  posts_.resize(static_cast<std::size_t>(instance.num_posts()));
  for (int p = 0; p < instance.num_posts(); ++p) {
    auto& post = posts_[static_cast<std::size_t>(p)];
    post.nodes.resize(static_cast<std::size_t>(solution.deployment[static_cast<std::size_t>(p)]));
    for (auto& node : post.nodes) {
      node.battery_j = config.battery_capacity_j * config.initial_charge;
    }
  }

  leaves_first_ = solution.tree.leaves_first_order();
  const std::vector<double> per_bit = core::per_post_energy(instance, solution.tree);
  expected_round_energy_.resize(per_bit.size());
  for (std::size_t i = 0; i < per_bit.size(); ++i) {
    expected_round_energy_[i] = per_bit[i] * config.bits_per_report;
  }

  const std::size_t n = static_cast<std::size_t>(instance.num_posts());
  destroyed_.assign(n, 0);
  live_nodes_.resize(n);
  for (std::size_t p = 0; p < n; ++p) live_nodes_[p] = solution.deployment[p];
  outage_until_.assign(n, 0);
  connected_.assign(n, 1);
  disconnected_since_.assign(n, kNever);
  if (config.faults.enabled()) {
    fault_model_ = std::make_unique<FaultModel>(config.faults, instance.num_posts());
  }
  if (config.repair == RepairPolicy::kImmediateReroute) {
    pricer_ = std::make_unique<core::DeploymentPricer>(instance, solution.deployment);
  }
}

NetworkSim::~NetworkSim() = default;
NetworkSim::NetworkSim(NetworkSim&&) noexcept = default;
NetworkSim& NetworkSim::operator=(NetworkSim&&) noexcept = default;

bool NetworkSim::run_round() {
  WRSN_TRACE_SPAN("sim/round");
  const std::uint64_t round = rounds_;
  const double bits = static_cast<double>(config_.bits_per_report);
  const int n = instance_->num_posts();

  // 1. Faults: manual injections first, then the stochastic model's draws.
  int faults_applied = 0;
  bool deployment_changed = false;
  double round_dropped = 0.0;
  if (fault_model_) {
    fault_model_->sample_round(round, sampled_faults_);
  } else {
    sampled_faults_.clear();
  }
  for (const Fault& fault : pending_faults_) {
    apply_fault(fault, round, round_dropped, faults_applied, deployment_changed);
  }
  pending_faults_.clear();
  for (const Fault& fault : sampled_faults_) {
    apply_fault(fault, round, round_dropped, faults_applied, deployment_changed);
  }

  // 2. Repair: either react to this round's damage immediately, or wait for
  // the scheduled maintenance visit.
  int round_reroutes = 0;
  if (config_.repair == RepairPolicy::kImmediateReroute) {
    if (deployment_changed) round_reroutes = adopt_pricer_parents();
  } else if (config_.repair == RepairPolicy::kPeriodicMaintenance) {
    if (round > 0 && round % static_cast<std::uint64_t>(config_.maintenance_period) == 0 &&
        destroyed_count_ > 0) {
      round_reroutes = run_maintenance();
    }
  }

  // 3. Who has a live path to the base station this round?
  compute_connectivity(round);
  record_transitions(round);

  // 4. Traffic. Connected posts deliver their own report plus any buffered
  // backlog and forward their connected descendants' loads; disconnected
  // (but alive) posts buffer their own reports up to the backlog bound and
  // drop the overflow at the origin. Delivery is attributed at the
  // originating post, so per post:
  //   originated_bits == delivered_bits + dropped_bits + backlog_bits.
  // Loads are summed in report units, children first and the post's own
  // report last (the order of core::subtree_rates), and scaled to bits only
  // afterwards; flushed backlog, already in bits, travels in its own
  // accumulator.  A fault-free round thus sums traffic exactly as
  // core::subtree_rates does, whatever the rates and bits_per_report.
  own_reports_.assign(static_cast<std::size_t>(n), 0.0);
  own_flushed_.assign(static_cast<std::size_t>(n), 0.0);
  send_reports_.assign(static_cast<std::size_t>(n), 0.0);
  send_flushed_.assign(static_cast<std::size_t>(n), 0.0);
  const double backlog_cap = static_cast<double>(config_.backlog_capacity_reports) * bits;
  double round_originated = 0.0;
  double round_delivered = 0.0;
  for (int p = 0; p < n; ++p) {
    if (destroyed_[static_cast<std::size_t>(p)] != 0) continue;
    auto& post = posts_[static_cast<std::size_t>(p)];
    double factor = 1.0;
    if (config_.rate_schedule) {
      factor = config_.rate_schedule(p, round);
      if (factor < 0.0) throw std::logic_error("rate schedule returned a negative factor");
    }
    const double reports = instance_->report_rate(p) * factor;
    const double originated = reports * bits;
    post.originated_bits += originated;
    round_originated += originated;
    if (connected_[static_cast<std::size_t>(p)] != 0) {
      const double out = originated + post.backlog_bits;
      post.delivered_bits += out;
      round_delivered += out;
      own_reports_[static_cast<std::size_t>(p)] = reports;
      own_flushed_[static_cast<std::size_t>(p)] = post.backlog_bits;
      post.backlog_bits = 0.0;
    } else {
      post.backlog_bits += originated;
      if (post.backlog_bits > backlog_cap) {
        const double overflow = post.backlog_bits - backlog_cap;
        post.dropped_bits += overflow;
        round_dropped += overflow;
        post.backlog_bits = backlog_cap;
      }
    }
  }
  // Children before parents; a connected post's parent is connected by
  // construction, so loads accumulate along live paths only.
  for (int p : leaves_first_) {
    if (connected_[static_cast<std::size_t>(p)] == 0) continue;
    send_reports_[static_cast<std::size_t>(p)] += own_reports_[static_cast<std::size_t>(p)];
    send_flushed_[static_cast<std::size_t>(p)] += own_flushed_[static_cast<std::size_t>(p)];
    const int parent = routing_.parent(p);
    if (parent != routing_.base_station()) {
      send_reports_[static_cast<std::size_t>(parent)] +=
          send_reports_[static_cast<std::size_t>(p)];
      send_flushed_[static_cast<std::size_t>(parent)] +=
          send_flushed_[static_cast<std::size_t>(p)];
    }
  }

  // 5. Energy: alive posts keep sensing (static draw) even while
  // disconnected; radio energy only flows on live links. Destroyed posts
  // draw nothing. The static draw is expressed per reported bit, so it
  // scales with bits_per_report like the radio terms. The rotation picks
  // the fullest non-failed node, which keeps residual levels nearly equal
  // across the post (Section III).
  double round_consumed = 0.0;
  bool all_alive = true;
  for (int p = 0; p < n; ++p) {
    if (destroyed_[static_cast<std::size_t>(p)] != 0) continue;
    auto& post = posts_[static_cast<std::size_t>(p)];
    double tx = 0.0;
    double rx = 0.0;
    double energy = instance_->static_energy(p) * bits;
    if (connected_[static_cast<std::size_t>(p)] != 0) {
      const double through = send_reports_[static_cast<std::size_t>(p)];
      const double flushed = send_flushed_[static_cast<std::size_t>(p)];
      tx = through * bits + flushed;
      rx = (through - own_reports_[static_cast<std::size_t>(p)]) * bits +
           (flushed - own_flushed_[static_cast<std::size_t>(p)]);
      energy += tx * instance_->tx_energy(p, routing_.parent(p)) + rx * instance_->rx_energy();
    }
    NodeState* worker = fullest_live_node(p);
    if (worker != nullptr) {
      worker->battery_j -= energy;
      ++worker->active_rounds;
      if (worker->battery_j < 0.0) {
        worker->dead = true;
        all_alive = false;
      }
    }
    post.tx_bits += tx;
    post.rx_bits += rx;
    post.consumed_j += energy;
    round_consumed += energy;
  }

  originated_total_ += round_originated;
  delivered_total_ += round_delivered;
  dropped_total_ += round_dropped;
  ++rounds_;

  if (config_.sink != nullptr) {
    // Fleet health over surviving hardware: fault-killed nodes are gone.
    double battery_min = 0.0;
    double battery_sum = 0.0;
    std::uint64_t node_count = 0;
    bool first = true;
    for (const auto& post : posts_) {
      for (const auto& node : post.nodes) {
        if (node.failed) continue;
        if (first || node.battery_j < battery_min) battery_min = node.battery_j;
        first = false;
        battery_sum += node.battery_j;
        ++node_count;
      }
    }
    const double battery_mean =
        node_count == 0 ? 0.0 : battery_sum / static_cast<double>(node_count);
    config_.sink->on_sim_round({rounds_, round_consumed, dead_node_count(), battery_min,
                                battery_mean, round_delivered, round_dropped,
                                backlog_bits_total(), faults_applied, round_reroutes});
  }
  emit_progress(false);
  return all_alive;
}

void NetworkSim::emit_progress(bool final_event) {
  if (config_.progress == nullptr) return;
  if (!final_event && !config_.progress->wants("sim")) return;
  obs::ProgressEvent event("sim", final_event);
  event.add("round", static_cast<double>(rounds_));
  event.add("delivery_ratio", delivery_ratio());
  event.add("faults", static_cast<double>(faults_injected_));
  event.add("repairs", static_cast<double>(repair_events_));
  event.add("reroutes", static_cast<double>(reroutes_));
  event.add("dead_nodes", dead_node_count());
  event.add("consumed_j", total_consumed());
  config_.progress->emit(event);
}

void NetworkSim::apply_fault(const Fault& fault, std::uint64_t round, double& round_dropped,
                             int& applied, bool& deployment_changed) {
  const int p = fault.post;
  if (p < 0 || p >= instance_->num_posts()) throw std::out_of_range("fault post out of range");
  if (destroyed_[static_cast<std::size_t>(p)] != 0) return;  // nothing left to break
  int duration = 0;
  switch (fault.kind) {
    case FaultKind::kPostDestroyed:
      destroy_post(p, round_dropped);
      deployment_changed = true;
      break;
    case FaultKind::kNodeDeath: {
      NodeState* worker = fullest_live_node(p);
      if (worker == nullptr) return;
      worker->failed = true;
      --live_nodes_[static_cast<std::size_t>(p)];
      deployment_changed = true;
      if (live_nodes_[static_cast<std::size_t>(p)] == 0) {
        destroy_post(p, round_dropped);  // last node lost: the site goes dark
      } else if (pricer_) {
        pricer_->remove_node(p);
      }
      break;
    }
    case FaultKind::kLinkOutage: {
      if (fault.duration_rounds < 1) {
        throw std::invalid_argument("link outage needs duration_rounds >= 1");
      }
      if (outage_until_[static_cast<std::size_t>(p)] > round) return;  // already down
      outage_until_[static_cast<std::size_t>(p)] =
          round + static_cast<std::uint64_t>(fault.duration_rounds);
      duration = fault.duration_rounds;
      break;
    }
  }
  ++applied;
  ++faults_injected_;
  if (config_.sink != nullptr) {
    config_.sink->on_sim_fault({round + 1, static_cast<int>(fault.kind), p, duration});
  }
}

void NetworkSim::destroy_post(int p, double& round_dropped) {
  auto& post = posts_[static_cast<std::size_t>(p)];
  destroyed_[static_cast<std::size_t>(p)] = 1;
  ++destroyed_count_;
  live_nodes_[static_cast<std::size_t>(p)] = 0;
  for (auto& node : post.nodes) node.failed = true;
  // Buffered reports are lost with the site.
  post.dropped_bits += post.backlog_bits;
  round_dropped += post.backlog_bits;
  post.backlog_bits = 0.0;
  if (pricer_ && !pricer_->is_disabled(p)) pricer_->disable_post(p);
}

NodeState* NetworkSim::fullest_live_node(int p) {
  auto& nodes = posts_[static_cast<std::size_t>(p)].nodes;
  NodeState* best = nullptr;
  for (auto& node : nodes) {
    if (node.failed) continue;
    if (best == nullptr || node.battery_j > best->battery_j) best = &node;
  }
  return best;
}

int NetworkSim::adopt_pricer_parents() {
  int adopted = 0;
  for (int p = 0; p < instance_->num_posts(); ++p) {
    if (destroyed_[static_cast<std::size_t>(p)] != 0) continue;
    const int parent = pricer_->parent(p);
    if (parent < 0) continue;  // cut off from the base: nothing to adopt
    if (routing_.parent(p) != parent) {
      routing_.set_parent(p, parent);
      ++adopted;
    }
  }
  if (adopted > 0) {
    reroutes_ += static_cast<std::uint64_t>(adopted);
    leaves_first_ = routing_.leaves_first_order();
  }
  return adopted;
}

int NetworkSim::run_maintenance() {
  std::vector<int> failed;
  for (int p = 0; p < instance_->num_posts(); ++p) {
    if (destroyed_[static_cast<std::size_t>(p)] != 0) failed.push_back(p);
  }
  if (failed.empty()) return 0;
  // The maintenance crew runs the offline damage assessment: survivor
  // connectivity plus a re-optimized survivor routing on original indices.
  const core::FailureImpact impact = core::assess_failure(*instance_, *solution_, failed);
  if (!impact.connected || !impact.routing_fixed.has_value()) return 0;
  const auto& fixed = impact.routing_fixed->tree;
  int adopted = 0;
  for (int p = 0; p < instance_->num_posts(); ++p) {
    if (destroyed_[static_cast<std::size_t>(p)] != 0) continue;
    const int parent = fixed.parent(p);
    if (parent == graph::RoutingTree::kNoParent) continue;
    if (routing_.parent(p) != parent) {
      routing_.set_parent(p, parent);
      ++adopted;
    }
  }
  if (adopted > 0) {
    reroutes_ += static_cast<std::uint64_t>(adopted);
    leaves_first_ = routing_.leaves_first_order();
  }
  return adopted;
}

void NetworkSim::compute_connectivity(std::uint64_t round) {
  const int n = instance_->num_posts();
  conn_state_.assign(static_cast<std::size_t>(n), 0);
  for (int start = 0; start < n; ++start) {
    if (conn_state_[static_cast<std::size_t>(start)] != 0) continue;
    conn_path_.clear();
    int verdict = 2;
    int v = start;
    int steps = 0;
    while (true) {
      if (v == routing_.base_station()) {
        verdict = 1;
        break;
      }
      if (conn_state_[static_cast<std::size_t>(v)] != 0) {
        verdict = conn_state_[static_cast<std::size_t>(v)];
        break;
      }
      if (destroyed_[static_cast<std::size_t>(v)] != 0 ||
          outage_until_[static_cast<std::size_t>(v)] > round) {
        conn_path_.push_back(v);
        verdict = 2;
        break;
      }
      conn_path_.push_back(v);
      v = routing_.parent(v);
      if (++steps > n + 1) {  // defensive: cannot happen while routing_ is a tree
        verdict = 2;
        break;
      }
    }
    for (int u : conn_path_) conn_state_[static_cast<std::size_t>(u)] = static_cast<char>(verdict);
  }
}

void NetworkSim::record_transitions(std::uint64_t round) {
  const int n = instance_->num_posts();
  for (int p = 0; p < n; ++p) {
    const bool now = conn_state_[static_cast<std::size_t>(p)] == 1;
    const bool before = connected_[static_cast<std::size_t>(p)] != 0;
    if (before && !now) {
      disconnected_since_[static_cast<std::size_t>(p)] = round;
    } else if (!before && now && disconnected_since_[static_cast<std::size_t>(p)] != kNever) {
      const std::uint64_t latency = round - disconnected_since_[static_cast<std::size_t>(p)];
      ++repair_events_;
      repair_latency_sum_ += static_cast<double>(latency);
      if (config_.sink != nullptr) config_.sink->on_sim_repair({round + 1, p, latency});
      disconnected_since_[static_cast<std::size_t>(p)] = kNever;
    }
    connected_[static_cast<std::size_t>(p)] = now ? 1 : 0;
  }
}

void NetworkSim::inject(const Fault& fault) {
  if (fault.post < 0 || fault.post >= instance_->num_posts()) {
    throw std::out_of_range("fault post out of range");
  }
  if (fault.kind == FaultKind::kLinkOutage && fault.duration_rounds < 1) {
    throw std::invalid_argument("link outage needs duration_rounds >= 1");
  }
  pending_faults_.push_back(fault);
}

std::uint64_t NetworkSim::run_rounds(std::uint64_t count, bool stop_on_death) {
  std::uint64_t completed = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const bool alive = run_round();
    ++completed;
    if (stop_on_death && !alive) break;
  }
  emit_progress(true);
  return completed;
}

int NetworkSim::dead_node_count() const noexcept {
  int dead = 0;
  for (const auto& post : posts_) {
    for (const auto& node : post.nodes) dead += node.dead ? 1 : 0;
  }
  return dead;
}

double NetworkSim::battery_spread(int p) const {
  const auto& nodes = posts_.at(static_cast<std::size_t>(p)).nodes;
  const auto [lo, hi] = std::minmax_element(
      nodes.begin(), nodes.end(),
      [](const NodeState& a, const NodeState& b) { return a.battery_j < b.battery_j; });
  return hi->battery_j - lo->battery_j;
}

double NetworkSim::total_consumed() const noexcept {
  double total = 0.0;
  for (const auto& post : posts_) total += post.consumed_j;
  return total;
}

bool NetworkSim::post_alive(int p) const {
  return destroyed_.at(static_cast<std::size_t>(p)) == 0;
}

bool NetworkSim::post_connected(int p) const {
  return connected_.at(static_cast<std::size_t>(p)) != 0;
}

int NetworkSim::failed_node_count() const noexcept {
  int failed = 0;
  for (const auto& post : posts_) {
    for (const auto& node : post.nodes) failed += node.failed ? 1 : 0;
  }
  return failed;
}

double NetworkSim::repair_latency_mean() const noexcept {
  return repair_events_ == 0 ? 0.0 : repair_latency_sum_ / static_cast<double>(repair_events_);
}

double NetworkSim::originated_bits_total() const noexcept { return originated_total_; }
double NetworkSim::delivered_bits_total() const noexcept { return delivered_total_; }
double NetworkSim::dropped_bits_total() const noexcept { return dropped_total_; }

double NetworkSim::backlog_bits_total() const noexcept {
  double total = 0.0;
  for (const auto& post : posts_) total += post.backlog_bits;
  return total;
}

double NetworkSim::delivery_ratio() const noexcept {
  return originated_total_ <= 0.0 ? 1.0 : delivered_total_ / originated_total_;
}

}  // namespace wrsn::sim
