#include "sim/charging_policy.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>

#include "sim/charger_sim.hpp"
#include "sim/tour.hpp"

namespace wrsn::sim {

// ---------------------------------------------------------------------------
// PolicyContext: thin accessors over the engine's live state.

int PolicyContext::num_posts() const { return sim_->network_->instance().num_posts(); }
int PolicyContext::num_chargers() const { return sim_->num_chargers(); }
std::uint64_t PolicyContext::round() const { return sim_->stats_.rounds; }
double PolicyContext::now() const { return sim_->queue_.now(); }
const ChargerConfig& PolicyContext::config() const { return sim_->config_; }
double PolicyContext::low_watermark() const { return sim_->config_.low_watermark; }
double PolicyContext::high_watermark() const { return sim_->config_.high_watermark; }
double PolicyContext::min_fraction(int p) const { return sim_->min_fraction(p); }
bool PolicyContext::post_alive(int p) const { return sim_->network_->post_alive(p); }
bool PolicyContext::claimed(int p) const { return sim_->post_claimed(p); }

bool PolicyContext::idle(int c) const {
  return sim_->chargers_[static_cast<std::size_t>(c)].state == ChargerSim::State::Idle;
}

geom::Point PolicyContext::post_position(int p) const { return sim_->post_position(p); }

geom::Point PolicyContext::charger_position(int c) const {
  return sim_->chargers_[static_cast<std::size_t>(c)].position;
}

double PolicyContext::distance(int c, int p) const {
  return geom::distance(charger_position(c), post_position(p));
}

double PolicyContext::expected_round_energy(int p) const {
  return sim_->network_->expected_round_energy()[static_cast<std::size_t>(p)];
}

int PolicyContext::nodes_at(int p) const {
  return static_cast<int>(sim_->network_->posts()[static_cast<std::size_t>(p)].nodes.size());
}

double PolicyContext::battery_capacity_j() const {
  return sim_->network_->config().battery_capacity_j;
}

const core::Instance& PolicyContext::instance() const { return sim_->network_->instance(); }

// ---------------------------------------------------------------------------
// Shared dispatch loops.

namespace {

/// The fleet pairing loop: repeatedly pair the most-urgent unclaimed post
/// (urgency strictly below `watermark`, first index wins ties) with the
/// nearest idle charger (ascending index breaks distance ties) until either
/// side runs out.  With `urgency` = min_fraction this is bit-identical to
/// the frozen reference fleet in tests/test_charging_policy.cpp.
template <class UrgencyFn>
void pair_most_urgent(const PolicyContext& ctx, double watermark, UrgencyFn&& urgency,
                      std::vector<DispatchDecision>& out) {
  const int posts = ctx.num_posts();
  const int chargers = ctx.num_chargers();
  std::vector<char> claimed(static_cast<std::size_t>(posts), 0);
  std::vector<char> busy(static_cast<std::size_t>(chargers), 0);
  for (int p = 0; p < posts; ++p) claimed[static_cast<std::size_t>(p)] = ctx.claimed(p);
  for (int c = 0; c < chargers; ++c) busy[static_cast<std::size_t>(c)] = !ctx.idle(c);

  while (true) {
    int urgent = -1;
    double urgent_value = watermark;
    for (int p = 0; p < posts; ++p) {
      if (claimed[static_cast<std::size_t>(p)] || !ctx.post_alive(p)) continue;
      const double value = urgency(p);
      if (value < urgent_value) {
        urgent = p;
        urgent_value = value;
      }
    }
    if (urgent < 0) return;

    int best_charger = -1;
    double best_distance = std::numeric_limits<double>::infinity();
    for (int c = 0; c < chargers; ++c) {
      if (busy[static_cast<std::size_t>(c)]) continue;
      const double d = ctx.distance(c, urgent);
      if (d < best_distance) {
        best_distance = d;
        best_charger = c;
      }
    }
    if (best_charger < 0) return;  // every charger busy

    claimed[static_cast<std::size_t>(urgent)] = 1;
    busy[static_cast<std::size_t>(best_charger)] = 1;
    out.push_back(DispatchDecision{best_charger, urgent});
  }
}

/// The single-charger patrol's target rule, generalized to a fleet by
/// letting each idle charger (ascending index) pick in turn: smallest
/// min-fraction wins, distance breaks epsilon-ties (nearer wins).
void pick_per_charger_distance(const PolicyContext& ctx, std::vector<DispatchDecision>& out) {
  const int posts = ctx.num_posts();
  const int chargers = ctx.num_chargers();
  std::vector<char> claimed(static_cast<std::size_t>(posts), 0);
  for (int p = 0; p < posts; ++p) claimed[static_cast<std::size_t>(p)] = ctx.claimed(p);

  for (int c = 0; c < chargers; ++c) {
    if (!ctx.idle(c)) continue;
    int best = -1;
    double best_fraction = ctx.low_watermark();
    double best_distance = std::numeric_limits<double>::infinity();
    for (int p = 0; p < posts; ++p) {
      if (claimed[static_cast<std::size_t>(p)] || !ctx.post_alive(p)) continue;
      const double fraction = ctx.min_fraction(p);
      if (fraction >= ctx.low_watermark()) continue;
      const double dist = ctx.distance(c, p);
      if (fraction < best_fraction - 1e-12 ||
          (fraction < best_fraction + 1e-12 && dist < best_distance)) {
        best = p;
        best_fraction = fraction;
        best_distance = dist;
      }
    }
    if (best < 0) continue;
    claimed[static_cast<std::size_t>(best)] = 1;
    out.push_back(DispatchDecision{c, best});
  }
}

// ---------------------------------------------------------------------------
// Built-in policies.

/// Most-urgent-deficit-first dispatch.  tiebreak=urgency (default) is the
/// fleet pairing rule at any fleet size; tiebreak=distance is the
/// single-charger patrol rule.
class NearestDeficitPolicy final : public ChargingPolicy {
 public:
  NearestDeficitPolicy(std::string name, bool distance_tiebreak)
      : ChargingPolicy(std::move(name)), distance_tiebreak_(distance_tiebreak) {}

  void observe(const PolicyContext& ctx, std::vector<DispatchDecision>& out) override {
    if (distance_tiebreak_) {
      pick_per_charger_distance(ctx, out);
    } else {
      pair_most_urgent(ctx, ctx.low_watermark(), [&](int p) { return ctx.min_fraction(p); },
                       out);
    }
  }

 private:
  bool distance_tiebreak_;
};

/// Naive baseline: index-order scan, first idle charger to every post below
/// the threshold.  No urgency ordering, no distance awareness.
class ThresholdPolicy final : public ChargingPolicy {
 public:
  ThresholdPolicy(std::string name, double low) : ChargingPolicy(std::move(name)), low_(low) {}

  void observe(const PolicyContext& ctx, std::vector<DispatchDecision>& out) override {
    const double threshold = low_ >= 0.0 ? low_ : ctx.low_watermark();
    const int posts = ctx.num_posts();
    const int chargers = ctx.num_chargers();
    std::vector<char> busy(static_cast<std::size_t>(chargers), 0);
    for (int c = 0; c < chargers; ++c) busy[static_cast<std::size_t>(c)] = !ctx.idle(c);
    for (int p = 0; p < posts; ++p) {
      if (ctx.claimed(p) || !ctx.post_alive(p)) continue;
      if (ctx.min_fraction(p) >= threshold) continue;
      int charger = -1;
      for (int c = 0; c < chargers; ++c) {
        if (!busy[static_cast<std::size_t>(c)]) {
          charger = c;
          break;
        }
      }
      if (charger < 0) return;
      busy[static_cast<std::size_t>(charger)] = 1;
      out.push_back(DispatchDecision{charger, p});
    }
  }

 private:
  double low_;  // < 0 = use the config's low watermark
};

/// Battery-oblivious schedule: every `every` rounds the whole field is
/// enqueued in tour order (sim/tour.hpp's nearest-neighbor + 2-opt route)
/// and idle chargers work the queue down.  The queue refills only once
/// empty, so an undersized fleet slips the schedule instead of piling up.
class PeriodicPolicy final : public ChargingPolicy {
 public:
  PeriodicPolicy(std::string name, int every) : ChargingPolicy(std::move(name)), every_(every) {}

  void round_observed(const PolicyContext& ctx) override {
    if (ctx.round() % static_cast<std::uint64_t>(every_) != 0) return;
    if (!pending_.empty()) return;
    ensure_order(ctx);
    for (int p : order_) {
      if (ctx.post_alive(p)) pending_.push_back(p);
    }
  }

  void observe(const PolicyContext& ctx, std::vector<DispatchDecision>& out) override {
    const int chargers = ctx.num_chargers();
    std::vector<char> busy(static_cast<std::size_t>(chargers), 0);
    for (int c = 0; c < chargers; ++c) busy[static_cast<std::size_t>(c)] = !ctx.idle(c);
    while (!pending_.empty()) {
      const int post = pending_.front();
      if (ctx.claimed(post) || !ctx.post_alive(post)) {
        pending_.pop_front();
        continue;
      }
      int charger = -1;
      for (int c = 0; c < chargers; ++c) {
        if (!busy[static_cast<std::size_t>(c)]) {
          charger = c;
          break;
        }
      }
      if (charger < 0) return;  // stop is kept pending for the next idle charger
      busy[static_cast<std::size_t>(charger)] = 1;
      pending_.pop_front();
      out.push_back(DispatchDecision{charger, post});
    }
  }

 private:
  void ensure_order(const PolicyContext& ctx) {
    if (!order_.empty() || ctx.num_posts() == 0) return;
    if (ctx.instance().field()) {
      order_ = plan_tour(ctx.instance()).order;
    } else {
      order_.resize(static_cast<std::size_t>(ctx.num_posts()));
      for (int p = 0; p < ctx.num_posts(); ++p) order_[static_cast<std::size_t>(p)] = p;
    }
  }

  int every_;
  std::vector<int> order_;
  std::deque<int> pending_;
};

/// Dispatches on the *projected* deficit `horizon` rounds out: a post whose
/// emptiest node will cross the low watermark within the horizon is served
/// before it actually does, trading extra visits for headroom.  Projection:
/// the post draws expected_round_energy per round, amortized over its m
/// rotating nodes.
class LookaheadPolicy final : public ChargingPolicy {
 public:
  LookaheadPolicy(std::string name, double horizon)
      : ChargingPolicy(std::move(name)), horizon_(horizon) {}

  void observe(const PolicyContext& ctx, std::vector<DispatchDecision>& out) override {
    const double capacity = ctx.battery_capacity_j();
    pair_most_urgent(
        ctx, ctx.low_watermark(),
        [&](int p) {
          const int m = ctx.nodes_at(p);
          if (m == 0) return std::numeric_limits<double>::infinity();
          const double drain_per_round = ctx.expected_round_energy(p) / (m * capacity);
          return ctx.min_fraction(p) - horizon_ * drain_per_round;
        },
        out);
  }

 private:
  double horizon_;
};

/// Tunes its dispatch threshold online from the observed deficit stream (in
/// the spirit of the DRL adaptive-charging literature, but deterministic):
/// each round the fleet-wide minimum battery fraction is compared against
/// `target`, and the threshold integrates the error with `gain`.  Networks
/// that run hot (minima below target) get served earlier; networks with
/// headroom shed visits.
class AdaptivePolicy final : public ChargingPolicy {
 public:
  AdaptivePolicy(std::string name, double target, double gain)
      : ChargingPolicy(std::move(name)), target_(target), gain_(gain) {}

  void round_observed(const PolicyContext& ctx) override {
    if (std::isnan(threshold_)) threshold_ = ctx.low_watermark();
    double observed_min = std::numeric_limits<double>::infinity();
    for (int p = 0; p < ctx.num_posts(); ++p) {
      if (!ctx.post_alive(p)) continue;
      observed_min = std::min(observed_min, ctx.min_fraction(p));
    }
    if (!std::isfinite(observed_min)) return;
    const double ceiling = ctx.high_watermark() - 0.05;
    threshold_ = std::clamp(threshold_ + gain_ * (target_ - observed_min), 0.05, ceiling);
  }

  void observe(const PolicyContext& ctx, std::vector<DispatchDecision>& out) override {
    const double watermark = std::isnan(threshold_) ? ctx.low_watermark() : threshold_;
    pair_most_urgent(ctx, watermark, [&](int p) { return ctx.min_fraction(p); }, out);
  }

  double threshold() const noexcept { return threshold_; }

 private:
  double target_;
  double gain_;
  double threshold_ = std::numeric_limits<double>::quiet_NaN();
};

/// Never dispatches: the network lives off fixed charger infrastructure
/// (core::place_chargers feeding ChargerSim's `fixed` parameter).
class FixedInfrastructurePolicy final : public ChargingPolicy {
 public:
  explicit FixedInfrastructurePolicy(std::string name) : ChargingPolicy(std::move(name)) {}
  void observe(const PolicyContext&, std::vector<DispatchDecision>&) override {}
};

void register_builtins(ChargingPolicyRegistry& registry) {
  registry.add(
      "nearest-deficit",
      "legacy most-urgent-deficit dispatch (tiebreak=urgency|distance)",
      [](const core::SolverSpec& spec) -> std::unique_ptr<ChargingPolicy> {
        core::SolverOptionReader options(spec);
        const std::string tiebreak = options.get_string("tiebreak", "urgency");
        options.check_all_consumed();
        if (tiebreak != "urgency" && tiebreak != "distance") {
          throw std::invalid_argument("nearest-deficit tiebreak must be urgency|distance");
        }
        return std::make_unique<NearestDeficitPolicy>(spec.canonical(),
                                                      tiebreak == "distance");
      });
  registry.add(
      "threshold", "index-order scan below a fixed threshold (low=<fraction>)",
      [](const core::SolverSpec& spec) -> std::unique_ptr<ChargingPolicy> {
        core::SolverOptionReader options(spec);
        const double low = options.get_double("low", -1.0);
        options.check_all_consumed();
        if (low >= 0.0 && low > 1.0) {
          throw std::invalid_argument("threshold low must be in [0, 1]");
        }
        return std::make_unique<ThresholdPolicy>(spec.canonical(), low);
      });
  registry.add(
      "periodic", "tour-order visits every N rounds (every=<rounds>)",
      [](const core::SolverSpec& spec) -> std::unique_ptr<ChargingPolicy> {
        core::SolverOptionReader options(spec);
        const int every = options.get_int("every", 50);
        options.check_all_consumed();
        if (every < 1) throw std::invalid_argument("periodic every must be >= 1 round");
        return std::make_unique<PeriodicPolicy>(spec.canonical(), every);
      });
  registry.add(
      "lookahead", "projected-deficit urgency (horizon=<rounds>)",
      [](const core::SolverSpec& spec) -> std::unique_ptr<ChargingPolicy> {
        core::SolverOptionReader options(spec);
        const double horizon = options.get_double("horizon", 5.0);
        options.check_all_consumed();
        if (horizon < 0.0) throw std::invalid_argument("lookahead horizon must be >= 0");
        return std::make_unique<LookaheadPolicy>(spec.canonical(), horizon);
      });
  registry.add(
      "adaptive",
      "online threshold tuning from observed deficits (target=<fraction>, gain=<g>)",
      [](const core::SolverSpec& spec) -> std::unique_ptr<ChargingPolicy> {
        core::SolverOptionReader options(spec);
        const double target = options.get_double("target", 0.35);
        const double gain = options.get_double("gain", 0.05);
        options.check_all_consumed();
        if (target <= 0.0 || target >= 1.0) {
          throw std::invalid_argument("adaptive target must be in (0, 1)");
        }
        if (gain <= 0.0) throw std::invalid_argument("adaptive gain must be positive");
        return std::make_unique<AdaptivePolicy>(spec.canonical(), target, gain);
      });
  registry.add(
      "fixed", "no mobile dispatch; placement-backed fixed chargers only",
      [](const core::SolverSpec& spec) -> std::unique_ptr<ChargingPolicy> {
        core::SolverOptionReader options(spec);
        options.check_all_consumed();
        return std::make_unique<FixedInfrastructurePolicy>(spec.canonical());
      });
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry.

ChargingPolicyRegistry& ChargingPolicyRegistry::global() {
  static ChargingPolicyRegistry* registry = [] {
    auto* r = new ChargingPolicyRegistry();
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

void ChargingPolicyRegistry::add(std::string name, std::string help, Factory factory) {
  for (const auto& [existing, entry] : entries_) {
    if (existing == name) {
      throw std::invalid_argument("charging policy '" + name + "' is already registered");
    }
  }
  entries_.emplace_back(std::move(name), Entry{std::move(help), std::move(factory)});
}

bool ChargingPolicyRegistry::contains(std::string_view name) const {
  for (const auto& [existing, entry] : entries_) {
    if (existing == name) return true;
  }
  return false;
}

std::vector<std::string> ChargingPolicyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

std::string ChargingPolicyRegistry::help(std::string_view name) const {
  for (const auto& [existing, entry] : entries_) {
    if (existing == name) return entry.help;
  }
  return {};
}

std::unique_ptr<ChargingPolicy> ChargingPolicyRegistry::create(
    std::string_view spec_text) const {
  return create(core::SolverSpec::parse(spec_text));
}

std::unique_ptr<ChargingPolicy> ChargingPolicyRegistry::create(
    const core::SolverSpec& spec) const {
  for (const auto& [name, entry] : entries_) {
    if (name == spec.name) return entry.factory(spec);
  }
  std::string message = "unknown charging policy '" + spec.name + "' (registered:";
  for (const std::string& name : names()) message += " " + name;
  message += ")";
  throw std::invalid_argument(message);
}

std::unique_ptr<ChargingPolicy> make_charging_policy(std::string_view spec) {
  return ChargingPolicyRegistry::global().create(spec);
}

}  // namespace wrsn::sim
