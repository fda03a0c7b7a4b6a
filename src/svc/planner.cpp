#include "svc/planner.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "obs/build_info.hpp"
#include "util/rng.hpp"

namespace wrsn::svc {

core::SolverSpec resolve_solver_spec(const PlanOptions& options) {
  core::SolverSpec spec = core::SolverSpec::parse(options.solver);
  const auto has_option = [&spec](const std::string& key) {
    return std::any_of(spec.options.begin(), spec.options.end(),
                       [&key](const auto& kv) { return kv.first == key; });
  };
  if (spec.name.ends_with("+ls")) {
    if (!has_option("ls-threads")) {
      spec.options.emplace_back("ls-threads", std::to_string(options.ls_threads));
    }
    if (!has_option("ls-strategy")) spec.options.emplace_back("ls-strategy", options.ls_strategy);
  }
  // Same fold-in for the exact solver's parallel/anytime knobs.
  if (spec.name == "exact") {
    if (!has_option("threads")) {
      spec.options.emplace_back("threads", std::to_string(options.exact_threads));
    }
    if (!has_option("split_depth")) {
      spec.options.emplace_back("split_depth", std::to_string(options.exact_split_depth));
    }
    if (!has_option("budget") && options.exact_budget_s > 0.0) {
      char budget_text[32];
      std::snprintf(budget_text, sizeof(budget_text), "%g", options.exact_budget_s);
      spec.options.emplace_back("budget", budget_text);
    }
  }
  return spec;
}

geom::Field sample_field(const Scenario& scenario) {
  const auto radio = energy::RadioModel::uniform_levels(scenario.levels, scenario.range_step);
  util::Rng rng(static_cast<std::uint64_t>(scenario.seed));
  geom::FieldConfig cfg;
  cfg.width = scenario.side;
  cfg.height = scenario.side;
  cfg.num_posts = scenario.posts;
  std::optional<geom::Field> field =
      geom::generate_connected_field(cfg, radio.max_range(), rng, 1000);
  if (!field.has_value()) {
    throw std::runtime_error("could not sample a connected field for the scenario (1000 tries)");
  }
  return std::move(*field);
}

energy::ChargingModel make_charging(const Scenario& scenario) {
  return energy::charging_model_from_name(scenario.charging_kind, scenario.eta,
                                          scenario.charging_param)
      .value();
}

core::Instance build_instance(const Scenario& scenario) {
  const auto radio = energy::RadioModel::uniform_levels(scenario.levels, scenario.range_step);
  return core::Instance::geometric(sample_field(scenario), radio, make_charging(scenario),
                                   scenario.nodes);
}

PlanOutcome run_plan(const core::Instance& instance, const PlanOptions& options,
                     obs::Sink* sink, obs::ProgressSink* progress) {
  const core::SolverSpec spec = resolve_solver_spec(options);
  const std::unique_ptr<core::Solver> engine = core::SolverRegistry::global().create(spec);
  const core::SolverRun run = engine->solve(instance, sink, progress);

  PlanOutcome outcome;
  outcome.solution = run.solution;
  outcome.cost_j_per_bit = run.cost;
  outcome.diagnostics = run.diagnostics;
  outcome.solver_canonical = spec.canonical();

  sim::ChargerConfig charger;
  charger.radiated_power_w = options.charger_power_w;
  charger.speed_mps = options.charger_speed_mps;
  outcome.tour = sim::plan_tour(instance);
  outcome.feasibility = sim::analyze_patrol(instance, outcome.solution, charger,
                                            options.bits_per_report, outcome.tour);
  outcome.bits_per_report = options.bits_per_report;
  return outcome;
}

void add_plan_sections(obs::RunReport& report, const core::Instance& instance,
                       const PlanOutcome& outcome, const std::string& field_label,
                       std::int64_t seed, double eta, int bits_per_report,
                       const std::string& solver_label) {
  report.begin_section("instance")
      .add("posts", instance.num_posts())
      .add("nodes", instance.num_nodes())
      .add("field", field_label)
      .add("seed", seed)
      .add("eta", eta)
      .add("bits_per_report", bits_per_report);
  report.begin_section("solver").add("name", solver_label);
  for (const auto& [key, value] : outcome.diagnostics.items) {
    if (key.rfind("rfh/iter_cost_", 0) == 0) continue;  // keep the report compact
    report.add(key, value);
  }
  report.add("cost_j_per_bit", outcome.cost_j_per_bit);
  report.begin_section("charger")
      .add("tour_length_m", outcome.tour.length_m)
      .add("demand_w", outcome.feasibility.demand_w)
      .add("duty_cycle", outcome.feasibility.duty)
      .add("feasible", outcome.feasibility.feasible);
  if (outcome.feasibility.feasible) {
    report.add("cycle_time_s", outcome.feasibility.cycle_time_s)
        .add("min_battery_j", outcome.feasibility.min_battery_capacity_j);
  }
}

std::string render_plan_report(const core::Instance& instance, const PlanOutcome& outcome,
                               const Scenario& scenario, const std::string& solver_label) {
  obs::RunReport report("wrsn deployment plan");
  add_plan_sections(report, instance, outcome, "generated", scenario.seed, scenario.eta,
                    outcome.bits_per_report, solver_label);
  obs::add_provenance(report);
  std::ostringstream os;
  report.write(os);
  return os.str();
}

}  // namespace wrsn::svc
