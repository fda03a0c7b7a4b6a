#include "exp/spec.hpp"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/solver.hpp"
#include "geom/field.hpp"
#include "sim/charging_policy.hpp"
#include "sim/fault_model.hpp"
#include "util/rng.hpp"

namespace wrsn::exp {
namespace {

[[noreturn]] void bad_spec(const std::string& what) { throw std::invalid_argument(what); }

std::string seed_mode_name(SeedMode mode) {
  return mode == SeedMode::kPaired ? "paired" : "independent";
}

SeedMode seed_mode_from_name(const std::string& name) {
  if (name == "paired") return SeedMode::kPaired;
  if (name == "independent") return SeedMode::kIndependent;
  throw io::JsonError("unknown seed mode '" + name + "' (expected paired|independent)");
}

io::Json int_axis_to_json(const std::vector<int>& axis) {
  io::Json out = io::Json::array();
  for (int v : axis) out.push_back(io::Json(v));
  return out;
}

io::Json double_axis_to_json(const std::vector<double>& axis) {
  io::Json out = io::Json::array();
  for (double v : axis) out.push_back(io::Json(v));
  return out;
}

std::vector<int> int_axis_from_json(const io::Json& json) {
  std::vector<int> out;
  for (const io::Json& v : json.as_array()) out.push_back(v.as_int());
  return out;
}

std::vector<double> double_axis_from_json(const io::Json& json) {
  std::vector<double> out;
  for (const io::Json& v : json.as_array()) out.push_back(v.as_double());
  return out;
}

energy::ChargingModel make_charging(const SweepSpec& spec, double eta) {
  if (auto model = energy::charging_model_from_name(spec.charging_kind, eta, spec.charging_param)) {
    return *model;
  }
  bad_spec("unknown charging kind '" + spec.charging_kind +
           "' (expected linear|sublinear|saturating)");
}

// Parses `text` and reports whether it is an `exact` solver spec without an
// explicit `threads=` option, i.e. a fan-out candidate for the
// exact_threads axis.  Malformed specs are passed through untouched so the
// solver registry reports the real syntax error.
bool is_unpinned_exact_spec(const std::string& text) {
  try {
    const core::SolverSpec spec = core::SolverSpec::parse(text);
    if (spec.name != "exact") return false;
    for (const auto& [key, value] : spec.options) {
      if (key == "threads") return false;
    }
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

}  // namespace

std::string ScenarioConfig::label() const {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "N=%d M=%d k=%d eta=%g", posts, nodes, levels, eta);
  std::string out = buffer;
  if (hazard != 0.0) {
    std::snprintf(buffer, sizeof(buffer), " hz=%g", hazard);
    out += buffer;
  }
  return out;
}

void SweepSpec::validate() const {
  if (name.empty()) bad_spec("scenario name must not be empty");
  if (side <= 0.0) bad_spec("field side must be positive");
  if (range_step <= 0.0) bad_spec("radio range step must be positive");
  if (posts_axis.empty() || nodes_axis.empty() || levels_axis.empty() || eta_axis.empty() ||
      hazard_axis.empty()) {
    bad_spec("every sweep axis needs at least one value");
  }
  if (runs < 1) bad_spec("runs must be >= 1");
  if (solvers.empty()) bad_spec("at least one solver spec is required");
  if (!exact_threads_axis.empty()) {
    for (int threads : exact_threads_axis) {
      if (threads < 1) bad_spec("exact_threads axis values must be >= 1");
    }
    bool any_exact = false;
    for (const std::string& solver : solvers) {
      if (is_unpinned_exact_spec(solver)) any_exact = true;
    }
    if (!any_exact) {
      bad_spec("an exact_threads axis requires an 'exact' solver spec without "
               "an explicit threads= option");
    }
  }
  make_charging(*this, eta_axis.front());  // throws on an unknown kind
  for (int posts : posts_axis) {
    if (posts < 1) bad_spec("posts axis values must be >= 1");
  }
  for (int levels : levels_axis) {
    if (levels < 1) bad_spec("levels axis values must be >= 1");
  }
  for (double eta : eta_axis) {
    if (eta <= 0.0 || eta >= 1.0) bad_spec("eta axis values must be in (0, 1)");
  }
  for (double hazard : hazard_axis) {
    if (!(hazard >= 0.0) || hazard >= 1.0) bad_spec("hazard axis values must be in [0, 1)");
  }
  if (sim_rounds < 0) bad_spec("sim rounds must be >= 0");
  if (sim_rounds > 0) {
    if (sim_bits_per_report < 1) bad_spec("sim bits per report must be >= 1");
    if (sim_battery_j <= 0.0) bad_spec("sim battery capacity must be positive");
    if (sim_backlog_reports < 0) bad_spec("sim backlog bound must be >= 0 reports");
    if (sim_link_outage_rounds < 1) bad_spec("sim link outage duration must be >= 1 round");
    if (!(sim_node_death_hazard >= 0.0) || sim_node_death_hazard >= 1.0) {
      bad_spec("sim node death hazard must be in [0, 1)");
    }
    if (!(sim_link_outage_hazard >= 0.0) || sim_link_outage_hazard >= 1.0) {
      bad_spec("sim link outage hazard must be in [0, 1)");
    }
    if (sim_maintenance_period < 1) bad_spec("sim maintenance period must be >= 1 round");
    try {
      sim::repair_policy_from_name(sim_repair);
    } catch (const std::invalid_argument& error) {
      bad_spec(error.what());
    }
  } else if (policies_to_evaluate.empty()) {
    for (double hazard : hazard_axis) {
      if (hazard != 0.0) {
        bad_spec("a non-zero hazard axis requires sim_rounds > 0 or a policy stage");
      }
    }
  }
  if (!policies_to_evaluate.empty()) {
    for (const std::string& policy : policies_to_evaluate) {
      try {
        sim::ChargingPolicyRegistry::global().create(policy);
      } catch (const std::invalid_argument& error) {
        bad_spec(error.what());
      }
    }
    if (policy_rounds < 1) bad_spec("policy rounds must be >= 1");
    if (policy_fleet < 1) bad_spec("policy fleet size must be >= 1");
    if (policy_bits_per_report < 1) bad_spec("policy bits per report must be >= 1");
    if (policy_battery_j <= 0.0) bad_spec("policy battery capacity must be positive");
    if (policy_speed_mps <= 0.0 || policy_power_w <= 0.0 || policy_travel_power_w < 0.0 ||
        policy_round_period_s <= 0.0) {
      bad_spec("policy charger speed, power and round period must be positive");
    }
    if (!(policy_low_watermark < policy_high_watermark) || policy_high_watermark > 1.0 ||
        policy_low_watermark < 0.0) {
      bad_spec("policy watermarks must satisfy 0 <= low < high <= 1");
    }
    if (placement_radius_m <= 0.0 || placement_power_w <= 0.0 ||
        placement_max_duty <= 0.0) {
      bad_spec("placement radius, power and max duty must be positive");
    }
    if (placement_max_chargers < 0) bad_spec("placement charger budget must be >= 0");
  }
}

std::vector<ScenarioConfig> SweepSpec::expand() const {
  std::vector<ScenarioConfig> configs;
  configs.reserve(static_cast<std::size_t>(num_configs()));
  for (int posts : posts_axis) {
    for (int nodes : nodes_axis) {
      for (int levels : levels_axis) {
        for (double eta : eta_axis) {
          for (double hazard : hazard_axis) {
            configs.push_back(ScenarioConfig{posts, nodes, levels, eta, hazard});
          }
        }
      }
    }
  }
  return configs;
}

std::vector<std::string> SweepSpec::expanded_solvers() const {
  if (exact_threads_axis.empty()) return solvers;
  std::vector<std::string> out;
  out.reserve(solvers.size() + exact_threads_axis.size());
  for (const std::string& text : solvers) {
    if (!is_unpinned_exact_spec(text)) {
      out.push_back(text);
      continue;
    }
    core::SolverSpec spec = core::SolverSpec::parse(text);
    for (int threads : exact_threads_axis) {
      core::SolverSpec fanned = spec;
      fanned.options.emplace_back("threads", std::to_string(threads));
      out.push_back(fanned.canonical());
    }
  }
  return out;
}

int SweepSpec::num_configs() const noexcept {
  return static_cast<int>(posts_axis.size() * nodes_axis.size() * levels_axis.size() *
                          eta_axis.size() * hazard_axis.size());
}

std::uint64_t SweepSpec::field_seed(int config_index, int run) const {
  if (seed_mode == SeedMode::kPaired) {
    return base_seed + static_cast<std::uint64_t>(run) * seed_stride;
  }
  const std::uint64_t trial =
      static_cast<std::uint64_t>(config_index) * static_cast<std::uint64_t>(runs) +
      static_cast<std::uint64_t>(run);
  return util::derive_seed(base_seed, trial);
}

std::uint64_t SweepSpec::sim_seed(int config_index, int run) const {
  const std::uint64_t trial =
      static_cast<std::uint64_t>(config_index) * static_cast<std::uint64_t>(runs) +
      static_cast<std::uint64_t>(run);
  // Salted so the fault stream is decorrelated from the field stream even
  // in independent seed mode (where field_seed uses the same derivation).
  return util::derive_seed(base_seed ^ 0x5afe'fa17'70f5'eedbULL, trial);
}

core::Instance SweepSpec::build_instance(const ScenarioConfig& config,
                                         std::uint64_t field_seed) const {
  geom::FieldConfig field_config;
  field_config.width = side;
  field_config.height = side;
  field_config.num_posts = config.posts;
  const auto radio = energy::RadioModel::uniform_levels(config.levels, range_step);
  util::Rng rng(field_seed);
  std::optional<geom::Field> field =
      geom::generate_connected_field(field_config, radio.max_range(), rng, 10000);
  if (!field.has_value()) {
    throw std::runtime_error("could not sample a connected field for " + config.label());
  }
  return core::Instance::geometric(std::move(*field), radio, make_charging(*this, config.eta),
                                   config.nodes);
}

io::Json SweepSpec::to_json() const {
  io::Json field = io::Json::object();
  field.set("side", io::Json(side));
  field.set("range_step", io::Json(range_step));

  io::Json charging = io::Json::object();
  charging.set("kind", io::Json(charging_kind));
  charging.set("param", io::Json(charging_param));

  io::Json axes = io::Json::object();
  axes.set("posts", int_axis_to_json(posts_axis));
  axes.set("nodes", int_axis_to_json(nodes_axis));
  axes.set("levels", int_axis_to_json(levels_axis));
  axes.set("eta", double_axis_to_json(eta_axis));
  // Emitted only when non-default so legacy scenarios keep their canonical
  // dump -- and therefore their checkpoint fingerprint -- byte-identical.
  if (!(hazard_axis.size() == 1 && hazard_axis.front() == 0.0)) {
    axes.set("hazard", double_axis_to_json(hazard_axis));
  }
  // Same rule: the exact-thread fan-out only appears when in use.
  if (!exact_threads_axis.empty()) {
    axes.set("exact_threads", int_axis_to_json(exact_threads_axis));
  }

  io::Json seed = io::Json::object();
  seed.set("base", io::Json(base_seed));
  seed.set("mode", io::Json(seed_mode_name(seed_mode)));
  seed.set("stride", io::Json(seed_stride));

  io::Json solver_list = io::Json::array();
  for (const std::string& solver : solvers) solver_list.push_back(io::Json(solver));

  io::Json out = io::Json::object();
  out.set("format", io::Json(std::string("wrsn-scenario v1")));
  out.set("name", io::Json(name));
  out.set("field", std::move(field));
  out.set("charging", std::move(charging));
  out.set("axes", std::move(axes));
  out.set("runs", io::Json(runs));
  out.set("seed", std::move(seed));
  out.set("solvers", std::move(solver_list));
  // The simulation stage block is emitted only when active (same
  // fingerprint-stability rationale as the hazard axis above).
  if (sim_rounds > 0) {
    io::Json sim = io::Json::object();
    sim.set("rounds", io::Json(sim_rounds));
    sim.set("bits_per_report", io::Json(sim_bits_per_report));
    sim.set("battery_j", io::Json(sim_battery_j));
    sim.set("backlog_reports", io::Json(sim_backlog_reports));
    sim.set("link_outage_rounds", io::Json(sim_link_outage_rounds));
    sim.set("node_death_hazard", io::Json(sim_node_death_hazard));
    sim.set("link_outage_hazard", io::Json(sim_link_outage_hazard));
    sim.set("repair", io::Json(sim_repair));
    sim.set("maintenance_period", io::Json(sim_maintenance_period));
    out.set("sim", std::move(sim));
  }
  // Same rule for the charging-policy stage: no policies, no block, so
  // legacy scenarios (and their fingerprints) stay byte-identical.
  if (!policies_to_evaluate.empty()) {
    io::Json evaluate = io::Json::array();
    for (const std::string& policy : policies_to_evaluate) {
      evaluate.push_back(io::Json(policy));
    }
    io::Json placement = io::Json::object();
    placement.set("radius_m", io::Json(placement_radius_m));
    placement.set("power_w", io::Json(placement_power_w));
    placement.set("max_chargers", io::Json(placement_max_chargers));
    placement.set("max_duty", io::Json(placement_max_duty));
    io::Json policies = io::Json::object();
    policies.set("evaluate", std::move(evaluate));
    policies.set("rounds", io::Json(policy_rounds));
    policies.set("fleet", io::Json(policy_fleet));
    policies.set("bits_per_report", io::Json(policy_bits_per_report));
    policies.set("battery_j", io::Json(policy_battery_j));
    policies.set("speed_mps", io::Json(policy_speed_mps));
    policies.set("power_w", io::Json(policy_power_w));
    policies.set("travel_power_w", io::Json(policy_travel_power_w));
    policies.set("low_watermark", io::Json(policy_low_watermark));
    policies.set("high_watermark", io::Json(policy_high_watermark));
    policies.set("round_period_s", io::Json(policy_round_period_s));
    policies.set("placement", std::move(placement));
    out.set("policies", std::move(policies));
  }
  return out;
}

SweepSpec SweepSpec::from_json(const io::Json& json) {
  if (json.at("format").as_string() != "wrsn-scenario v1") {
    throw io::JsonError("not a wrsn-scenario v1 document (format = '" +
                        json.at("format").as_string() + "')");
  }
  SweepSpec spec;
  spec.name = json.at("name").as_string();
  const io::Json& field = json.at("field");
  spec.side = field.at("side").as_double();
  spec.range_step = field.at("range_step").as_double();
  const io::Json& charging = json.at("charging");
  spec.charging_kind = charging.at("kind").as_string();
  spec.charging_param = charging.at("param").as_double();
  const io::Json& axes = json.at("axes");
  spec.posts_axis = int_axis_from_json(axes.at("posts"));
  spec.nodes_axis = int_axis_from_json(axes.at("nodes"));
  spec.levels_axis = int_axis_from_json(axes.at("levels"));
  spec.eta_axis = double_axis_from_json(axes.at("eta"));
  if (const io::Json* hazard = axes.find("hazard")) {
    spec.hazard_axis = double_axis_from_json(*hazard);
  }
  if (const io::Json* exact_threads = axes.find("exact_threads")) {
    spec.exact_threads_axis = int_axis_from_json(*exact_threads);
  }
  spec.runs = json.at("runs").as_int();
  const io::Json& seed = json.at("seed");
  spec.base_seed = seed.at("base").as_uint64();
  spec.seed_mode = seed_mode_from_name(seed.at("mode").as_string());
  spec.seed_stride = seed.at("stride").as_uint64();
  spec.solvers.clear();
  for (const io::Json& solver : json.at("solvers").as_array()) {
    spec.solvers.push_back(solver.as_string());
  }
  if (const io::Json* sim = json.find("sim")) {
    spec.sim_rounds = sim->at("rounds").as_int();
    spec.sim_bits_per_report = sim->at("bits_per_report").as_int();
    spec.sim_battery_j = sim->at("battery_j").as_double();
    spec.sim_backlog_reports = sim->at("backlog_reports").as_int();
    spec.sim_link_outage_rounds = sim->at("link_outage_rounds").as_int();
    spec.sim_node_death_hazard = sim->at("node_death_hazard").as_double();
    spec.sim_link_outage_hazard = sim->at("link_outage_hazard").as_double();
    spec.sim_repair = sim->at("repair").as_string();
    spec.sim_maintenance_period = sim->at("maintenance_period").as_int();
  }
  if (const io::Json* policies = json.find("policies")) {
    spec.policies_to_evaluate.clear();
    for (const io::Json& policy : policies->at("evaluate").as_array()) {
      spec.policies_to_evaluate.push_back(policy.as_string());
    }
    spec.policy_rounds = policies->at("rounds").as_int();
    spec.policy_fleet = policies->at("fleet").as_int();
    spec.policy_bits_per_report = policies->at("bits_per_report").as_int();
    spec.policy_battery_j = policies->at("battery_j").as_double();
    spec.policy_speed_mps = policies->at("speed_mps").as_double();
    spec.policy_power_w = policies->at("power_w").as_double();
    spec.policy_travel_power_w = policies->at("travel_power_w").as_double();
    spec.policy_low_watermark = policies->at("low_watermark").as_double();
    spec.policy_high_watermark = policies->at("high_watermark").as_double();
    spec.policy_round_period_s = policies->at("round_period_s").as_double();
    const io::Json& placement = policies->at("placement");
    spec.placement_radius_m = placement.at("radius_m").as_double();
    spec.placement_power_w = placement.at("power_w").as_double();
    spec.placement_max_chargers = placement.at("max_chargers").as_int();
    spec.placement_max_duty = placement.at("max_duty").as_double();
  }
  spec.validate();
  return spec;
}

void SweepSpec::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
  out << to_json().dump(2) << "\n";
  if (!out) throw std::runtime_error("failed writing scenario to '" + path + "'");
}

SweepSpec SweepSpec::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json(io::Json::parse(buffer.str()));
}

std::uint64_t fingerprint_text(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a 64-bit offset basis
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t SweepSpec::fingerprint() const {
  return fingerprint_text(to_json().dump());
}

std::string SweepSpec::fingerprint_hex(std::uint64_t fingerprint) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

}  // namespace wrsn::exp
