#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "core/charger_placement.hpp"
#include "core/solution.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "sim/charger_sim.hpp"
#include "sim/charging_policy.hpp"
#include "sim/network_sim.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace wrsn::exp {
namespace {

constexpr const char* kCheckpointHeader = "wrsn-exp-checkpoint v1";

/// %.17g: enough digits that parsing the text recovers the exact double, so
/// resumed rows are bit-identical to freshly computed ones.
std::string checkpoint_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Shortest round-trip decimal (io::Json's number formatting) for artifacts.
std::string artifact_double(double value) { return io::Json(value).dump(); }

/// Runner-computed solution facts appended to every ok outcome: the figure
/// formatters need them (fig10's level usage, the eta ablation's max
/// deployment) and they come from the Solution, not the solver.
void add_solution_facts(const core::Instance& instance, const core::Solution& solution,
                        core::SolverDiagnostics& diagnostics) {
  int max_m = 0;
  for (int m : solution.deployment) max_m = std::max(max_m, m);
  diagnostics.add("sol/max_m", max_m);
  const std::vector<int> levels = core::solution_levels(instance, solution);
  int used_max = 0;
  int long_hops = 0;
  for (int level : levels) {
    used_max = std::max(used_max, level);
    long_hops += level >= 3 ? 1 : 0;  // fig10's "hops at level >= 3" share
  }
  diagnostics.add("sol/max_level", used_max + 1);  // 1-based for readability
  diagnostics.add("sol/long_hop_share",
                  100.0 * long_hops / static_cast<double>(levels.empty() ? 1 : levels.size()));
}

/// Post-solve simulation stage: runs the solution through sim::NetworkSim
/// under the trial's fault sequence and folds the resilience outcomes into
/// the diagnostics (so they flow through checkpoints, CSV and JSON without
/// any format change).  Every solver on a trial sees the same fault seed --
/// delivery ratios compare paired, like costs do.
void add_simulation_facts(const SweepSpec& spec, const TrialRow& row,
                          const core::Instance& instance, const core::Solution& solution,
                          core::SolverDiagnostics& diagnostics) {
  sim::NetworkConfig config;
  config.bits_per_report = spec.sim_bits_per_report;
  config.battery_capacity_j = spec.sim_battery_j;
  config.backlog_capacity_reports = spec.sim_backlog_reports;
  config.faults.seed = spec.sim_seed(row.config_index, row.run);
  config.faults.post_destruction_hazard = row.config.hazard;
  config.faults.node_death_hazard = spec.sim_node_death_hazard;
  config.faults.link_outage_hazard = spec.sim_link_outage_hazard;
  config.faults.link_outage_rounds = spec.sim_link_outage_rounds;
  config.repair = sim::repair_policy_from_name(spec.sim_repair);
  config.maintenance_period = spec.sim_maintenance_period;

  sim::NetworkSim sim(instance, solution, config);
  sim.run_rounds(static_cast<std::uint64_t>(spec.sim_rounds));

  diagnostics.add("sim/delivery_ratio", sim.delivery_ratio());
  diagnostics.add("sim/delivered_bits", sim.delivered_bits_total());
  diagnostics.add("sim/dropped_bits", sim.dropped_bits_total());
  diagnostics.add("sim/faults", static_cast<double>(sim.faults_injected()));
  diagnostics.add("sim/reroutes", static_cast<double>(sim.reroutes()));
  diagnostics.add("sim/repair_latency_mean", sim.repair_latency_mean());
  diagnostics.add("sim/destroyed_posts", sim.destroyed_post_count());
  diagnostics.add("sim/dead_nodes", sim.dead_node_count());
}

/// Charging-policy evaluation stage: co-simulates the solution once per
/// policy spec under the SAME fault seed and charger parameters, so the
/// per-policy outcomes compare paired across policies, solvers and trials.
/// The spec "fixed" runs zero mobile chargers over the greedy
/// core::place_chargers result instead of a mobile fleet.
void add_policy_facts(const SweepSpec& spec, const TrialRow& row,
                      const core::Instance& instance, const core::Solution& solution,
                      core::SolverDiagnostics& diagnostics) {
  for (std::size_t i = 0; i < spec.policies_to_evaluate.size(); ++i) {
    const std::string& policy_spec = spec.policies_to_evaluate[i];
    const std::string prefix = "pol" + std::to_string(i);

    sim::NetworkConfig net_config;
    net_config.bits_per_report = spec.policy_bits_per_report;
    net_config.battery_capacity_j = spec.policy_battery_j;
    net_config.faults.seed = spec.sim_seed(row.config_index, row.run);
    net_config.faults.post_destruction_hazard = row.config.hazard;
    sim::NetworkSim network(instance, solution, net_config);

    sim::ChargerConfig charger_config;
    charger_config.speed_mps = spec.policy_speed_mps;
    charger_config.radiated_power_w = spec.policy_power_w;
    charger_config.travel_power_w = spec.policy_travel_power_w;
    charger_config.low_watermark = spec.policy_low_watermark;
    charger_config.high_watermark = spec.policy_high_watermark;
    charger_config.round_period_s = spec.policy_round_period_s;

    std::vector<sim::FixedCharger> fixed;
    int fleet = spec.policy_fleet;
    if (policy_spec == "fixed" || policy_spec.rfind("fixed:", 0) == 0) {
      core::PlacementConfig placement_config;
      placement_config.coverage_radius_m = spec.placement_radius_m;
      placement_config.radiated_power_w = spec.placement_power_w;
      placement_config.max_chargers = spec.placement_max_chargers;
      placement_config.round_period_s = spec.policy_round_period_s;
      placement_config.bits_per_round = spec.policy_bits_per_report;
      placement_config.max_duty = spec.placement_max_duty;
      const core::PlacementResult placement =
          core::place_chargers(instance, solution, placement_config);
      fixed = sim::fixed_chargers_from(placement, spec.placement_power_w,
                                       spec.placement_radius_m);
      fleet = 0;
      diagnostics.add(prefix + "/chargers",
                      static_cast<double>(placement.chargers.size()));
      diagnostics.add(prefix + "/uncovered",
                      static_cast<double>(placement.uncovered.size()));
    }

    sim::ChargerSim charger(network, charger_config, fleet,
                            sim::make_charging_policy(policy_spec), std::move(fixed));
    charger.run(static_cast<std::uint64_t>(spec.policy_rounds));
    const sim::ChargerSimStats& stats = charger.stats();

    diagnostics.add(prefix + "/delivery", network.delivery_ratio());
    diagnostics.add(prefix + "/dead_nodes", network.dead_node_count());
    diagnostics.add(prefix + "/any_death", stats.any_death ? 1.0 : 0.0);
    diagnostics.add(prefix + "/visits", static_cast<double>(stats.visits));
    diagnostics.add(prefix + "/radiated_per_round", stats.radiated_per_round());
    diagnostics.add(prefix + "/travel_j", stats.travel_j);
    if (stats.fixed_radiated_j > 0.0) {
      diagnostics.add(prefix + "/fixed_j", stats.fixed_radiated_j);
    }
  }
}

struct LoadedCheckpoint {
  bool had_header = false;
  std::vector<char> done;
  std::vector<std::vector<SolverOutcome>> rows;  // valid where done
  int count = 0;
};

/// Reads a checkpoint file; a missing file resumes nothing.  Trials are
/// restored only from a complete block (every solver row followed by the
/// `done` marker); a truncated tail -- e.g. a run killed mid-write -- is
/// silently dropped and those trials re-run.
LoadedCheckpoint load_checkpoint(const std::string& path, const SweepSpec& spec,
                                 int num_trials, int num_solvers) {
  LoadedCheckpoint loaded;
  loaded.done.assign(static_cast<std::size_t>(num_trials), 0);
  loaded.rows.resize(static_cast<std::size_t>(num_trials));
  std::ifstream in(path);
  if (!in) return loaded;

  std::string line;
  if (!std::getline(in, line)) return loaded;  // empty file = fresh start
  if (line != kCheckpointHeader) {
    throw std::runtime_error("'" + path + "' is not a " + kCheckpointHeader + " file");
  }
  if (!std::getline(in, line) || line.rfind("fingerprint ", 0) != 0) {
    throw std::runtime_error("checkpoint '" + path + "' is missing its fingerprint line");
  }
  const std::string expected =
      "fingerprint " + SweepSpec::fingerprint_hex(spec.fingerprint());
  if (line != expected) {
    throw std::runtime_error("checkpoint '" + path +
                             "' was written for a different scenario (fingerprint mismatch); "
                             "delete it or pick another checkpoint path");
  }
  loaded.had_header = true;

  struct Pending {
    std::vector<SolverOutcome> outcomes;
    std::vector<char> seen;
  };
  std::map<int, Pending> pending;
  while (std::getline(in, line)) {
    std::istringstream tokens(line);
    std::string tag;
    tokens >> tag;
    if (tag.empty()) continue;
    if (tag == "row") {
      int trial = -1;
      int solver = -1;
      std::string status;
      tokens >> trial >> solver >> status;
      if (!tokens || trial < 0 || trial >= num_trials || solver < 0 || solver >= num_solvers) {
        break;  // truncated/corrupt tail
      }
      auto [it, inserted] = pending.try_emplace(
          trial, Pending{std::vector<SolverOutcome>(static_cast<std::size_t>(num_solvers)),
                         std::vector<char>(static_cast<std::size_t>(num_solvers), 0)});
      SolverOutcome& outcome = it->second.outcomes[static_cast<std::size_t>(solver)];
      if (status == "ok") {
        int ndiag = -1;
        tokens >> outcome.cost >> outcome.seconds >> ndiag;
        if (!tokens || ndiag < 0) break;
        bool complete = true;
        for (int i = 0; i < ndiag; ++i) {
          std::string key;
          double value = 0.0;
          tokens >> key >> value;
          if (!tokens) {
            complete = false;
            break;
          }
          outcome.diagnostics.add(std::move(key), value);
        }
        if (!complete) break;
        outcome.ok = true;
      } else if (status == "error") {
        std::string message;
        std::getline(tokens, message);
        if (!message.empty() && message.front() == ' ') message.erase(0, 1);
        outcome.ok = false;
        outcome.error = std::move(message);
      } else {
        break;
      }
      it->second.seen[static_cast<std::size_t>(solver)] = 1;
    } else if (tag == "done") {
      int trial = -1;
      tokens >> trial;
      if (!tokens || trial < 0 || trial >= num_trials) break;
      const auto it = pending.find(trial);
      if (it == pending.end()) continue;
      bool all_seen = true;
      for (char seen : it->second.seen) all_seen = all_seen && seen != 0;
      if (all_seen) {
        loaded.rows[static_cast<std::size_t>(trial)] = std::move(it->second.outcomes);
        if (!loaded.done[static_cast<std::size_t>(trial)]) ++loaded.count;
        loaded.done[static_cast<std::size_t>(trial)] = 1;
      }
      pending.erase(it);
    } else {
      break;
    }
  }
  return loaded;
}

void append_trial(std::ofstream& out, const TrialRow& row) {
  for (std::size_t s = 0; s < row.outcomes.size(); ++s) {
    const SolverOutcome& outcome = row.outcomes[s];
    if (outcome.ok) {
      out << "row " << row.trial << ' ' << s << " ok " << checkpoint_double(outcome.cost)
          << ' ' << checkpoint_double(outcome.seconds) << ' '
          << outcome.diagnostics.items.size();
      for (const auto& [key, value] : outcome.diagnostics.items) {
        std::string safe = key;  // the line format is space-separated
        for (char& c : safe) {
          if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
        }
        out << ' ' << safe << ' ' << checkpoint_double(value);
      }
      out << '\n';
    } else {
      std::string message = outcome.error.empty() ? "unknown" : outcome.error;
      for (char& c : message) {
        if (c == '\n' || c == '\r') c = ' ';
      }
      out << "row " << row.trial << ' ' << s << " error " << message << '\n';
    }
  }
  // The done marker commits the block: resume restores a trial only when
  // every row line above it landed on disk.
  out << "done " << row.trial << '\n';
  out.flush();
}

/// Trial ids, largest first: posts descending, then nodes descending, ties
/// by trial id.
std::vector<int> largest_first(const std::vector<TrialRow>& trials) {
  std::vector<int> order(trials.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const ScenarioConfig& x = trials[static_cast<std::size_t>(a)].config;
    const ScenarioConfig& y = trials[static_cast<std::size_t>(b)].config;
    return std::tuple(-x.posts, -x.nodes, a) < std::tuple(-y.posts, -y.nodes, b);
  });
  return order;
}

std::string csv_escape(const std::string& value) {
  if (value.find_first_of(",\"\n") == std::string::npos) return value;
  std::string out = "\"";
  for (char c : value) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

util::RunningStats SweepResult::cost_stats(int config_index, int solver_index) const {
  util::RunningStats stats;
  for (int run = 0; run < runs; ++run) {
    const SolverOutcome& outcome =
        trials[static_cast<std::size_t>(config_index * runs + run)]
            .outcomes[static_cast<std::size_t>(solver_index)];
    if (outcome.ok) stats.add(outcome.cost);
  }
  return stats;
}

util::RunningStats SweepResult::diag_stats(int config_index, int solver_index,
                                           std::string_view key) const {
  util::RunningStats stats;
  for (int run = 0; run < runs; ++run) {
    const SolverOutcome& outcome =
        trials[static_cast<std::size_t>(config_index * runs + run)]
            .outcomes[static_cast<std::size_t>(solver_index)];
    if (!outcome.ok) continue;
    if (const auto value = outcome.diagnostics.find(key)) stats.add(*value);
  }
  return stats;
}

ExperimentRunner::ExperimentRunner(SweepSpec spec, RunnerOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
  spec_.validate();
  // expanded_solvers() fans `exact` specs across the exact_threads axis; an
  // empty axis makes it exactly spec_.solvers.
  for (const std::string& text : spec_.expanded_solvers()) {
    solvers_.push_back(core::SolverRegistry::global().create(text));
  }
}

SweepResult ExperimentRunner::run() {
  util::Timer timer;
  const std::vector<ScenarioConfig> configs = spec_.expand();
  const int num_trials = spec_.num_trials();
  const int num_solvers = static_cast<int>(solvers_.size());

  SweepResult result;
  result.runs = spec_.runs;
  for (const auto& solver : solvers_) result.solver_names.push_back(solver->name());
  result.trials.resize(static_cast<std::size_t>(num_trials));
  for (int t = 0; t < num_trials; ++t) {
    TrialRow& row = result.trials[static_cast<std::size_t>(t)];
    row.trial = t;
    row.config_index = t / spec_.runs;
    row.run = t % spec_.runs;
    row.config = configs[static_cast<std::size_t>(row.config_index)];
    row.field_seed = spec_.field_seed(row.config_index, row.run);
    row.outcomes.resize(static_cast<std::size_t>(num_solvers));
  }

  std::vector<char> done(static_cast<std::size_t>(num_trials), 0);
  std::ofstream checkpoint;
  if (!options_.checkpoint_path.empty()) {
    LoadedCheckpoint loaded =
        load_checkpoint(options_.checkpoint_path, spec_, num_trials, num_solvers);
    for (int t = 0; t < num_trials; ++t) {
      if (!loaded.done[static_cast<std::size_t>(t)]) continue;
      done[static_cast<std::size_t>(t)] = 1;
      result.trials[static_cast<std::size_t>(t)].outcomes =
          std::move(loaded.rows[static_cast<std::size_t>(t)]);
      result.trials[static_cast<std::size_t>(t)].resumed = true;
    }
    result.resumed_trials = loaded.count;
    checkpoint.open(options_.checkpoint_path, std::ios::app);
    if (!checkpoint) {
      throw std::runtime_error("cannot open checkpoint '" + options_.checkpoint_path +
                               "' for appending");
    }
    if (!loaded.had_header) {
      checkpoint << kCheckpointHeader << '\n'
                 << "fingerprint " << SweepSpec::fingerprint_hex(spec_.fingerprint()) << '\n';
      checkpoint.flush();
    }
  }

  static obs::Counter& trials_run = obs::Registry::global().counter("exp/trials_run");
  static obs::Counter& trials_resumed = obs::Registry::global().counter("exp/trials_resumed");
  static obs::Counter& solver_errors = obs::Registry::global().counter("exp/solver_errors");
  trials_resumed.increment(static_cast<std::uint64_t>(result.resumed_trials));

  std::mutex commit_mutex;
  // Heartbeat state, guarded by commit_mutex along with the checkpoint.
  int trials_done = 0;
  util::RunningStats ok_costs;
  const auto emit_progress = [&](bool final_event) {
    // Caller holds commit_mutex (or the pool has been joined).
    if (options_.progress == nullptr) return;
    if (!final_event && !options_.progress->wants("exp")) return;
    obs::ProgressEvent event("exp", final_event);
    event.add("trials_done", trials_done);
    event.add("trials_total", num_trials);
    const double elapsed_s = timer.elapsed_seconds();
    if (trials_done > 0 && trials_done < num_trials) {
      event.add("eta_s", elapsed_s / trials_done * (num_trials - trials_done));
    }
    if (ok_costs.count() > 0) {
      event.add("cost_mean", ok_costs.mean());
      event.add("cost_min", ok_costs.min());
      event.add("cost_max", ok_costs.max());
    }
    options_.progress->emit(event);
  };
  const auto note_trial_done = [&](const TrialRow& row) {
    ++trials_done;
    for (const SolverOutcome& outcome : row.outcomes) {
      if (outcome.ok) ok_costs.add(outcome.cost);
    }
    emit_progress(false);
  };
  // Every worker pulls its next trial from one cursor over the largest-first
  // order, so the big trials start at once on separate workers and the small
  // ones fill the gaps at the end.  parallel_for only starts one puller per
  // worker; a trial runs whole on the worker that pulled it and writes only
  // its own slot, so the rows do not depend on who ran what.
  const std::vector<int> order = largest_first(result.trials);
  std::atomic<std::size_t> cursor{0};
  util::ThreadPool pool(options_.threads);
  pool.parallel_for(pool.size(), [&](std::int64_t, std::int64_t, int) {
    for (std::size_t k = cursor++; k < order.size(); k = cursor++) {
      const int t = order[k];
      TrialRow& row = result.trials[static_cast<std::size_t>(t)];
      if (done[static_cast<std::size_t>(t)]) {
        std::lock_guard<std::mutex> lock(commit_mutex);
        if (options_.on_trial) options_.on_trial(row);
        note_trial_done(row);
        continue;
      }
      std::optional<core::Instance> instance;
      std::string instance_error;
      try {
        instance.emplace(spec_.build_instance(row.config, row.field_seed));
      } catch (const std::exception& error) {
        instance_error = error.what();
      }
      for (int s = 0; s < num_solvers; ++s) {
        SolverOutcome& outcome = row.outcomes[static_cast<std::size_t>(s)];
        if (!instance.has_value()) {
          outcome.ok = false;
          outcome.error = "instance: " + instance_error;
          solver_errors.increment();
          continue;
        }
        util::Timer solve_timer;
        try {
          core::SolverRun solved = solvers_[static_cast<std::size_t>(s)]->solve(
              *instance, options_.sink);
          outcome.seconds = solve_timer.elapsed_seconds();
          outcome.ok = true;
          outcome.cost = solved.cost;
          outcome.diagnostics = std::move(solved.diagnostics);
          add_solution_facts(*instance, solved.solution, outcome.diagnostics);
          if (spec_.sim_rounds > 0) {
            add_simulation_facts(spec_, row, *instance, solved.solution,
                                 outcome.diagnostics);
          }
          if (!spec_.policies_to_evaluate.empty()) {
            add_policy_facts(spec_, row, *instance, solved.solution,
                             outcome.diagnostics);
          }
          if (options_.keep_solutions) outcome.solution = std::move(solved.solution);
        } catch (const std::exception& error) {
          outcome.seconds = solve_timer.elapsed_seconds();
          outcome.ok = false;
          outcome.error = error.what();
          solver_errors.increment();
        }
      }
      trials_run.increment();
      {
        std::lock_guard<std::mutex> lock(commit_mutex);
        if (checkpoint.is_open()) append_trial(checkpoint, row);
        if (options_.on_trial) options_.on_trial(row);
        note_trial_done(row);
      }
    }
  });
  emit_progress(true);  // pool joined: closing totals, no lock needed

  result.wall_seconds = timer.elapsed_seconds();
  return result;
}

void write_rows_csv(std::ostream& out, const SweepResult& result, bool include_timings) {
  // Union of diagnostic keys in first-appearance order (trial-major), so
  // the column set is a pure function of the rows, not the thread count.
  std::vector<std::string> diag_keys;
  for (const TrialRow& row : result.trials) {
    for (const SolverOutcome& outcome : row.outcomes) {
      for (const auto& [key, value] : outcome.diagnostics.items) {
        bool known = false;
        for (const std::string& existing : diag_keys) known = known || existing == key;
        if (!known) diag_keys.push_back(key);
      }
    }
  }

  out << "trial,config,run,posts,nodes,levels,eta,hazard,field_seed,solver,status,cost,error";
  if (include_timings) out << ",seconds";
  for (const std::string& key : diag_keys) out << ',' << csv_escape(key);
  out << '\n';

  for (const TrialRow& row : result.trials) {
    for (std::size_t s = 0; s < row.outcomes.size(); ++s) {
      const SolverOutcome& outcome = row.outcomes[s];
      out << row.trial << ',' << row.config_index << ',' << row.run << ','
          << row.config.posts << ',' << row.config.nodes << ',' << row.config.levels << ','
          << artifact_double(row.config.eta) << ',' << artifact_double(row.config.hazard)
          << ',' << row.field_seed << ','
          << csv_escape(result.solver_names[s]) << ',' << (outcome.ok ? "ok" : "error")
          << ',';
      if (outcome.ok) out << artifact_double(outcome.cost);
      out << ',' << csv_escape(outcome.error);
      if (include_timings) out << ',' << artifact_double(outcome.seconds);
      for (const std::string& key : diag_keys) {
        out << ',';
        if (const auto value = outcome.diagnostics.find(key)) out << artifact_double(*value);
      }
      out << '\n';
    }
  }
}

void write_rows_json(std::ostream& out, const SweepSpec& spec, const SweepResult& result,
                     bool include_timings) {
  io::Json rows = io::Json::array();
  for (const TrialRow& row : result.trials) {
    for (std::size_t s = 0; s < row.outcomes.size(); ++s) {
      const SolverOutcome& outcome = row.outcomes[s];
      io::Json entry = io::Json::object();
      entry.set("trial", io::Json(row.trial));
      entry.set("config", io::Json(row.config_index));
      entry.set("run", io::Json(row.run));
      entry.set("posts", io::Json(row.config.posts));
      entry.set("nodes", io::Json(row.config.nodes));
      entry.set("levels", io::Json(row.config.levels));
      entry.set("eta", io::Json(row.config.eta));
      entry.set("hazard", io::Json(row.config.hazard));
      entry.set("field_seed", io::Json(row.field_seed));
      entry.set("solver", io::Json(result.solver_names[s]));
      entry.set("ok", io::Json(outcome.ok));
      if (outcome.ok) {
        entry.set("cost", io::Json(outcome.cost));
      } else {
        entry.set("error", io::Json(outcome.error));
      }
      if (include_timings) entry.set("seconds", io::Json(outcome.seconds));
      io::Json diagnostics = io::Json::object();
      for (const auto& [key, value] : outcome.diagnostics.items) {
        diagnostics.set(key, io::Json(value));
      }
      entry.set("diagnostics", std::move(diagnostics));
      rows.push_back(std::move(entry));
    }
  }
  io::Json document = io::Json::object();
  document.set("format", io::Json(std::string("wrsn-exp-rows v1")));
  document.set("scenario", spec.to_json());
  document.set("rows", std::move(rows));
  out << document.dump(2) << '\n';
}

}  // namespace wrsn::exp
