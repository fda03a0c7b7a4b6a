// paper_sweep: the researcher's batch job.  Fig. 8/9-style exp::SweepSpecs
// (500 m field, N in {100, 200, 300}, M = 600, hazard in {0, 0.01}, solvers
// rfh / idb / rfh+ls, the sim stage and two charging policies), each on the
// fields of one corpus entry, run in turn by exp::ExperimentRunner with
// threads = nproc until the time is up.
//
// End-to-end: trials per second, trial latency (each trial's time on its
// worker, from RunnerOptions::on_trial timestamps), set-up (loading the
// scenario, validating it, instantiating the solvers), peak RSS.
// Correctness: a sweep met again must give the rows it gave before, and a
// 1-thread run the same rows; run.py checks the costs against the pinned
// ones.
#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "common.hpp"
#include "exp/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/charger_sim.hpp"
#include "sim/charging_policy.hpp"
#include "sim/network_sim.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using wrsn::io::Json;
namespace exp = wrsn::exp;
namespace sim = wrsn::sim;

constexpr int kRuns = 2;        // replications per configuration
constexpr int kCorpus = 16;     // sweeps in the corpus
constexpr int kInputSets = 12;  // sweeps per run, cycled
constexpr int kTracedSweeps = 2;

/// Corpus entry `entry`: the same grid on fields from the entry's seed.
exp::SweepSpec make_spec(const Options& options, int entry) {
  exp::SweepSpec spec;
  spec.name = "perfbench-paper-sweep";
  spec.side = options.smoke ? 200.0 : 500.0;
  spec.range_step = 25.0;
  spec.posts_axis = options.smoke ? std::vector<int>{20, 30} : std::vector<int>{100, 200, 300};
  spec.nodes_axis = {options.smoke ? 90 : 600};
  spec.hazard_axis = {0.0, 0.01};
  spec.runs = options.smoke ? 1 : kRuns;
  spec.base_seed = corpus_seed("paper_sweep", entry);
  spec.seed_mode = exp::SeedMode::kIndependent;
  spec.solvers = {"rfh", "idb", "rfh+ls"};
  // Repair stays "none": "reroute" at hazard 0.01 can exhaust memory on
  // some fields, and an operation that fails makes no benchmark input.
  spec.sim_rounds = options.smoke ? 20 : 200;
  spec.policies_to_evaluate = {"nearest-deficit", "threshold"};
  spec.policy_rounds = options.smoke ? 40 : 400;
  return spec;
}

int sweep_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// One sweep with each trial's time on its worker: the gap between
/// consecutive on_trial calls from the same thread (the first from start).
struct TimedSweep {
  exp::SweepResult result;
  std::vector<double> trial_s;  ///< indexed by trial id
  std::vector<double> busy_s;   ///< per worker thread that ran trials
  double wall_s = 0.0;
};

TimedSweep run_sweep(const exp::SweepSpec& spec, int threads, bool keep_solutions) {
  struct Finish {
    int trial;
    std::thread::id thread;
    Clock::time_point at;
  };
  std::vector<Finish> finishes;
  std::mutex mutex;
  exp::RunnerOptions runner_options;
  runner_options.threads = threads;
  runner_options.keep_solutions = keep_solutions;
  runner_options.on_trial = [&](const exp::TrialRow& row) {
    const Finish finish{row.trial, std::this_thread::get_id(), Clock::now()};
    std::lock_guard<std::mutex> lock(mutex);
    finishes.push_back(finish);
  };
  exp::ExperimentRunner runner(spec, runner_options);
  TimedSweep timed;
  const Clock::time_point start = Clock::now();
  timed.result = runner.run();
  timed.wall_s = seconds_between(start, Clock::now());

  timed.trial_s.assign(timed.result.trials.size(), 0.0);
  std::map<std::thread::id, Clock::time_point> last;
  std::map<std::thread::id, double> busy;
  std::sort(finishes.begin(), finishes.end(),
            [](const Finish& a, const Finish& b) { return a.at < b.at; });
  for (const Finish& finish : finishes) {
    const auto it = last.find(finish.thread);
    const Clock::time_point from = it == last.end() ? start : it->second;
    timed.trial_s[static_cast<std::size_t>(finish.trial)] = seconds_between(from, finish.at);
    last[finish.thread] = finish.at;
    busy[finish.thread] = seconds_between(start, finish.at);
  }
  for (const auto& [thread, seconds] : busy) timed.busy_s.push_back(seconds);
  return timed;
}

std::vector<double> row_costs(const exp::SweepResult& result) {
  std::vector<double> costs;
  for (const auto& row : result.trials) {
    for (const auto& outcome : row.outcomes) costs.push_back(outcome.ok ? outcome.cost : -1.0);
  }
  return costs;
}

/// Rows equal in everything but wall time: status, cost and every
/// diagnostic, bit for bit.
bool same_rows(const exp::SweepResult& a, const exp::SweepResult& b) {
  if (a.trials.size() != b.trials.size()) return false;
  for (std::size_t t = 0; t < a.trials.size(); ++t) {
    const auto& x = a.trials[t].outcomes;
    const auto& y = b.trials[t].outcomes;
    if (x.size() != y.size()) return false;
    for (std::size_t s = 0; s < x.size(); ++s) {
      if (x[s].ok != y[s].ok || x[s].cost != y[s].cost ||
          x[s].diagnostics.items != y[s].diagnostics.items) {
        return false;
      }
    }
  }
  return true;
}

/// Counts failed solves; returns the number of outcomes.
std::int64_t count_outcomes(const exp::SweepResult& result, Result& out) {
  std::int64_t n = 0;
  for (const auto& row : result.trials) {
    for (const auto& outcome : row.outcomes) {
      ++n;
      if (!outcome.ok) {
        out.fail("solver_error");
        out.detail("solver_error", Json(outcome.error));
      }
    }
  }
  return n;
}

/// Replays the runner's post-solve simulation stage (exp/runner.cpp) on a
/// kept solution, so its cost can be timed outside the sweep.
void replay_network_sim(const exp::SweepSpec& spec, const exp::TrialRow& row,
                        const wrsn::core::Instance& instance,
                        const wrsn::core::Solution& solution) {
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
  sim::NetworkSim network(instance, solution, config);
  network.run_rounds(static_cast<std::uint64_t>(spec.sim_rounds));
}

/// Replays one charging-policy co-simulation of the runner's policy stage.
void replay_charger_sim(const exp::SweepSpec& spec, const exp::TrialRow& row,
                        const wrsn::core::Instance& instance,
                        const wrsn::core::Solution& solution, const std::string& policy) {
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
  sim::ChargerSim charger(network, charger_config, spec.policy_fleet,
                          sim::make_charging_policy(policy));
  charger.run(static_cast<std::uint64_t>(spec.policy_rounds));
}

const char* solver_layer(const std::string& solver) {
  if (solver == "rfh") return "core.rfh";
  if (solver == "idb") return "core.idb";
  return "core.rfh_ls";
}

struct PricerCounts {
  std::uint64_t fallbacks = 0;
  std::uint64_t repairs = 0;
  double region_sum = 0.0;
};

PricerCounts pricer_counts() {
  auto& registry = wrsn::obs::Registry::global();
  const auto regions = registry.histogram("pricer/repair_region_size").snapshot();
  return {registry.counter("pricer/full_fallbacks").value(), regions.count, regions.sum};
}

/// The traced run: sweeps with solutions kept, alternating with untraced
/// sweeps for reference, then timed replays of the stages the runner does
/// not time itself (instance builds, simulations).
void traced_run(const Options& options, const exp::SweepSpec& spec, int threads,
                Result& result) {
  // An unrecorded sweep warms the process up.  Then untraced and traced
  // sweeps alternate, untraced first and last, and each traced trial is
  // held against the mean of its untraced runs, so a drift in the
  // machine's speed hits both sides alike.  The library's own spans stay
  // off during the sweeps (its sim/round spans alone would be tens of
  // thousands of locked appends); the replays below time those stages.  So
  // a traced sweep differs from an untraced one only in keeping its
  // solutions, and trace.overhead_pct here is the cost of keep_solutions.
  (void)run_sweep(spec, threads, false);
  std::vector<TimedSweep> untraced;
  std::vector<TimedSweep> traced;
  untraced.push_back(run_sweep(spec, threads, false));
  const PricerCounts before = pricer_counts();
  for (int i = 0; i < kTracedSweeps; ++i) {
    traced.push_back(run_sweep(spec, threads, true));
    untraced.push_back(run_sweep(spec, threads, false));
  }
  const PricerCounts after = pricer_counts();
  result.costs("paper_sweep/" + std::to_string(spec.base_seed), row_costs(traced.front().result));
  start_tracing();

  Ledger ledger;
  std::map<std::string, std::vector<double>> solve_s;
  std::vector<double> build_s;
  std::vector<double> network_s;
  std::vector<double> charger_s;
  std::vector<double> trial_s;
  double ls_evaluations = 0.0;
  double ls_moves = 0.0;
  int ls_runs = 0;
  for (const TimedSweep& sweep : traced) {
    result.attempt(count_outcomes(sweep.result, result));
    if (!same_rows(untraced.front().result, sweep.result)) result.fail("rows_differ");
    trial_s.insert(trial_s.end(), sweep.trial_s.begin(), sweep.trial_s.end());
    for (const auto& row : sweep.result.trials) {
      double attributed = 0.0;
      Clock::time_point t0 = Clock::now();
      std::optional<wrsn::core::Instance> instance;
      {
        WRSN_TRACE_SPAN("exp.instance_build");
        instance.emplace(spec.build_instance(row.config, row.field_seed));
      }
      const double build = seconds_between(t0, Clock::now());
      build_s.push_back(build);
      ledger.add("exp.instance_build", build);
      attributed += build;
      for (std::size_t s = 0; s < row.outcomes.size(); ++s) {
        const auto& outcome = row.outcomes[s];
        const std::string& solver = sweep.result.solver_names[s];
        solve_s[solver].push_back(outcome.seconds);
        ledger.add(solver_layer(solver), outcome.seconds);
        attributed += outcome.seconds;
        if (solver == "rfh+ls") {
          ls_evaluations += outcome.diagnostics.find("ls/evaluations").value_or(0.0);
          ls_moves += outcome.diagnostics.find("ls/moves").value_or(0.0);
          ++ls_runs;
        }
        if (!outcome.solution) continue;
        t0 = Clock::now();
        {
          WRSN_TRACE_SPAN("sim.network");
          replay_network_sim(spec, row, *instance, *outcome.solution);
        }
        const double network = seconds_between(t0, Clock::now());
        network_s.push_back(network);
        ledger.add("sim.network", network);
        attributed += network;
        for (const std::string& policy : spec.policies_to_evaluate) {
          t0 = Clock::now();
          {
            WRSN_TRACE_SPAN("sim.charger");
            replay_charger_sim(spec, row, *instance, *outcome.solution, policy);
          }
          const double charger = seconds_between(t0, Clock::now());
          charger_s.push_back(charger);
          ledger.add("sim.charger", charger);
          attributed += charger;
        }
      }
      const auto t = static_cast<std::size_t>(row.trial);
      const double trial = sweep.trial_s[t];
      ledger.residual(std::max(0.0, trial - attributed));
      ledger.traced_e2e(trial);
      double reference = 0.0;
      for (const TimedSweep& plain : untraced) reference += plain.trial_s[t];
      ledger.untraced_e2e(reference / static_cast<double>(untraced.size()));
    }
  }
  save_trace(options);
  ledger.write_table(options.out_dir + "/paper_sweep.layers.txt", "paper_sweep");
  ledger.check(result, options);

  // Worker balance of the first traced sweep (every sweep runs the same
  // trials on the same blocks).
  double busy_sum = 0.0;
  double busy_max = 0.0;
  for (double busy : traced.front().busy_s) {
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
  }
  const double repairs = static_cast<double>(after.repairs - before.repairs);
  std::map<std::string, double> values;
  values["exp.worker_idle_share"] = 1.0 - busy_sum / (threads * traced.front().wall_s);
  values["exp.worker_imbalance"] = busy_max / (busy_sum / threads);
  values["exp.trial_s"] = mean(trial_s);
  values["exp.instance_build_s"] = mean(build_s);
  values["core.rfh_s"] = mean(solve_s["rfh"]);
  values["core.idb_s"] = mean(solve_s["idb"]);
  values["core.rfh_ls_s"] = mean(solve_s["rfh+ls"]);
  values["ls.evaluations"] = ls_runs > 0 ? ls_evaluations / ls_runs : 0.0;
  values["ls.accept_ratio"] = ls_evaluations > 0 ? ls_moves / ls_evaluations : 0.0;
  values["pricer.fallback_ratio"] =
      repairs > 0 ? static_cast<double>(after.fallbacks - before.fallbacks) / repairs : 0.0;
  values["pricer.region_mean"] =
      repairs > 0 ? (after.region_sum - before.region_sum) / repairs : 0.0;
  values["sim.network_s"] = mean(network_s);
  values["sim.charger_s"] = mean(charger_s);
  fill_per_layer(result, values);
  result.detail("threads", Json(threads));
  result.detail("trials_per_sweep",
                Json(static_cast<std::int64_t>(traced.front().trial_s.size())));
}

}  // namespace

int run_paper_sweep(const Options& options, Result& result) {
  std::vector<exp::SweepSpec> specs;
  std::string fingerprints;
  for (const int entry :
       corpus_window(options, options.smoke ? 4 : kCorpus, options.smoke ? 2 : kInputSets)) {
    specs.push_back(make_spec(options, entry));
    fingerprints += exp::SweepSpec::fingerprint_hex(specs.back().fingerprint());
  }
  const int threads = sweep_threads();
  result.detail("input_digest",
                Json(exp::SweepSpec::fingerprint_hex(exp::fingerprint_text(fingerprints))));

  // Set-up: loading the scenario, validating it and instantiating the
  // solvers.  It takes microseconds, so it is repeated before every sweep
  // and the median taken: one slow moment of a shared machine moves it
  // little.
  std::vector<double> setup_s;
  const std::string scenario_text = specs.front().to_json().dump(2);
  const auto measure_setup = [&] {
    for (int i = 0; i < 41; ++i) {
      const Clock::time_point t0 = Clock::now();
      const exp::SweepSpec loaded = exp::SweepSpec::from_json(Json::parse(scenario_text));
      exp::ExperimentRunner runner(loaded, {});
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
  };
  measure_setup();

  if (options.trace) {
    traced_run(options, specs.front(), threads, result);
    return 0;
  }

  // Sweep the input sets in turn until the time is up; a set met again
  // must give the rows it gave the first time.
  std::vector<double> trial_ms;
  std::vector<double> sweep_s;
  std::int64_t trials = 0;
  std::vector<std::optional<exp::SweepResult>> first(specs.size());
  std::size_t next = 0;
  const Clock::time_point start = Clock::now();
  do {
    const std::size_t i = next++ % specs.size();
    if (next > 1) measure_setup();
    TimedSweep timed = run_sweep(specs[i], threads, false);
    result.attempt(count_outcomes(timed.result, result));
    sweep_s.push_back(timed.wall_s);
    trials += static_cast<std::int64_t>(timed.result.trials.size());
    for (double s : timed.trial_s) trial_ms.push_back(1e3 * s);
    if (!first[i]) {
      first[i] = std::move(timed.result);
    } else if (!same_rows(*first[i], timed.result)) {
      result.fail("rows_differ");
    }
  } while (options.pin ? next < specs.size()
                       : seconds_between(start, Clock::now()) < options.seconds);
  double wall = 0.0;
  for (double s : sweep_s) wall += s;
  const double rss = peak_rss_mb();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (first[i]) {
      result.costs("paper_sweep/" + std::to_string(specs[i].base_seed), row_costs(*first[i]));
    }
  }
  if (options.pin) return 0;

  // A 1-thread run of the first input set must give the same rows.
  const TimedSweep serial = run_sweep(specs.front(), 1, false);
  result.attempt(count_outcomes(serial.result, result));
  if (!same_rows(*first.front(), serial.result)) result.fail("thread_count_rows_differ");

  const Summary latency = summarize(trial_ms);
  result.metric("setup_s", median(setup_s), "s");
  result.metric("throughput_per_s", static_cast<double>(trials) / wall, "1/s");
  result.metric("latency_p50_ms", latency.p50, "ms");
  result.metric("latency_tail_ms", latency.tail, "ms");
  result.metric("peak_rss_mb", rss, "MB");
  result.detail("threads", Json(threads));
  result.detail("sweeps", Json(static_cast<std::int64_t>(sweep_s.size())));
  result.detail("sweep_s", Json(median(sweep_s)));
  result.detail("trial_latency_ms", summary_json(latency));
  return 0;
}

}  // namespace perfbench
