// large_field: the site planner's big single plan.  Serial
// svc::build_instance -> svc::run_plan with solver rfh on fields of a few
// thousand posts (above the 1024-post sparse threshold), cycling through
// the run's window of a fixed corpus of fields.
//
// End-to-end: plans per second and plan latency (sampling through the
// finished plan), set-up (scenario validation and solver instantiation),
// peak RSS.  Correctness: every plan is a valid solution whose cost
// re-prices to the reported one; run.py checks the costs against the pinned
// ones.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "common.hpp"
#include "core/cost.hpp"
#include "core/solution.hpp"
#include "core/solver.hpp"
#include "exp/spec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/planner.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using wrsn::io::Json;
namespace svc = wrsn::svc;

constexpr int kPosts = 2000;
constexpr int kCorpus = 32;        // fields in the corpus
constexpr int kFields = 16;        // fields per run, cycled
constexpr int kTracedFields = 10;  // fields the traced run replays

std::vector<svc::Scenario> make_scenarios(const Options& options) {
  std::vector<svc::Scenario> scenarios;
  const int posts = options.smoke ? 60 : kPosts;
  for (const int entry :
       corpus_window(options, options.smoke ? 4 : kCorpus, options.smoke ? 2 : kFields)) {
    svc::Scenario scenario;
    scenario.posts = posts;
    scenario.nodes = 3 * posts;
    // The paper's N = 300 density on a 500 m field, scaled up.
    scenario.side = std::round(500.0 * std::sqrt(posts / 300.0));
    scenario.seed = static_cast<std::int64_t>(corpus_seed("large_field", entry));
    // Round-trip through the wire form: the validation a request would get.
    scenarios.push_back(svc::Scenario::from_json(scenario.to_canonical_json()));
  }
  return scenarios;
}

svc::PlanOptions plan_options() {
  svc::PlanOptions options;
  options.solver = "rfh";
  return options;
}

/// Checks one plan; returns false (and counts the failure) when wrong.
bool check_plan(const wrsn::core::Instance& instance, const svc::PlanOutcome& outcome,
                Result& result) {
  if (!std::isfinite(outcome.cost_j_per_bit)) {
    result.fail("infeasible_plan");
    return false;
  }
  if (!wrsn::core::is_valid_solution(instance, outcome.solution)) {
    result.fail("invalid_solution");
    return false;
  }
  const double repriced = wrsn::core::total_recharging_cost(instance, outcome.solution);
  if (!same_cost(repriced, outcome.cost_j_per_bit)) {
    result.fail("cost_mismatch");
    return false;
  }
  return true;
}

double span_seconds(const std::vector<wrsn::obs::TraceEvent>& events, std::size_t from,
                    const std::string& name) {
  double seconds = 0.0;
  for (std::size_t i = from; i < events.size(); ++i) {
    if (events[i].name == name) seconds += 1e-9 * static_cast<double>(events[i].dur_ns);
  }
  return seconds;
}

void traced_run(const Options& options, const std::vector<svc::Scenario>& scenarios,
                Result& result) {
  const svc::PlanOptions plan = plan_options();
  const int fields = std::min<int>(kTracedFields, static_cast<int>(scenarios.size()));

  // Each traced plan follows an untraced plan of the same field, so a drift
  // in the machine's speed over the run hits both sides alike; a first,
  // unrecorded plan warms the process up.
  const auto untraced_plan = [&](const svc::Scenario& scenario) {
    const Clock::time_point t0 = Clock::now();
    const wrsn::core::Instance instance = svc::build_instance(scenario);
    const svc::PlanOutcome outcome = svc::run_plan(instance, plan, nullptr, nullptr);
    return seconds_between(t0, Clock::now());
  };
  (void)untraced_plan(scenarios.front());

  auto& rebuilds = wrsn::obs::Registry::global().counter("rfh/closure_rebuilds");
  std::uint64_t rebuilds_traced = 0;
  start_tracing();
  auto& buffer = wrsn::obs::TraceBuffer::global();
  Ledger ledger;
  std::map<std::string, std::vector<double>> per_plan;
  for (int i = 0; i < fields; ++i) {
    const svc::Scenario& scenario = scenarios[static_cast<std::size_t>(i)];
    buffer.set_enabled(false);
    ledger.untraced_e2e(untraced_plan(scenario));
    buffer.set_enabled(true);
    const std::uint64_t rebuilds_before = rebuilds.value();
    const std::size_t first_event = buffer.size();
    result.attempt();
    const Clock::time_point t0 = Clock::now();
    std::optional<wrsn::geom::Field> field;
    {
      WRSN_TRACE_SPAN("geom.sample_field");
      field.emplace(svc::sample_field(scenario));
    }
    const Clock::time_point t1 = Clock::now();
    std::optional<wrsn::core::Instance> instance;
    {
      WRSN_TRACE_SPAN("core.instance_build");
      const auto radio =
          wrsn::energy::RadioModel::uniform_levels(scenario.levels, scenario.range_step);
      instance.emplace(wrsn::core::Instance::geometric(std::move(*field), radio,
                                                       svc::make_charging(scenario),
                                                       scenario.nodes));
    }
    const Clock::time_point t2 = Clock::now();
    std::optional<svc::PlanOutcome> outcome;
    {
      WRSN_TRACE_SPAN("svc.run_plan");
      outcome.emplace(svc::run_plan(*instance, plan, nullptr, nullptr));
    }
    const Clock::time_point t3 = Clock::now();
    rebuilds_traced += rebuilds.value() - rebuilds_before;
    if (check_plan(*instance, *outcome, result)) {
      result.costs("large_field/" + std::to_string(scenario.seed), {outcome->cost_j_per_bit});
    }
    {
      WRSN_TRACE_SPAN("sim.tour");
      (void)wrsn::sim::plan_tour(*instance);
    }
    const double tour = seconds_between(t3, Clock::now());

    const auto events = buffer.events();
    const double sample = seconds_between(t0, t1);
    const double build = seconds_between(t1, t2);
    const double rfh = span_seconds(events, first_event, "rfh/solve");
    const double e2e = seconds_between(t0, t3);
    per_plan["geom.sample_field_s"].push_back(sample);
    per_plan["core.instance_build_s"].push_back(build);
    per_plan["graph.adjacency_mb"].push_back(1e-6 *
                                             static_cast<double>(instance->adjacency().bytes()));
    per_plan["core.rfh_s"].push_back(rfh);
    for (int phase = 1; phase <= 4; ++phase) {
      const std::string name = "rfh/phase" + std::to_string(phase);
      per_plan["rfh.phase" + std::to_string(phase) + "_s"].push_back(
          span_seconds(events, first_event, name));
    }
    per_plan["sim.tour_s"].push_back(tour);

    ledger.add("geom.sample_field", sample);
    ledger.add("core.instance_build", build);
    ledger.add("core.rfh", rfh);
    ledger.add("sim.tour", tour);
    ledger.residual(std::max(0.0, e2e - sample - build - rfh - tour));
    ledger.traced_e2e(e2e);
  }
  save_trace(options);
  ledger.write_table(options.out_dir + "/large_field.layers.txt", "large_field");
  ledger.check(result, options);

  std::map<std::string, double> values;
  for (const auto& [name, samples] : per_plan) values[name] = mean(samples);
  values["rfh.closure_rebuilds"] = static_cast<double>(rebuilds_traced) / fields;
  fill_per_layer(result, values);
}

}  // namespace

int run_large_field(const Options& options, Result& result) {
  // Set-up: scenario validation and solver instantiation.  It takes
  // microseconds, so it is repeated before every plan and the median taken.
  std::vector<double> setup_s;
  std::vector<svc::Scenario> scenarios;
  const auto measure_setup = [&] {
    for (int i = 0; i < 11; ++i) {
      const Clock::time_point t0 = Clock::now();
      scenarios = make_scenarios(options);
      const auto spec = svc::resolve_solver_spec(plan_options());
      const auto solver = wrsn::core::SolverRegistry::global().create(spec);
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
  };
  measure_setup();
  std::string fingerprints;
  for (const svc::Scenario& scenario : scenarios) fingerprints += scenario.fingerprint_hex();
  result.detail("input_digest", Json(wrsn::exp::SweepSpec::fingerprint_hex(
                                    wrsn::exp::fingerprint_text(fingerprints))));
  result.detail("posts", Json(scenarios.front().posts));
  result.detail("side_m", Json(scenarios.front().side));

  if (options.trace) {
    traced_run(options, scenarios, result);
    return 0;
  }

  const svc::PlanOptions plan = plan_options();
  std::vector<double> plan_ms;
  std::vector<double> costs(scenarios.size(), 0.0);
  std::vector<char> planned(scenarios.size(), 0);
  double wall = 0.0;
  std::size_t next = 0;
  const Clock::time_point start = Clock::now();
  do {
    const std::size_t i = next++ % scenarios.size();
    if (next > 1) measure_setup();
    result.attempt();
    const Clock::time_point t0 = Clock::now();
    const wrsn::core::Instance instance = svc::build_instance(scenarios[i]);
    const svc::PlanOutcome outcome = svc::run_plan(instance, plan, nullptr, nullptr);
    const double seconds = seconds_between(t0, Clock::now());
    plan_ms.push_back(1e3 * seconds);
    wall += seconds;
    if (!check_plan(instance, outcome, result)) continue;
    if (planned[i] && costs[i] != outcome.cost_j_per_bit) result.fail("nondeterministic_cost");
    costs[i] = outcome.cost_j_per_bit;
    planned[i] = 1;
  } while (options.pin ? next < scenarios.size()
                       : seconds_between(start, Clock::now()) < options.seconds);
  const double rss = peak_rss_mb();

  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (planned[i]) {
      result.costs("large_field/" + std::to_string(scenarios[i].seed), {costs[i]});
    }
  }
  const Summary latency = summarize(plan_ms);
  result.metric("setup_s", median(setup_s), "s");
  result.metric("throughput_per_s", static_cast<double>(plan_ms.size()) / wall, "1/s");
  result.metric("latency_p50_ms", latency.p50, "ms");
  result.metric("latency_tail_ms", latency.tail, "ms");
  result.metric("peak_rss_mb", rss, "MB");
  result.detail("plan_latency_ms", summary_json(latency));
  return 0;
}

}  // namespace perfbench
