// exp::SweepSpec and exp::ExperimentRunner: scenario files, seed derivation,
// thread-count and execution-order independence, and checkpoint resume.
#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "exp/spec.hpp"
#include "io/json.hpp"
#include "util/rng.hpp"

#ifndef WRSN_TEST_DATA_DIR
#define WRSN_TEST_DATA_DIR "tests/data"
#endif

namespace wrsn {
namespace {

/// Small two-config sweep that solves in well under a second.
exp::SweepSpec small_spec() {
  exp::SweepSpec spec;
  spec.name = "unit";
  spec.side = 250.0;
  spec.posts_axis = {25};
  spec.nodes_axis = {80, 120};
  spec.levels_axis = {3};
  spec.eta_axis = {0.01};
  spec.runs = 2;
  spec.base_seed = 9001;
  spec.solvers = {"rfh", "idb"};
  return spec;
}

/// Flattened (trial, solver, cost, diagnostics) view for exact comparisons.
std::string result_signature(const exp::SweepResult& result) {
  std::ostringstream out;
  exp::write_rows_csv(out, result, /*include_timings=*/false);
  return out.str();
}

/// Temp-file path unique to the current test.
std::string temp_path(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "wrsn_" + info->name() + "_" + tag;
}

TEST(SweepSpec, ExpandAndTrialLayout) {
  exp::SweepSpec spec = small_spec();
  spec.posts_axis = {10, 20};
  spec.eta_axis = {0.01, 0.05};
  EXPECT_EQ(spec.num_configs(), 2 * 2 * 1 * 2);
  EXPECT_EQ(spec.num_trials(), spec.num_configs() * spec.runs);
  const auto configs = spec.expand();
  ASSERT_EQ(static_cast<int>(configs.size()), spec.num_configs());
  // posts outermost, eta innermost.
  EXPECT_EQ(configs[0].posts, 10);
  EXPECT_EQ(configs[0].eta, 0.01);
  EXPECT_EQ(configs[1].eta, 0.05);
  EXPECT_EQ(configs.back().posts, 20);
  EXPECT_EQ(configs.back().nodes, 120);
}

TEST(SweepSpec, ValidateRejectsBadSpecs) {
  exp::SweepSpec spec = small_spec();
  spec.runs = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.solvers = {"no-such-solver"};
  EXPECT_THROW(exp::ExperimentRunner(spec, {}), std::invalid_argument);
  spec = small_spec();
  spec.charging_kind = "cubic";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.eta_axis = {0.0};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SweepSpec, SeedModes) {
  exp::SweepSpec spec = small_spec();
  // Paired: same run index -> same field across configs (legacy benches
  // reuse one probe field per run across the whole axis).
  EXPECT_EQ(spec.field_seed(0, 1), spec.field_seed(1, 1));
  EXPECT_EQ(spec.field_seed(0, 1), spec.base_seed + 1);
  spec.seed_stride = 1000;
  EXPECT_EQ(spec.field_seed(0, 3), spec.base_seed + 3000);
  // Independent: every trial gets its own SplitMix64-derived stream.
  spec.seed_mode = exp::SeedMode::kIndependent;
  EXPECT_NE(spec.field_seed(0, 1), spec.field_seed(1, 1));
  EXPECT_EQ(spec.field_seed(0, 1), util::derive_seed(spec.base_seed, 1));
  EXPECT_EQ(spec.field_seed(1, 0), util::derive_seed(spec.base_seed, 2));
}

TEST(SweepSpec, JsonRoundTripPreservesFingerprint) {
  const exp::SweepSpec spec = small_spec();
  const exp::SweepSpec back = exp::SweepSpec::from_json(spec.to_json());
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.nodes_axis, spec.nodes_axis);
  EXPECT_EQ(back.base_seed, spec.base_seed);
  EXPECT_EQ(back.solvers, spec.solvers);
  EXPECT_EQ(back.fingerprint(), spec.fingerprint());
  // Any material change moves the fingerprint.
  exp::SweepSpec changed = spec;
  changed.runs += 1;
  EXPECT_NE(changed.fingerprint(), spec.fingerprint());
}

TEST(SweepSpec, GoldenScenarioFileLoads) {
  const std::string path = std::string(WRSN_TEST_DATA_DIR) + "/golden_scenario.json";
  const exp::SweepSpec golden = exp::SweepSpec::load(path);
  EXPECT_EQ(golden.name, "golden");
  EXPECT_EQ(golden.side, 250.0);
  EXPECT_EQ(golden.nodes_axis, (std::vector<int>{80, 120}));
  EXPECT_EQ(golden.base_seed, 9001u);
  EXPECT_EQ(golden.solvers, (std::vector<std::string>{"rfh", "idb"}));
  // The golden file is the dump of small_spec() (name aside): loading it
  // must reproduce the in-code spec's trials exactly.
  exp::SweepSpec code = small_spec();
  code.name = "golden";
  EXPECT_EQ(golden.fingerprint(), code.fingerprint());
  // Save -> load is the identity on the canonical dump.
  const std::string copy = temp_path("golden_copy.json");
  golden.save(copy);
  EXPECT_EQ(exp::SweepSpec::load(copy).to_json().dump(), golden.to_json().dump());
  std::remove(copy.c_str());
}

TEST(ExperimentRunner, ThreadCountDoesNotChangeResults) {
  const exp::SweepSpec spec = small_spec();
  exp::RunnerOptions serial;
  serial.threads = 1;
  const exp::SweepResult one = exp::ExperimentRunner(spec, serial).run();
  exp::RunnerOptions parallel;
  parallel.threads = 4;
  const exp::SweepResult four = exp::ExperimentRunner(spec, parallel).run();
  // Bit-identical artifacts: costs, diagnostics, ordering.
  EXPECT_EQ(result_signature(one), result_signature(four));
  ASSERT_EQ(one.trials.size(), four.trials.size());
  for (std::size_t t = 0; t < one.trials.size(); ++t) {
    ASSERT_EQ(one.trials[t].outcomes.size(), four.trials[t].outcomes.size());
    for (std::size_t s = 0; s < one.trials[t].outcomes.size(); ++s) {
      EXPECT_EQ(one.trials[t].outcomes[s].cost, four.trials[t].outcomes[s].cost);
    }
  }
}

TEST(ExperimentRunner, TrialsAreExecutionOrderIndependent) {
  // Seeds depend only on (config, run), never on completion order, so a
  // sweep restricted to one config must price it identically to the full
  // grid (same field seeds, same instances).
  const exp::SweepSpec full = small_spec();
  exp::SweepSpec only_second = full;
  only_second.nodes_axis = {120};
  const exp::SweepResult full_run = exp::ExperimentRunner(full, {}).run();
  const exp::SweepResult second_run = exp::ExperimentRunner(only_second, {}).run();
  for (int run = 0; run < full.runs; ++run) {
    const auto& from_full = full_run.trials[static_cast<std::size_t>(1 * full.runs + run)];
    const auto& alone = second_run.trials[static_cast<std::size_t>(run)];
    EXPECT_EQ(from_full.field_seed, alone.field_seed);
    for (std::size_t s = 0; s < from_full.outcomes.size(); ++s) {
      EXPECT_EQ(from_full.outcomes[s].cost, alone.outcomes[s].cost);
    }
  }
}

TEST(ExperimentRunner, CheckpointResumeSkipsDoneTrials) {
  const exp::SweepSpec spec = small_spec();
  const std::string path = temp_path("resume.ckpt");
  std::remove(path.c_str());

  exp::RunnerOptions options;
  options.checkpoint_path = path;
  const exp::SweepResult first = exp::ExperimentRunner(spec, options).run();
  EXPECT_EQ(first.resumed_trials, 0);

  // Second run resumes everything and reproduces the artifact bit-for-bit.
  const exp::SweepResult resumed = exp::ExperimentRunner(spec, options).run();
  EXPECT_EQ(resumed.resumed_trials, spec.num_trials());
  EXPECT_EQ(result_signature(resumed), result_signature(first));
  for (const auto& trial : resumed.trials) EXPECT_TRUE(trial.resumed);

  // Truncate mid-block: the damaged tail is re-run, the intact prefix kept.
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  ASSERT_GT(lines.size(), 4u);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i + 3 < lines.size(); ++i) out << lines[i] << "\n";
  out.close();
  const exp::SweepResult partial = exp::ExperimentRunner(spec, options).run();
  EXPECT_GT(partial.resumed_trials, 0);
  EXPECT_LT(partial.resumed_trials, spec.num_trials());
  EXPECT_EQ(result_signature(partial), result_signature(first));
  std::remove(path.c_str());
}

TEST(ExperimentRunner, LargestTrialsRunFirst) {
  // Trials start largest-first: posts descending, then nodes descending,
  // ties by trial id.  At one thread that is also the order of the on_trial
  // calls and of the checkpoint's done markers.
  exp::SweepSpec spec = small_spec();
  spec.side = 200.0;
  spec.posts_axis = {15, 30, 20};
  spec.nodes_axis = {60, 90};
  spec.solvers = {"rfh"};
  // Configs are posts-major: (15,60) (15,90) (30,60) (30,90) (20,60) (20,90),
  // two runs each.
  const std::vector<int> expected = {6, 7, 4, 5, 10, 11, 8, 9, 2, 3, 0, 1};

  const std::string path = temp_path("order.ckpt");
  std::remove(path.c_str());
  std::vector<int> seen;
  exp::RunnerOptions options;
  options.threads = 1;
  options.checkpoint_path = path;
  options.on_trial = [&](const exp::TrialRow& row) { seen.push_back(row.trial); };
  exp::ExperimentRunner(spec, options).run();
  EXPECT_EQ(seen, expected);

  std::ifstream in(path);
  std::vector<int> done_order;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("done ", 0) == 0) done_order.push_back(std::stoi(line.substr(5)));
  }
  EXPECT_EQ(done_order, expected);

  // Resumed trials are reported in the same order.
  seen.clear();
  const exp::SweepResult resumed = exp::ExperimentRunner(spec, options).run();
  EXPECT_EQ(resumed.resumed_trials, spec.num_trials());
  EXPECT_EQ(seen, expected);
  std::remove(path.c_str());
}

TEST(ExperimentRunner, UnevenGridIsThreadCountInvariant) {
  // Trials of three sizes, more workers than some size classes and fewer
  // than others: whichever worker pulls a trial, the rows are the same.
  exp::SweepSpec spec = small_spec();
  spec.side = 200.0;
  spec.posts_axis = {12, 30, 20};
  spec.nodes_axis = {80};
  spec.runs = 3;
  spec.solvers = {"rfh", "idb", "rfh+ls"};
  exp::RunnerOptions serial;
  serial.threads = 1;
  const std::string reference = result_signature(exp::ExperimentRunner(spec, serial).run());
  for (int threads : {2, 3, 4, 7}) {
    exp::RunnerOptions options;
    options.threads = threads;
    EXPECT_EQ(result_signature(exp::ExperimentRunner(spec, options).run()), reference)
        << "threads " << threads;
  }

  // A run killed midway: keep the checkpoint's first half, cut inside a
  // block, and resume on another thread count.
  const std::string path = temp_path("uneven.ckpt");
  std::remove(path.c_str());
  exp::RunnerOptions writer;
  writer.threads = 4;
  writer.checkpoint_path = path;
  exp::ExperimentRunner(spec, writer).run();
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  ASSERT_GT(lines.size(), 8u);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < lines.size() / 2; ++i) out << lines[i] << "\n";
  out << lines[lines.size() / 2].substr(0, lines[lines.size() / 2].size() / 2);
  out.close();
  exp::RunnerOptions resume;
  resume.threads = 3;
  resume.checkpoint_path = path;
  const exp::SweepResult resumed = exp::ExperimentRunner(spec, resume).run();
  EXPECT_GT(resumed.resumed_trials, 0);
  EXPECT_LT(resumed.resumed_trials, spec.num_trials());
  EXPECT_EQ(result_signature(resumed), reference);
  std::remove(path.c_str());
}

TEST(ExperimentRunner, CheckpointRejectsForeignFingerprint) {
  const exp::SweepSpec spec = small_spec();
  const std::string path = temp_path("foreign.ckpt");
  std::remove(path.c_str());
  exp::RunnerOptions options;
  options.checkpoint_path = path;
  exp::ExperimentRunner(spec, options).run();
  exp::SweepSpec other = spec;
  other.base_seed += 1;
  EXPECT_THROW(exp::ExperimentRunner(other, options).run(), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ExperimentRunner, SolverErrorsAreRecordedPerRow) {
  exp::SweepSpec spec = small_spec();
  spec.nodes_axis = {80};
  spec.runs = 1;
  // N=25 posts but only 10 nodes: deployment needs >= 1 node per post, so
  // every solver must fail on this config -- recorded, not thrown.
  spec.nodes_axis = {10};
  const exp::SweepResult result = exp::ExperimentRunner(spec, {}).run();
  ASSERT_EQ(result.trials.size(), 1u);
  for (const auto& outcome : result.trials[0].outcomes) {
    EXPECT_FALSE(outcome.ok);
    EXPECT_FALSE(outcome.error.empty());
  }
  EXPECT_EQ(result.cost_stats(0, 0).count(), 0);
}

TEST(ExperimentRunner, CsvAndJsonWritersAreStable) {
  exp::SweepSpec spec = small_spec();
  spec.nodes_axis = {80};
  spec.runs = 1;
  const exp::SweepResult result = exp::ExperimentRunner(spec, {}).run();
  std::ostringstream csv;
  exp::write_rows_csv(csv, result, false);
  const std::string text = csv.str();
  EXPECT_NE(
      text.find("trial,config,run,posts,nodes,levels,eta,hazard,field_seed,solver,status,cost"),
      std::string::npos);
  EXPECT_NE(text.find("rfh/iterations"), std::string::npos);
  EXPECT_EQ(text.find("seconds"), std::string::npos) << "timings must be opt-in";
  std::ostringstream json;
  exp::write_rows_json(json, spec, result, false);
  const io::Json doc = io::Json::parse(json.str());
  EXPECT_EQ(doc.at("format").as_string(), "wrsn-exp-rows v1");
  EXPECT_EQ(doc.at("rows").as_array().size(), 2u);  // 1 trial x 2 solvers
}

TEST(SweepSpec, HazardAxisExpandsInnermostAndValidates) {
  exp::SweepSpec spec = small_spec();
  spec.hazard_axis = {0.0, 0.01};
  spec.sim_rounds = 20;
  EXPECT_EQ(spec.num_configs(), 1 * 2 * 1 * 1 * 2);
  const auto configs = spec.expand();
  EXPECT_EQ(configs[0].hazard, 0.0);
  EXPECT_EQ(configs[1].hazard, 0.01);
  EXPECT_EQ(configs[0].nodes, configs[1].nodes);
  EXPECT_NO_THROW(spec.validate());
  // A non-zero hazard without a simulation stage is meaningless.
  spec.sim_rounds = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.sim_rounds = 20;
  spec.hazard_axis = {1.5};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.hazard_axis = {0.01};
  spec.sim_repair = "teleport";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SweepSpec, ExactThreadsAxisFansOutSolversAndRoundTrips) {
  exp::SweepSpec spec = small_spec();
  // No axis: the runner's solver list is exactly the spec's, and the legacy
  // dump (and thus checkpoint fingerprint) never mentions the axis.
  EXPECT_EQ(spec.expanded_solvers(), spec.solvers);
  EXPECT_EQ(spec.to_json().dump().find("exact_threads"), std::string::npos);

  spec.solvers = {"rfh", "exact", "exact:threads=4"};
  spec.exact_threads_axis = {1, 2};
  EXPECT_NO_THROW(spec.validate());
  // Only the unpinned exact spec fans out, in place, in axis order.
  EXPECT_EQ(spec.expanded_solvers(),
            (std::vector<std::string>{"rfh", "exact:threads=1", "exact:threads=2",
                                      "exact:threads=4"}));
  const exp::SweepSpec back = exp::SweepSpec::from_json(spec.to_json());
  EXPECT_EQ(back.exact_threads_axis, spec.exact_threads_axis);
  EXPECT_EQ(back.fingerprint(), spec.fingerprint());

  // Malformed axes: non-positive counts, or no exact solver to fan.
  exp::SweepSpec bad = spec;
  bad.exact_threads_axis = {0};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = spec;
  bad.solvers = {"rfh", "exact:threads=4"};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Runner, ExactThreadsAxisPricesIdenticallyPerThreadCount) {
  // Closed-run exact is bit-identical across thread counts, so the fanned
  // solver columns of one trial must agree exactly.
  exp::SweepSpec spec;
  spec.name = "exact-fan";
  spec.side = 200.0;
  spec.posts_axis = {5};
  spec.nodes_axis = {12};
  spec.levels_axis = {3};
  spec.eta_axis = {0.01};
  spec.runs = 1;
  spec.base_seed = 77;
  spec.solvers = {"exact"};
  spec.exact_threads_axis = {1, 2};
  exp::ExperimentRunner runner(spec, {});
  const exp::SweepResult result = runner.run();
  ASSERT_EQ(result.solver_names,
            (std::vector<std::string>{"exact:threads=1", "exact:threads=2"}));
  ASSERT_EQ(result.trials.size(), 1u);
  const auto& outcomes = result.trials[0].outcomes;
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[0].ok);
  ASSERT_TRUE(outcomes[1].ok);
  EXPECT_EQ(outcomes[0].cost, outcomes[1].cost);
}

TEST(SweepSpec, SimSeedIsPerTrialAndDecorrelatedFromFieldSeed) {
  exp::SweepSpec spec = small_spec();
  EXPECT_NE(spec.sim_seed(0, 0), spec.sim_seed(0, 1));
  EXPECT_NE(spec.sim_seed(0, 0), spec.sim_seed(1, 0));
  spec.seed_mode = exp::SeedMode::kIndependent;
  EXPECT_NE(spec.sim_seed(0, 1), spec.field_seed(0, 1));
}

TEST(SweepSpec, SimBlockRoundTripsAndLegacyDumpIsUnchanged) {
  // Without a simulation stage the JSON dump must not mention hazard or sim
  // at all -- existing scenario files and checkpoint fingerprints predate
  // them and must stay valid.
  const exp::SweepSpec plain = small_spec();
  const std::string dump = plain.to_json().dump();
  EXPECT_EQ(dump.find("hazard"), std::string::npos);
  EXPECT_EQ(dump.find("\"sim\""), std::string::npos);

  exp::SweepSpec sim_spec = small_spec();
  sim_spec.hazard_axis = {0.0, 0.02};
  sim_spec.sim_rounds = 50;
  sim_spec.sim_bits_per_report = 512;
  sim_spec.sim_battery_j = 0.1;
  sim_spec.sim_backlog_reports = 4;
  sim_spec.sim_link_outage_rounds = 5;
  sim_spec.sim_node_death_hazard = 0.001;
  sim_spec.sim_link_outage_hazard = 0.002;
  sim_spec.sim_repair = "maintain";
  sim_spec.sim_maintenance_period = 25;
  const exp::SweepSpec back = exp::SweepSpec::from_json(sim_spec.to_json());
  EXPECT_EQ(back.hazard_axis, sim_spec.hazard_axis);
  EXPECT_EQ(back.sim_rounds, 50);
  EXPECT_EQ(back.sim_bits_per_report, 512);
  EXPECT_EQ(back.sim_battery_j, 0.1);
  EXPECT_EQ(back.sim_backlog_reports, 4);
  EXPECT_EQ(back.sim_link_outage_rounds, 5);
  EXPECT_EQ(back.sim_node_death_hazard, 0.001);
  EXPECT_EQ(back.sim_link_outage_hazard, 0.002);
  EXPECT_EQ(back.sim_repair, "maintain");
  EXPECT_EQ(back.sim_maintenance_period, 25);
  EXPECT_EQ(back.fingerprint(), sim_spec.fingerprint());
  EXPECT_NE(sim_spec.fingerprint(), plain.fingerprint());
}

TEST(ExperimentRunner, SimulationStageIsThreadIdentical) {
  // The resilience acceptance bar: identical (scenario, seed) must give
  // bit-identical rows -- including every sim/* diagnostic -- for any
  // thread count.
  exp::SweepSpec spec = small_spec();
  spec.nodes_axis = {80};
  spec.hazard_axis = {0.0, 0.01};
  spec.sim_rounds = 50;
  spec.sim_repair = "reroute";
  exp::RunnerOptions serial;
  serial.threads = 1;
  exp::RunnerOptions parallel;
  parallel.threads = 4;
  const exp::SweepResult one = exp::ExperimentRunner(spec, serial).run();
  const exp::SweepResult four = exp::ExperimentRunner(spec, parallel).run();
  EXPECT_EQ(result_signature(one), result_signature(four));
  // The sim stage actually ran and attached its facts.
  EXPECT_NE(result_signature(one).find("sim/delivery_ratio"), std::string::npos);
  // Hazard 0.01 config saw faults; hazard 0 config did not.
  EXPECT_EQ(one.diag_stats(0, 0, "sim/faults").mean(), 0.0);
  EXPECT_GT(one.diag_stats(1, 0, "sim/faults").mean(), 0.0);
}

TEST(ExperimentRunner, RepairPolicyChangesSimOutcomeNotSolve) {
  exp::SweepSpec spec = small_spec();
  spec.side = 200.0;
  spec.nodes_axis = {80};
  spec.levels_axis = {4};
  spec.solvers = {"idb"};
  spec.hazard_axis = {0.02};
  spec.sim_rounds = 100;
  spec.runs = 2;
  exp::SweepSpec none = spec;
  none.sim_repair = "none";
  exp::SweepSpec reroute = spec;
  reroute.sim_repair = "reroute";
  const exp::SweepResult a = exp::ExperimentRunner(none, {}).run();
  const exp::SweepResult b = exp::ExperimentRunner(reroute, {}).run();
  // Same instances, same solve costs; repair only moves the sim outcomes.
  EXPECT_EQ(a.cost_stats(0, 0).mean(), b.cost_stats(0, 0).mean());
  EXPECT_EQ(a.diag_stats(0, 0, "sim/faults").mean(),
            b.diag_stats(0, 0, "sim/faults").mean());
  EXPECT_GE(b.diag_stats(0, 0, "sim/delivery_ratio").mean(),
            a.diag_stats(0, 0, "sim/delivery_ratio").mean());
  EXPECT_GT(b.diag_stats(0, 0, "sim/reroutes").mean(), 0.0);
}

TEST(SweepSpec, PoliciesBlockRoundTripsAndLegacyDumpIsUnchanged) {
  // Without a policy stage the JSON dump must not mention policies at all --
  // existing scenario files and checkpoint fingerprints predate the stage
  // and must stay valid.
  const exp::SweepSpec plain = small_spec();
  EXPECT_EQ(plain.to_json().dump().find("policies"), std::string::npos);

  exp::SweepSpec policy_spec = small_spec();
  policy_spec.policies_to_evaluate = {"nearest-deficit", "threshold:low=0.4",
                                      "lookahead:horizon=3", "fixed"};
  policy_spec.policy_rounds = 250;
  policy_spec.policy_fleet = 2;
  policy_spec.policy_bits_per_report = 2048;
  policy_spec.policy_battery_j = 0.03;
  policy_spec.policy_speed_mps = 8.0;
  policy_spec.policy_power_w = 40.0;
  policy_spec.policy_travel_power_w = 15.0;
  policy_spec.policy_low_watermark = 0.4;
  policy_spec.policy_high_watermark = 0.9;
  policy_spec.policy_round_period_s = 30.0;
  policy_spec.placement_radius_m = 45.0;
  policy_spec.placement_power_w = 6.0;
  policy_spec.placement_max_chargers = 7;
  policy_spec.placement_max_duty = 0.8;
  const exp::SweepSpec back = exp::SweepSpec::from_json(policy_spec.to_json());
  EXPECT_EQ(back.policies_to_evaluate, policy_spec.policies_to_evaluate);
  EXPECT_EQ(back.policy_rounds, 250);
  EXPECT_EQ(back.policy_fleet, 2);
  EXPECT_EQ(back.policy_bits_per_report, 2048);
  EXPECT_EQ(back.policy_battery_j, 0.03);
  EXPECT_EQ(back.policy_speed_mps, 8.0);
  EXPECT_EQ(back.policy_power_w, 40.0);
  EXPECT_EQ(back.policy_travel_power_w, 15.0);
  EXPECT_EQ(back.policy_low_watermark, 0.4);
  EXPECT_EQ(back.policy_high_watermark, 0.9);
  EXPECT_EQ(back.policy_round_period_s, 30.0);
  EXPECT_EQ(back.placement_radius_m, 45.0);
  EXPECT_EQ(back.placement_power_w, 6.0);
  EXPECT_EQ(back.placement_max_chargers, 7);
  EXPECT_EQ(back.placement_max_duty, 0.8);
  EXPECT_EQ(back.fingerprint(), policy_spec.fingerprint());
  EXPECT_NE(policy_spec.fingerprint(), plain.fingerprint());
}

TEST(SweepSpec, ValidateRejectsBadPolicyStages) {
  exp::SweepSpec spec = small_spec();
  spec.policies_to_evaluate = {"no-such-policy"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.policies_to_evaluate = {"threshold:low=2"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.policies_to_evaluate = {"threshold"};
  spec.policy_rounds = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.policy_rounds = 100;
  spec.policy_low_watermark = 0.95;
  spec.policy_high_watermark = 0.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.policy_low_watermark = 0.5;
  spec.policy_high_watermark = 0.95;
  spec.placement_radius_m = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.placement_radius_m = 50.0;
  spec.validate();  // restored spec is fine
  // A non-zero hazard axis is allowed when only the policy stage is active.
  spec.hazard_axis = {0.01};
  spec.validate();
  spec.policies_to_evaluate.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ExperimentRunner, PolicyStageIsThreadIdentical) {
  // Policy diagnostics must be bit-identical for any thread count, like the
  // rest of the row -- the policy stage derives everything from (spec,
  // config index, run), never from execution order.
  exp::SweepSpec spec = small_spec();
  spec.posts_axis = {12};
  spec.nodes_axis = {40};
  spec.side = 200.0;
  spec.solvers = {"rfh"};
  spec.policies_to_evaluate = {"nearest-deficit", "threshold", "fixed"};
  spec.policy_rounds = 120;
  spec.policy_speed_mps = 10.0;
  spec.policy_power_w = 50.0;
  exp::RunnerOptions serial;
  serial.threads = 1;
  exp::RunnerOptions parallel;
  parallel.threads = 4;
  const exp::SweepResult one = exp::ExperimentRunner(spec, serial).run();
  const exp::SweepResult four = exp::ExperimentRunner(spec, parallel).run();
  EXPECT_EQ(result_signature(one), result_signature(four));
  // Every policy attached its facts; the fixed entry also reports placement.
  const std::string rows = result_signature(one);
  EXPECT_NE(rows.find("pol0/delivery"), std::string::npos);
  EXPECT_NE(rows.find("pol1/visits"), std::string::npos);
  EXPECT_NE(rows.find("pol2/chargers"), std::string::npos);
  EXPECT_NE(rows.find("pol2/fixed_j"), std::string::npos);
  // Mobile policies visited posts; the fixed infrastructure never travels.
  EXPECT_GT(one.diag_stats(0, 0, "pol0/visits").mean(), 0.0);
  EXPECT_EQ(one.diag_stats(0, 0, "pol2/visits").mean(), 0.0);
  EXPECT_GT(one.diag_stats(0, 0, "pol2/chargers").mean(), 0.0);
}

}  // namespace
}  // namespace wrsn
