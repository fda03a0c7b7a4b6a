// Experiment engine: prices a SweepSpec's trial grid with the unified
// solver registry, in parallel, reproducibly.
//
// Determinism contract: a trial's outcome depends only on (spec, trial id).
// Seeds derive from indices (SweepSpec::field_seed), solvers are stateless
// and re-entrant, and every result lands in a pre-sized per-trial slot -- so
// the returned SweepResult (and the CSV/JSON artifacts rendered from it) is
// bit-identical for every --threads value and any execution order.  Wall
// times are recorded per trial but excluded from artifacts by default,
// keeping them deterministic.
//
// Scheduling: trials start largest-first -- posts descending, then nodes
// descending, ties by trial id -- each worker pulling the next one from a
// shared cursor and running it whole.  So `on_trial` calls, checkpoint
// lines and progress events come in roughly that order (exactly that order
// at one thread), not in trial-id order.
//
// Checkpointing: with a checkpoint path set, every finished trial is
// appended to a `wrsn-exp-checkpoint v1` line file (rows first, then a
// `done` marker, under one lock).  Re-running the same spec against the
// same file skips all `done` trials; a fingerprint line refuses checkpoints
// written for a different spec.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "exp/spec.hpp"
#include "util/stats.hpp"

namespace wrsn::exp {

/// One solver's outcome on one trial instance.
struct SolverOutcome {
  bool ok = false;
  /// Total recharging cost (the paper's objective); valid when ok.
  double cost = 0.0;
  /// Wall time of the solve call.  Nondeterministic; excluded from
  /// artifacts unless explicitly requested.
  double seconds = 0.0;
  /// Exception message when !ok (e.g. InfeasibleInstance).
  std::string error;
  /// Solver diagnostics plus the runner's sol/* solution facts.
  core::SolverDiagnostics diagnostics;
  /// Present when RunnerOptions::keep_solutions (never for resumed trials:
  /// checkpoints store rows, not solutions).
  std::optional<core::Solution> solution;
};

/// One (config, run) trial: every solver priced on the same instance.
struct TrialRow {
  int trial = 0;
  int config_index = 0;
  int run = 0;
  ScenarioConfig config;
  std::uint64_t field_seed = 0;
  /// True when the row was restored from a checkpoint, not re-run.
  bool resumed = false;
  /// Parallel to the spec's solver list.
  std::vector<SolverOutcome> outcomes;
};

struct SweepResult {
  /// Indexed by trial id (config-major: trial = config_index * runs + run).
  std::vector<TrialRow> trials;
  /// Copies of the spec dimensions the aggregation helpers need.
  std::vector<std::string> solver_names;
  int runs = 0;
  int resumed_trials = 0;
  double wall_seconds = 0.0;

  /// Cost statistics of one (config, solver) cell over its ok runs.
  util::RunningStats cost_stats(int config_index, int solver_index) const;
  /// Statistics of one diagnostic key in a (config, solver) cell; trials
  /// missing the key are skipped.
  util::RunningStats diag_stats(int config_index, int solver_index,
                                std::string_view key) const;
};

struct RunnerOptions {
  /// Worker threads (util::ThreadPool); 1 = serial, 0 = all hardware
  /// threads.  Any value yields the same SweepResult.
  int threads = 1;
  /// Checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Retain each outcome's Solution in memory (off: rows only).
  bool keep_solutions = false;
  /// Observer forwarded to every solve call.  Must be thread-safe when
  /// threads != 1 (obs::MetricsSink over the global registry is).
  obs::Sink* sink = nullptr;
  /// Live `wrsn-progress v1` heartbeats under source "exp" (trials
  /// done/total, ETA, running cost summary), emitted under the runner's
  /// lock as trials finish; nullptr = silent.  Not forwarded into solver
  /// calls: concurrent trials would interleave one stream incoherently.
  /// `eta_s` prices the remaining trials at the mean so far; as the largest
  /// run first, it overestimates early in a sweep of mixed sizes.
  obs::ProgressSink* progress = nullptr;
  /// Called under the runner's lock as each trial finishes (progress
  /// reporting), largest trials first.  Completion order is
  /// nondeterministic across threads; at one thread it is the largest-first
  /// start order.
  std::function<void(const TrialRow&)> on_trial;
};

class ExperimentRunner {
 public:
  /// Validates the spec and instantiates every solver spec (throws
  /// std::invalid_argument on either before any work starts).
  explicit ExperimentRunner(SweepSpec spec, RunnerOptions options = {});

  const SweepSpec& spec() const noexcept { return spec_; }

  /// Runs (or resumes) the sweep.  Throws std::runtime_error when the
  /// checkpoint file exists but belongs to a different spec.
  SweepResult run();

 private:
  SweepSpec spec_;
  RunnerOptions options_;
  std::vector<std::unique_ptr<core::Solver>> solvers_;
};

/// Streams one CSV row per (trial, solver).  Fixed columns:
///   trial,config,run,posts,nodes,levels,eta,hazard,field_seed,solver,status,cost,error
/// then (with `include_timings`) the nondeterministic seconds column, then
/// one column per diagnostic key (union over all rows, ordered by first
/// appearance; blank when a row lacks the key).
void write_rows_csv(std::ostream& out, const SweepResult& result,
                    bool include_timings = false);

/// Same rows as a `wrsn-exp-rows v1` JSON document.
void write_rows_json(std::ostream& out, const SweepSpec& spec, const SweepResult& result,
                     bool include_timings = false);

}  // namespace wrsn::exp
