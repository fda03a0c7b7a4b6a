// The one planning pipeline behind both faces of the product: the
// `plan_tool` CLI and the `wrsn_serve` daemon (src/svc/server.hpp).
//
// plan_tool used to own this logic inline; the service refactor hoisted it
// here so a `plan` request over the wire runs the *same* field sampling,
// solver-spec fold-in, charger feasibility analysis, and report assembly as
// the CLI -- which is what makes the protocol's byte-identity contract
// testable (docs/service.md "Reports"): for the same scenario and solver
// spec, the daemon's `wrsn-report v1` text equals `plan_tool --report`
// output up to the trailing metrics section (process-global metrics are the
// one thing a warm daemon cannot reproduce for a fresh process).
#pragma once

#include <cstdint>
#include <string>

#include "core/instance.hpp"
#include "core/solver.hpp"
#include "geom/field.hpp"
#include "obs/report.hpp"
#include "sim/tour.hpp"
#include "svc/protocol.hpp"

namespace wrsn::svc {

/// Solve-stage knobs shared by plan_tool flags and `plan` request params.
/// Defaults mirror plan_tool's.
struct PlanOptions {
  std::string solver = "rfh+ls";  ///< core::SolverRegistry spec string
  int ls_threads = 1;             ///< folded into "+ls" specs as ls-threads=
  std::string ls_strategy = "first";
  int exact_threads = 1;          ///< folded into "exact" specs as threads=
  int exact_split_depth = 0;
  double exact_budget_s = 0.0;    ///< anytime budget; folded when > 0
  double charger_power_w = 10.0;
  double charger_speed_mps = 5.0;
  int bits_per_report = 4096;
};

/// Parses `options.solver` and folds the standalone knobs into the spec
/// unless the spec pins them itself ("+ls" specs gain ls-threads/
/// ls-strategy, "exact" gains threads/split_depth/budget) -- plan_tool's
/// historical fold-in, verbatim.  Throws std::invalid_argument on a
/// malformed spec.
core::SolverSpec resolve_solver_spec(const PlanOptions& options);

/// Samples a connected field exactly the way plan_tool does for generated
/// fields: one util::Rng seeded with `scenario.seed`, regenerate while
/// disconnected at the radio's max range, up to 1000 attempts.
geom::Field sample_field(const Scenario& scenario);

/// The scenario's charging model (linear | sublinear | saturating, the
/// kinds Scenario::from_json accepts; std::bad_optional_access for any
/// other).
energy::ChargingModel make_charging(const Scenario& scenario);

/// Field -> full instance under the scenario's radio/charging/budget.
core::Instance build_instance(const Scenario& scenario);

/// One plan run's complete outcome: solution + cost + solver diagnostics,
/// plus the charger patrol analysis plan_tool reports alongside.
struct PlanOutcome {
  /// RoutingTree has no default state; a fresh outcome holds the trivial
  /// one-post tree until run_plan fills it.
  core::Solution solution{graph::RoutingTree(1, 1), {}};
  double cost_j_per_bit = 0.0;
  core::SolverDiagnostics diagnostics;
  std::string solver_canonical;  ///< resolved spec, canonical form
  sim::TourPlan tour;
  sim::PatrolFeasibility feasibility;
  int bits_per_report = 4096;  ///< traffic scale the feasibility used
};

/// Solves `instance` under the resolved spec and analyzes the single-charger
/// patrol.  Throws std::invalid_argument for bad solver specs (propagated
/// from the registry).  `sink`/`progress` may be nullptr.
PlanOutcome run_plan(const core::Instance& instance, const PlanOptions& options,
                     obs::Sink* sink, obs::ProgressSink* progress);

/// Appends the instance / solver / charger report sections exactly as
/// plan_tool emits them (same keys, same order, same skip of the verbose
/// rfh/iter_cost_* diagnostics).  `field_label` is "generated" for sampled
/// fields or the surveyed file path; `solver_label` is the spec string as
/// the user wrote it (the section reports the request, not the fold-in).
void add_plan_sections(obs::RunReport& report, const core::Instance& instance,
                       const PlanOutcome& outcome, const std::string& field_label,
                       std::int64_t seed, double eta, int bits_per_report,
                       const std::string& solver_label);

/// The daemon's report for a `plan` request: title "wrsn deployment plan",
/// the add_plan_sections body, then provenance -- i.e. plan_tool --report
/// with --sim-rounds 0, minus the metrics section.
std::string render_plan_report(const core::Instance& instance, const PlanOutcome& outcome,
                               const Scenario& scenario, const std::string& solver_label);

}  // namespace wrsn::svc
