// Shared pieces of the perfbench harness: options, the result record every
// workload fills, latency summaries, the traced run's stage ledger, and
// build provenance.
//
// The harness drives the wrsn library only through its public headers and
// times calls into each layer from outside.  One invocation runs one
// workload; its last stdout line is a JSON document that perfbench/run.py
// checks against BENCHMARK.json and the pinned costs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the self-test; figures from a smoke run mean nothing.
  bool smoke = false;
  /// Run every input that perfbench/pins.json pins exactly once (no
  /// timing), to regenerate the pins.
  bool pin = false;
  /// Where the traced run writes its Chrome trace and self-time table, and
  /// the service its socket (relative to the repository root).
  std::string out_dir = ".bench_out";
};

/// Median and tail of a sample.  The tail is the highest percentile that
/// still has at least ten samples beyond it; with fewer than eleven samples
/// there is none and `tail` holds the maximum.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< percentile the tail sits at (0 when none)
};
Summary summarize(std::vector<double> values);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);
wrsn::io::Json summary_json(const Summary& summary);

/// Inputs come from a fixed corpus per workload: input i of a run is corpus
/// entry (seed + i) mod `corpus`, so the seed picks a window of the corpus
/// (every entry with --pin).  Neighbouring seeds share most inputs, which
/// keeps the figures of different seeds comparable, and each entry's
/// results can be pinned.
std::vector<int> corpus_window(const Options& options, int corpus, int window);
/// The 48-bit seed of corpus entry `entry` of `workload` (48 bits stay exact
/// through JSON numbers).
std::uint64_t corpus_seed(const std::string& workload, int entry);

/// Relative agreement under the library's floating-point contract:
/// |a - b| <= rel * max(|a|, |b|), with no absolute floor (costs are
/// J/bit, far below 1).
inline bool same_cost(double a, double b, double rel = 1e-9) {
  const double scale = std::max(a < 0 ? -a : a, b < 0 ? -b : b);
  const double diff = a > b ? a - b : b - a;
  return diff <= rel * scale;
}

/// What one workload run reports.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void detail(const std::string& key, wrsn::io::Json value);
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  /// Counts one failed or wrong operation under `code`.
  void fail(const std::string& code, std::int64_t n = 1);
  /// Costs keyed by input (e.g. "paper_sweep/<seed>"), checked against the
  /// pinned values by run.py.
  void costs(const std::string& key, const std::vector<double>& values);
  /// Marks the run invalid (not slow): the measurement itself broke.
  void invalid(const std::string& why) { invalid_ = why; }
  const std::string& invalid_reason() const noexcept { return invalid_; }

  std::string dump(const Options& options) const;

 private:
  wrsn::io::Json metrics_ = wrsn::io::Json::object();
  wrsn::io::Json details_ = wrsn::io::Json::object();
  wrsn::io::Json costs_ = wrsn::io::Json::object();
  std::map<std::string, std::int64_t> errors_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::string invalid_;
};

/// Per-layer seconds attributed to the traced operations, the named
/// residual (the part of each operation no layer explains, never negative),
/// the operations' own end-to-end time, and that of the same operations in
/// untraced passes.  `check` enforces the stage-sum honesty rule: layers
/// plus residual within `tolerance` of the operations' end-to-end time, so
/// replays that overcount a layer fail the run.  Traced against untraced
/// time is the reported tracing overhead.
class Ledger {
 public:
  void add(const std::string& layer, double seconds) { layers_[layer] += seconds; }
  void residual(double seconds) { residual_s_ += seconds; }
  void traced_e2e(double seconds) { traced_s_ += seconds; }
  void untraced_e2e(double seconds) { untraced_s_ += seconds; }

  double stage_sum() const;

  /// Fills trace.overhead_pct and the details; fails the run when the sum
  /// strays more than `tolerance` from the end-to-end time (not in a smoke
  /// run, whose millisecond samples say nothing).
  void check(Result& result, const Options& options, double tolerance = 0.10) const;
  /// Writes the per-layer self-time table (plus the program's own spans
  /// aggregated by name) next to the Chrome trace.
  void write_table(const std::string& path, const std::string& workload) const;

 private:
  std::map<std::string, double> layers_;
  double residual_s_ = 0.0;
  double traced_s_ = 0.0;
  double untraced_s_ = 0.0;
};

/// Enables the library's global trace buffer for a traced pass.
void start_tracing();
/// Stops recording and writes the buffered spans as a Chrome trace.
void save_trace(const Options& options);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();
/// git SHA, build type, nproc, CPU model and cache sizes.
wrsn::io::Json provenance();
bool release_build();

/// Every per-layer metric name the traced run may emit, with its unit; a
/// workload that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// Fills each per-layer metric the workload left unset with 0.
void fill_per_layer(Result& result, const std::map<std::string, double>& values);

int run_paper_sweep(const Options& options, Result& result);
int run_large_field(const Options& options, Result& result);
int run_service(const Options& options, Result& result);

}  // namespace perfbench
