#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "exp/spec.hpp"
#include "obs/build_info.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

using wrsn::io::Json;

Summary summarize(std::vector<double> values) {
  Summary summary;
  summary.count = values.size();
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  summary.p50 = n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  if (n >= 11) {
    summary.tail = values[n - 11];
    summary.tail_pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    summary.tail = values.back();
  }
  return summary;
}

std::vector<int> corpus_window(const Options& options, int corpus, int window) {
  std::vector<int> entries;
  const int count = options.pin ? corpus : window;
  for (int i = 0; i < count; ++i) {
    entries.push_back(static_cast<int>((options.seed + static_cast<std::uint64_t>(i)) %
                                       static_cast<std::uint64_t>(corpus)));
  }
  return entries;
}

std::uint64_t corpus_seed(const std::string& workload, int entry) {
  return wrsn::util::derive_seed(wrsn::exp::fingerprint_text(workload),
                                 static_cast<std::uint64_t>(entry)) >>
         16;
}

double median(std::vector<double> values) { return summarize(std::move(values)).p50; }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

Json summary_json(const Summary& summary) {
  Json out = Json::object();
  out.set("count", Json(static_cast<std::uint64_t>(summary.count)));
  out.set("p50", Json(summary.p50));
  out.set("tail", Json(summary.tail));
  out.set("tail_pct", Json(summary.tail_pct));
  return out;
}

void Result::metric(const std::string& name, double value, const std::string& unit) {
  Json entry = Json::object();
  entry.set("value", Json(value));
  entry.set("unit", Json(unit));
  metrics_.set(name, std::move(entry));
}

void Result::detail(const std::string& key, Json value) { details_.set(key, std::move(value)); }

void Result::fail(const std::string& code, std::int64_t n) {
  errors_[code] += n;
  failed_ += n;
}

void Result::costs(const std::string& key, const std::vector<double>& values) {
  Json list = Json::array();
  for (double v : values) list.push_back(Json(v));
  costs_.set(key, std::move(list));
}

std::string Result::dump(const Options& options) const {
  Json errors = Json::object();
  for (const auto& [code, count] : errors_) errors.set(code, Json(count));
  Json out = Json::object();
  out.set("workload", Json(options.workload));
  out.set("seed", Json(options.seed));
  out.set("trace", Json(options.trace));
  out.set("smoke", Json(options.smoke));
  out.set("attempted", Json(attempted_));
  out.set("failed", Json(failed_));
  out.set("errors", std::move(errors));
  if (!invalid_.empty()) out.set("invalid", Json(invalid_));
  out.set("metrics", metrics_);
  out.set("details", details_);
  out.set("costs", costs_);
  out.set("provenance", provenance());
  return out.dump();
}

double Ledger::stage_sum() const {
  double sum = residual_s_;
  for (const auto& [name, seconds] : layers_) sum += seconds;
  return sum;
}

void Ledger::check(Result& result, const Options& options, double tolerance) const {
  const double sum = stage_sum();
  const double ratio = traced_s_ > 0.0 ? sum / traced_s_ : 0.0;
  const double overhead =
      untraced_s_ > 0.0 ? 100.0 * (traced_s_ / untraced_s_ - 1.0) : 0.0;
  Json layers = Json::object();
  for (const auto& [name, seconds] : layers_) layers.set(name, Json(seconds));
  Json ledger = Json::object();
  ledger.set("layers_s", std::move(layers));
  ledger.set("residual_s", Json(residual_s_));
  ledger.set("stage_sum_s", Json(sum));
  ledger.set("traced_e2e_s", Json(traced_s_));
  ledger.set("untraced_e2e_s", Json(untraced_s_));
  ledger.set("stage_sum_ratio", Json(ratio));
  result.detail("ledger", std::move(ledger));
  result.metric("trace.overhead_pct", overhead, "%");
  if (!options.smoke && !(ratio >= 1.0 - tolerance && ratio <= 1.0 + tolerance)) {
    std::fprintf(stderr, "perfbench: stage sum %.4f s is %.1f%% of the operations' %.4f s\n",
                 sum, 100.0 * ratio, traced_s_);
    result.fail("stage_sum");
  }
}

namespace {

/// Self time per span name: duration minus the direct children's durations
/// (nesting from the per-thread depth the buffer records).
struct SpanRow {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

std::map<std::string, SpanRow> span_self_times(std::vector<wrsn::obs::TraceEvent> events) {
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;
  });
  std::map<std::string, SpanRow> rows;
  std::vector<std::size_t> stack;
  std::vector<double> child_s(events.size(), 0.0);
  int tid = -1;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& event = events[i];
    if (event.tid != tid) {
      stack.clear();
      tid = event.tid;
    }
    while (!stack.empty()) {
      const auto& top = events[stack.back()];
      if (event.start_ns >= top.start_ns + top.dur_ns) {
        stack.pop_back();
      } else {
        break;
      }
    }
    if (!stack.empty()) child_s[stack.back()] += 1e-9 * static_cast<double>(event.dur_ns);
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    SpanRow& row = rows[events[i].name];
    const double dur = 1e-9 * static_cast<double>(events[i].dur_ns);
    ++row.calls;
    row.total_s += dur;
    row.self_s += std::max(0.0, dur - child_s[i]);
  }
  return rows;
}

}  // namespace

void Ledger::write_table(const std::string& path, const std::string& workload) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  char line[256];
  out << "perfbench layer table v1: " << workload << "\n";
  out << "untraced end-to-end of the traced operations: " << untraced_s_ << " s\n";
  out << "traced end-to-end of the same operations:     " << traced_s_ << " s\n\n";
  std::snprintf(line, sizeof(line), "%-28s %14s %8s\n", "layer", "self_s", "share");
  out << line;
  const double sum = stage_sum();
  for (const auto& [name, seconds] : layers_) {
    std::snprintf(line, sizeof(line), "%-28s %14.6f %7.2f%%\n", name.c_str(), seconds,
                  sum > 0 ? 100.0 * seconds / sum : 0.0);
    out << line;
  }
  std::snprintf(line, sizeof(line), "%-28s %14.6f %7.2f%%\n", "residual", residual_s_,
                sum > 0 ? 100.0 * residual_s_ / sum : 0.0);
  out << line;
  std::snprintf(line, sizeof(line), "%-28s %14.6f\n\n", "sum", sum);
  out << line;

  const auto rows = span_self_times(wrsn::obs::TraceBuffer::global().events());
  out << "spans in the Chrome trace (benchmark and library), by name:\n";
  std::snprintf(line, sizeof(line), "%-28s %10s %14s %14s\n", "span", "calls", "total_s",
                "self_s");
  out << line;
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof(line), "%-28s %10llu %14.6f %14.6f\n", name.c_str(),
                  static_cast<unsigned long long>(row.calls), row.total_s, row.self_s);
    out << line;
  }
}

void start_tracing() {
  auto& buffer = wrsn::obs::TraceBuffer::global();
  buffer.clear();
  buffer.set_enabled(true);
}

void save_trace(const Options& options) {
  auto& buffer = wrsn::obs::TraceBuffer::global();
  buffer.set_enabled(false);
  std::filesystem::create_directories(options.out_dir);
  wrsn::obs::save_chrome_trace(options.out_dir + "/" + options.workload + ".trace.json",
                               buffer.events());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

Json cache_kib(int name) {
  const long bytes = sysconf(name);
  return bytes > 0 ? Json(static_cast<std::int64_t>(bytes / 1024)) : Json();
}

}  // namespace

bool release_build() { return wrsn::obs::build_info().build_type == "release"; }

Json provenance() {
  const auto& info = wrsn::obs::build_info();
  Json out = Json::object();
  out.set("git_sha", Json(info.git_sha));
  out.set("build_type", Json(info.build_type));
  out.set("nproc", Json(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN))));
  out.set("cpu_model", Json(cpu_model()));
  Json caches = Json::object();
  caches.set("l1d_kib", cache_kib(_SC_LEVEL1_DCACHE_SIZE));
  caches.set("l2_kib", cache_kib(_SC_LEVEL2_CACHE_SIZE));
  caches.set("l3_kib", cache_kib(_SC_LEVEL3_CACHE_SIZE));
  out.set("caches", std::move(caches));
  return out;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      // paper_sweep
      {"exp.worker_idle_share", "ratio"},
      {"exp.worker_imbalance", "ratio"},
      {"exp.trial_s", "s"},
      {"exp.instance_build_s", "s"},
      {"core.idb_s", "s"},
      {"core.rfh_ls_s", "s"},
      {"ls.evaluations", "count"},
      {"ls.accept_ratio", "ratio"},
      {"pricer.fallback_ratio", "ratio"},
      {"pricer.region_mean", "count"},
      {"sim.network_s", "s"},
      {"sim.charger_s", "s"},
      // large_field (core.rfh_s also on paper_sweep)
      {"geom.sample_field_s", "s"},
      {"core.instance_build_s", "s"},
      {"graph.adjacency_mb", "MB"},
      {"core.rfh_s", "s"},
      {"rfh.phase1_s", "s"},
      {"rfh.phase2_s", "s"},
      {"rfh.phase3_s", "s"},
      {"rfh.phase4_s", "s"},
      {"rfh.closure_rebuilds", "count"},
      {"sim.tour_s", "s"},
      // service
      {"io.json_parse_us", "us"},
      {"io.json_dump_us", "us"},
      {"svc.frame_us", "us"},
      {"svc.request_parse_us", "us"},
      {"svc.cache_acquire_us", "us"},
      {"svc.cache_hit_ratio", "ratio"},
      {"pricer.update_us", "us"},
      {"pricer.rebuild_us", "us"},
      {"svc.incremental_ratio", "ratio"},
      {"svc.run_plan_ms", "ms"},
      {"svc.report_us", "us"},
      {"svc.residual_us", "us"},
      {"svc.gen_lag_ms", "ms"},
      {"evaluate_p50_ms", "ms"},
      {"evaluate_tail_ms", "ms"},
      {"plan_warm_p50_ms", "ms"},
      {"plan_warm_tail_ms", "ms"},
      {"plan_cold_p50_ms", "ms"},
      {"plan_cold_tail_ms", "ms"},
      // every workload
      {"trace.overhead_pct", "%"},
  };
  return metrics;
}

void fill_per_layer(Result& result, const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (name.rfind("trace.", 0) == 0) continue;  // Ledger::check sets these
    const auto it = values.find(name);
    result.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace perfbench
