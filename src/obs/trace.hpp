// Trace spans: RAII timing regions collected into a per-run buffer and
// exportable as Chrome trace-event JSON (open chrome://tracing or Perfetto
// and drop the file in).
//
//   obs::TraceBuffer::global().set_enabled(true);
//   { WRSN_TRACE_SPAN("rfh/phase2"); trim_fat_tree(dag); }
//   obs::save_chrome_trace("run.json", obs::TraceBuffer::global().events());
//
// Spans are RAII over `util::Timer`: construction stamps the start,
// destruction records a complete ("ph":"X") event.  When the buffer is
// disabled a span costs one relaxed atomic load and an idle stopwatch
// construction, so instrumentation can stay compiled into hot solver loops.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/perf_probe.hpp"
#include "util/timer.hpp"

namespace wrsn::obs {

/// One completed span. Timestamps are `util::Timer::now_ns()` values
/// (monotonic, arbitrary epoch); exporters rebase them to the buffer's
/// earliest event.
struct TraceEvent {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  int tid = 0;    ///< small dense thread index (0 = first recording thread)
  int depth = 0;  ///< span nesting depth within its thread at record time
  /// Counter deltas over the span when the buffer had perf probing enabled
  /// (obs/perf_probe.hpp); `perf.counters_available` distinguishes real
  /// hardware readings from the allocation-only degraded mode.
  bool has_perf = false;
  PerfCounters perf{};
};

/// Thread-safe append-only collection of completed spans.
class TraceBuffer {
 public:
  TraceBuffer() = default;
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Disabled buffers drop record() calls; spans check this before timing.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

  /// When enabled, spans read perf counters (obs/perf_probe.hpp) at entry
  /// and exit and attach the deltas.  Independent of set_enabled; has no
  /// effect while the buffer itself is disabled.
  void set_perf_enabled(bool enabled) noexcept {
    perf_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool perf_enabled() const noexcept {
    return perf_enabled_.load(std::memory_order_relaxed);
  }

  void record(std::string name, std::int64_t start_ns, std::int64_t dur_ns, int depth);
  /// record() plus per-span counter deltas.
  void record_perf(std::string name, std::int64_t start_ns, std::int64_t dur_ns, int depth,
                   const PerfCounters& perf);
  std::vector<TraceEvent> events() const;
  std::size_t size() const;
  void clear();

  /// Process-wide buffer the WRSN_TRACE_SPAN macro reports into.
  static TraceBuffer& global();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<bool> perf_enabled_{false};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::vector<std::size_t> thread_hashes_;  // dense tid assignment, FIFO
};

/// RAII timing region. The name must outlive the span (string literals).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name,
                     TraceBuffer& buffer = TraceBuffer::global()) noexcept;
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  TraceBuffer* buffer_;  ///< nullptr when tracing was disabled at entry
  std::int64_t start_ns_ = 0;
  util::Timer timer_;
  int depth_ = 0;
  bool perf_ = false;  ///< perf probing was on at entry
  PerfCounters perf_start_;
};

/// Writes `events` as a Chrome trace-event JSON array of complete events
/// ("ph":"X", microsecond ts/dur rebased to the earliest span).
void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events);

/// Parses the subset of Chrome trace JSON that `write_chrome_trace` emits
/// (round-trip support for tests and tooling). Throws std::runtime_error on
/// malformed input.
std::vector<TraceEvent> read_chrome_trace(std::istream& is);

/// File convenience wrapper; throws std::runtime_error when unwritable.
void save_chrome_trace(const std::string& path, const std::vector<TraceEvent>& events);

}  // namespace wrsn::obs

#define WRSN_OBS_CONCAT_INNER(a, b) a##b
#define WRSN_OBS_CONCAT(a, b) WRSN_OBS_CONCAT_INNER(a, b)
/// Times the enclosing scope under `name` (a string literal).
#define WRSN_TRACE_SPAN(name) \
  ::wrsn::obs::TraceSpan WRSN_OBS_CONCAT(wrsn_trace_span_, __LINE__)(name)
