// Concurrency hammer for the obs layer: many ThreadPool workers pounding one
// metrics Registry and one StreamProgressSink at once.  The assertions are
// exact-total and ordering invariants; the real payoff is running this under
// TSan (scripts/sanitize_check.sh thread), where any missing lock in the
// registry, the sink, or the series turns into a hard failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/series.hpp"
#include "util/thread_pool.hpp"

namespace wrsn {
namespace {

TEST(ObsConcurrency, RegistryTotalsAreExactUnderContention) {
  obs::Registry registry;
  // Pre-register so workers contend on the metric objects, not registration.
  auto& shared = registry.counter("hammer/shared");
  auto& gauge = registry.gauge("hammer/level");
  auto& histogram = registry.histogram("hammer/values");

  util::ThreadPool pool(8);
  constexpr std::int64_t kItems = 20000;
  pool.parallel_for(kItems, [&](std::int64_t begin, std::int64_t end, int worker) {
    auto& mine = registry.counter("hammer/worker" + std::to_string(worker));
    for (std::int64_t i = begin; i < end; ++i) {
      shared.increment();
      mine.increment();
      gauge.set(static_cast<double>(worker));
      histogram.record(1.0);
    }
  });

  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const auto* total = snapshot.find("hammer/shared");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->counter, static_cast<std::uint64_t>(kItems));

  std::uint64_t per_worker_sum = 0;
  for (const auto& entry : snapshot.entries) {
    if (entry.name.rfind("hammer/worker", 0) == 0) per_worker_sum += entry.counter;
  }
  EXPECT_EQ(per_worker_sum, static_cast<std::uint64_t>(kItems));

  const auto* values = snapshot.find("hammer/values");
  ASSERT_NE(values, nullptr);
  EXPECT_EQ(values->histogram.count, static_cast<std::uint64_t>(kItems));
  EXPECT_DOUBLE_EQ(values->histogram.sum, static_cast<double>(kItems));
}

TEST(ObsConcurrency, StreamSinkLinesStayAtomicAndOrdered) {
  std::ostringstream os;
  obs::StreamProgressSink sink(&os, 0.0);  // unthrottled: maximum contention

  util::ThreadPool pool(8);
  constexpr std::int64_t kEvents = 4000;
  pool.parallel_for(kEvents, [&](std::int64_t begin, std::int64_t end, int worker) {
    std::string source = "w";
    source += std::to_string(worker);
    for (std::int64_t i = begin; i < end; ++i) {
      obs::ProgressEvent event(source);
      event.add("i", static_cast<double>(i));
      sink.emit(event);
    }
  });

  EXPECT_EQ(sink.emitted(), static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(sink.dropped(), 0u);

  // Every line must be a complete JSON object (no interleaved writes), and
  // within each source the seq numbers must be exactly 0,1,2,...
  std::istringstream lines(os.str());
  std::string line;
  std::int64_t total = 0;
  std::vector<std::int64_t> next_seq(64, 0);
  while (std::getline(lines, line)) {
    const io::Json parsed = io::Json::parse(line);
    EXPECT_EQ(parsed.at("stream").as_string(), "wrsn-progress");
    const std::string& source = parsed.at("source").as_string();
    ASSERT_EQ(source[0], 'w');
    const auto worker = static_cast<std::size_t>(std::stoi(source.substr(1)));
    ASSERT_LT(worker, next_seq.size());
    EXPECT_EQ(parsed.at("seq").as_int64(), next_seq[worker])
        << "seq gap or reorder within source " << source;
    ++next_seq[worker];
    ++total;
  }
  EXPECT_EQ(total, kEvents);
}

TEST(ObsConcurrency, AttachedSeriesSamplesWhileWorkersEmit) {
  obs::Registry registry;
  auto& counter = registry.counter("series/work");
  obs::MetricsSeries series(registry, 0.0);
  obs::StreamProgressSink sink(nullptr, 0.0);  // series-only configuration
  sink.attach_series(&series);

  util::ThreadPool pool(4);
  constexpr std::int64_t kItems = 2000;
  pool.parallel_for(kItems, [&](std::int64_t begin, std::int64_t end, int) {
    for (std::int64_t i = begin; i < end; ++i) {
      counter.increment();
      obs::ProgressEvent event("w");
      event.add("i", static_cast<double>(i));
      sink.emit(event);
    }
  });
  series.sample_now(1.0);

  // Interval deltas must add back up to the exact total, however the
  // samples raced the increments.
  std::uint64_t recovered = 0;
  for (const auto& sample : series.data().samples) {
    for (const auto& entry : sample.entries) {
      if (entry.name == "series/work") recovered += entry.counter_delta;
    }
  }
  EXPECT_EQ(recovered, static_cast<std::uint64_t>(kItems));
}

}  // namespace
}  // namespace wrsn
