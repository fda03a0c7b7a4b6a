// Load generator for wrsn_serve (docs/service.md): the measurement half of
// the CI service smoke job.
//
// Modes:
//   --once        one request, print the reply (the README quickstart)
//   --shutdown    ask the server to stop, then exit
//   default       closed-loop load: --clients threads, each sending
//                 back-to-back requests for --duration-s seconds
//   --rate=R      open-loop load: each client schedules R requests/sec and
//                 latency includes the backlog a slow server accumulates
//
// The cold/warm fingerprint mix is controlled by --scenarios=M (requests
// rotate over M distinct seeds: first pass per seed is a session-cache miss,
// the rest are hits) and --unique (every request a fresh seed = all cold).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.hpp"
#include "util/flags.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string unix_path;
  int tcp_port = -1;
  std::string method = "plan";
  int clients = 1;
  double duration_s = 5.0;
  double rate = 0.0;  // per client; 0 = closed loop
  int scenarios = 1;
  bool unique = false;
  int posts = 12;
  int nodes = 48;
  double side = 300.0;
  std::int64_t seed = 1;
  std::string solver = "rfh+ls";
  double deadline_s = 0.0;
  bool once = false;
  bool print_report = false;
  bool shutdown = false;
  bool json = false;
};

wrsn::svc::Client connect(const Options& options) {
  // The daemon may still be binding (README backgrounds it with `&`), so
  // retry for a few seconds before giving up.
  for (int attempt = 0;; ++attempt) {
    try {
      if (!options.unix_path.empty()) {
        return wrsn::svc::Client::connect_unix(options.unix_path);
      }
      return wrsn::svc::Client::connect_tcp(options.tcp_port);
    } catch (const std::exception&) {
      if (attempt >= 50) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
}

wrsn::io::Json scenario_json(const Options& options, std::int64_t seed) {
  wrsn::io::Json scenario = wrsn::io::Json::object();
  scenario.set("posts", wrsn::io::Json(options.posts));
  scenario.set("nodes", wrsn::io::Json(options.nodes));
  scenario.set("side", wrsn::io::Json(options.side));
  scenario.set("seed", wrsn::io::Json(seed));
  return scenario;
}

wrsn::io::Json request_params(const Options& options, std::int64_t seed, std::int64_t sequence) {
  wrsn::io::Json params = wrsn::io::Json::object();
  params.set("scenario", scenario_json(options, seed));
  if (options.method == "plan") {
    params.set("solver", wrsn::io::Json(options.solver));
    params.set("report", wrsn::io::Json(false));
  } else if (options.method == "evaluate") {
    // All-ones deployment with one bumped post: after the first full build,
    // consecutive requests price by single-post incremental repair.
    wrsn::io::Json deployment = wrsn::io::Json::array();
    const int bumped = static_cast<int>(sequence % options.posts);
    for (int p = 0; p < options.posts; ++p) {
      deployment.push_back(wrsn::io::Json(p == bumped ? 2 : 1));
    }
    wrsn::io::Json deployments = wrsn::io::Json::array();
    deployments.push_back(std::move(deployment));
    params.set("deployments", std::move(deployments));
  }
  return params;
}

struct WorkerResult {
  std::vector<double> latencies_ms;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
};

void run_worker(const Options& options, int worker_index, std::atomic<std::int64_t>& next_seed,
                WorkerResult& result) {
  wrsn::svc::Client client = connect(options);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.duration_s));
  std::int64_t sequence = 0;
  Clock::time_point next_send = start;
  while (Clock::now() < stop) {
    if (options.rate > 0.0) {
      std::this_thread::sleep_until(next_send);
      next_send += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / options.rate));
    }
    const std::int64_t seed =
        options.unique
            ? next_seed.fetch_add(1)
            : options.seed + (worker_index + sequence * options.clients) % options.scenarios;
    // Open loop charges latency from the scheduled send time, so queueing
    // a slow server builds up is part of the number; closed loop from now.
    const Clock::time_point charged_from =
        options.rate > 0.0 ? next_send - std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(1.0 / options.rate))
                           : Clock::now();
    try {
      const wrsn::io::Json reply = client.call(
          options.method, request_params(options, seed, sequence), options.deadline_s);
      ++result.requests;
      const wrsn::io::Json* ok = reply.find("ok");
      if (ok == nullptr || !ok->as_bool()) {
        ++result.errors;
      } else {
        result.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - charged_from).count());
      }
    } catch (const std::exception&) {
      ++result.requests;
      ++result.errors;
      break;  // connection is gone; this worker is done
    }
    ++sequence;
  }
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  wrsn::util::Flags flags;
  flags.add_string("unix-socket", &options.unix_path, "connect to this unix socket path")
      .add_int("tcp-port", &options.tcp_port, "connect to this loopback TCP port")
      .add_string("method", &options.method, "request method: plan | evaluate | ping")
      .add_int("clients", &options.clients, "concurrent client connections")
      .add_double("duration-s", &options.duration_s, "load duration per client")
      .add_double("rate", &options.rate, "open-loop requests/sec per client (0 = closed loop)")
      .add_int("scenarios", &options.scenarios, "distinct scenario seeds to rotate over")
      .add_bool("unique", &options.unique, "fresh seed per request (all cache misses)")
      .add_int("posts", &options.posts, "scenario posts")
      .add_int("nodes", &options.nodes, "scenario nodes")
      .add_double("side", &options.side, "scenario field side length [m]")
      .add_int64("seed", &options.seed, "base scenario seed")
      .add_string("solver", &options.solver, "solver spec for plan requests")
      .add_double("deadline-s", &options.deadline_s, "per-request deadline (0 = server default)")
      .add_bool("once", &options.once, "send one request, print the reply, exit")
      .add_bool("print-report", &options.print_report,
                "with --once: print only the plan report text (byte-diffable "
                "against plan_tool --report)")
      .add_bool("shutdown", &options.shutdown, "ask the server to stop, then exit")
      .add_bool("json", &options.json, "print the summary as one JSON object");
  if (!flags.parse(argc, argv)) return 2;

  if (options.unix_path.empty() && options.tcp_port < 0) {
    std::fprintf(stderr, "loadgen_tool: need --unix-socket or --tcp-port\n");
    return 2;
  }
  if (options.clients < 1 || options.scenarios < 1 || options.posts < 1 ||
      options.nodes < options.posts) {
    std::fprintf(stderr, "loadgen_tool: invalid --clients/--scenarios/--posts/--nodes\n");
    return 2;
  }

  try {
    if (options.shutdown) {
      wrsn::svc::Client client = connect(options);
      const wrsn::io::Json reply =
          client.call("shutdown", wrsn::io::Json::object(), options.deadline_s);
      std::printf("%s\n", reply.dump().c_str());
      return reply.find("ok") != nullptr && reply.find("ok")->as_bool() ? 0 : 1;
    }

    if (options.once) {
      wrsn::svc::Client client = connect(options);
      wrsn::io::Json params = request_params(options, options.seed, 0);
      if (options.print_report) params.set("report", wrsn::io::Json(true));
      const wrsn::io::Json reply = client.call(options.method, std::move(params),
                                               options.deadline_s);
      const wrsn::io::Json* ok = reply.find("ok");
      const bool success = ok != nullptr && ok->as_bool();
      const wrsn::io::Json* result = reply.find("result");
      if (options.print_report && success && result != nullptr &&
          result->find("report") != nullptr) {
        std::fputs(result->find("report")->as_string().c_str(), stdout);
      } else {
        std::printf("%s\n", reply.dump(2).c_str());
      }
      return success ? 0 : 1;
    }

    std::atomic<std::int64_t> next_seed{1000};
    std::vector<WorkerResult> results(static_cast<std::size_t>(options.clients));
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < options.clients; ++i) {
      threads.emplace_back(run_worker, std::cref(options), i, std::ref(next_seed),
                           std::ref(results[static_cast<std::size_t>(i)]));
    }
    for (std::thread& thread : threads) thread.join();
    const double wall_s = std::chrono::duration<double>(Clock::now() - start).count();

    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::vector<double> latencies;
    for (const WorkerResult& result : results) {
      requests += result.requests;
      errors += result.errors;
      latencies.insert(latencies.end(), result.latencies_ms.begin(),
                       result.latencies_ms.end());
    }
    std::sort(latencies.begin(), latencies.end());
    const double rps = wall_s > 0.0 ? static_cast<double>(requests - errors) / wall_s : 0.0;
    const double p50 = percentile(latencies, 0.50);
    const double p99 = percentile(latencies, 0.99);

    if (options.json) {
      wrsn::io::Json summary = wrsn::io::Json::object();
      summary.set("schema", wrsn::io::Json("wrsn-service-bench v1"));
      summary.set("method", wrsn::io::Json(options.method));
      summary.set("clients", wrsn::io::Json(options.clients));
      summary.set("requests", wrsn::io::Json(requests));
      summary.set("errors", wrsn::io::Json(errors));
      summary.set("wall_s", wrsn::io::Json(wall_s));
      summary.set("rps", wrsn::io::Json(rps));
      summary.set("p50_ms", wrsn::io::Json(p50));
      summary.set("p99_ms", wrsn::io::Json(p99));
      std::printf("%s\n", summary.dump().c_str());
    } else {
      std::printf("loadgen %s clients=%d requests=%llu errors=%llu rps=%.1f "
                  "p50_ms=%.3f p99_ms=%.3f\n",
                  options.method.c_str(), options.clients,
                  static_cast<unsigned long long>(requests),
                  static_cast<unsigned long long>(errors), rps, p50, p99);
    }
    return errors == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen_tool: %s\n", e.what());
    return 1;
  }
}
