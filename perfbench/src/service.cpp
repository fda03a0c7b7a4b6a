// service: the interactive planner.  An in-process svc::Server on a unix
// socket with a fixed worker count gets open-loop traffic on evenly spaced
// schedules from one client connection per load thread.  Every request is
// timed from when it was due, so a stall shows in the requests queued
// behind it.
//
// Each connection is one planner working on its own site (a paper-scale
// scenario).  The mix is mostly warm `evaluate` (the connection walks
// single-post node moves away from its site's RFH deployment, with
// occasional multi-post jumps that force a pricer rebuild), some warm `plan`
// (cache hits) and a few cold `plan` (scenarios the cache no longer holds:
// misses that write new sessions).  Load runs at two fixed rates, then an
// up-down staircase of evaluates finds max_rps: the rate at which the
// evaluate tail stays under kTailLimitMs and the backlog does not grow.
//
// No record of real traffic exists to take the mix from, so it is assumed
// (the constants below say why each is what it is), and every run checks
// the mix its replies show against the claim: mostly evaluates, mostly
// priced incrementally; more warm plans than cold ones; some cold ones.
//
// Correctness: every reply must be ok; every evaluate cost must match a
// fresh DeploymentPricer within 1e-9 relative; warm and cold plan costs
// must match a local run_plan of the same scenario.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common.hpp"
#include "core/pricer.hpp"
#include "obs/trace.hpp"
#include "svc/client.hpp"
#include "svc/frame.hpp"
#include "svc/planner.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/session_cache.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using wrsn::io::Json;
namespace svc = wrsn::svc;
namespace core = wrsn::core;

constexpr int kMaxConnections = 4;  // load threads and sites, capped by nproc
constexpr int kSiteCorpus = 4;      // sites the connections are given
constexpr int kWorkers = 2;         // server worker threads
constexpr double kShedMs = 500.0;   // later than this, a request is dropped
// Tails are taken per window of due times, and every window holds the whole
// mix: its evaluates, its warm plans and one cold plan.
constexpr double kWindowSeconds = 0.5;
// The assumed mix.  "Occasional" jumps: one evaluate in 50, each as far as
// eight moves.  Warm plans: 30/s keep the 2 workers ~10% busy with ~7 ms
// plans, enough for evaluates to queue behind them.  Cold plans: one per
// window, the fewest for which every window's tail sees one.
constexpr double kJumpShare = 0.02;
constexpr int kJumpMoves = 8;
constexpr double kWarmPlanRate = 30.0;
constexpr double kColdPlanRate = 1.0 / kWindowSeconds;
// Cold scenarios recur every kColdCorpus cold plans (8 s), long after the
// server's 8-session cache, 4 of them the sites, has evicted them (4 cold
// plans, 2 s): each stays a miss.
constexpr int kColdCorpus = 16;
// The evaluate tail limit for max_rps.  Below the rate at which the
// connections saturate, the windowed tail stays low (a few ms on a 4-core
// host, with stray stalls of the shared machine to ~40 ms); at saturation
// it grows without bound.  The limit sits above the stalls, so that it is
// crossed where the tail grows steeply and the crossing's rate moves
// little with the tail's noise.
constexpr double kTailLimitMs = 50.0;
// Rates, set against the ~14500/s max_rps of a 4-core host: the fixed
// rates are ~7% (unloaded) and ~20% (queueing) of it, and the staircase
// starts at ~60% of it and climbs 15% a step, so that it reaches the limit
// in a third of its steps.
constexpr double kRateLow = 1000.0;
constexpr double kRateHigh = 3000.0;
constexpr double kSearchStart = 9000.0;
constexpr double kSearchGrowth = 1.15;  // staircase step while the rate runs one way
constexpr double kStairFactor = 1.05;   // and right after it turns
constexpr double kStepSeconds = 1.0;    // one step of the staircase
constexpr double kWarmupSeconds = 1.0;  // unrecorded traffic before timing
constexpr int kTracedPasses = 2;           // traced passes, between untraced ones
// The generator stalled (not the server) when a due request on an idle
// connection went out this late.
constexpr double kStallP50Ms = 2.0;
constexpr double kStallMaxMs = 250.0;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

enum class Kind : std::uint8_t { kEvaluate, kPlanWarm, kPlanCold };

struct Scheduled {
  double due_s = 0.0;
  Kind kind = Kind::kEvaluate;
  int site = 0;                ///< the connection that sends it, and its site
  std::int64_t cold_seed = 0;  ///< scenario seed of a cold plan
};

/// What happened to one scheduled request (times relative to phase start).
struct Sent {
  bool sent = false;   ///< false: shed because the backlog was too deep
  bool ok = false;
  bool idle = false;   ///< the connection was free before the request was due
  double send_s = 0.0;
  double done_s = 0.0;
  std::string error;
  double cost = kNaN;
  std::int64_t incremental = 0;
  std::int64_t rebuilt = 0;
  bool cache_hit = false;
  // Kept for the traced replay only, as text: a 200-post deployment is
  // ~1 KB of JSON text but ~30 KB as an io::Json tree.
  std::string params_text;
  std::string reply_text;
};

/// A paper-scale scenario on the fields of `seed`.
svc::Scenario scenario_of(const Options& options, std::int64_t seed) {
  svc::Scenario scenario;
  scenario.posts = options.smoke ? 30 : 200;
  scenario.nodes = options.smoke ? 90 : 600;
  scenario.side = options.smoke ? 200.0 : 500.0;
  scenario.seed = seed;
  return scenario;
}

int connection_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::max(1, std::min<int>(kMaxConnections, n == 0 ? 1 : static_cast<int>(n)));
}

/// Connection c's site: corpus entry (seed + c) mod kSiteCorpus.
std::vector<svc::Scenario> site_scenarios(const Options& options) {
  std::vector<svc::Scenario> sites;
  for (const int entry : corpus_window(options, kSiteCorpus, connection_count())) {
    sites.push_back(
        scenario_of(options, static_cast<std::int64_t>(corpus_seed("service", entry))));
  }
  return sites;
}

/// A connection's evaluate walk: single-post moves from the RFH deployment,
/// sometimes a jump of several moves away from it.
class Walk {
 public:
  Walk(std::vector<int> base, std::uint64_t seed)
      : base_(std::move(base)), current_(base_), rng_(seed) {}

  const std::vector<int>& next() {
    if (rng_.uniform() < kJumpShare) {
      current_ = base_;
      for (int i = 0; i < kJumpMoves; ++i) move();
    } else {
      move();
    }
    return current_;
  }

 private:
  void move() {
    const int n = static_cast<int>(current_.size());
    int from = rng_.uniform_int(0, n - 1);
    while (current_[static_cast<std::size_t>(from)] < 2) from = rng_.uniform_int(0, n - 1);
    int to = rng_.uniform_int(0, n - 2);
    if (to >= from) ++to;
    --current_[static_cast<std::size_t>(from)];
    ++current_[static_cast<std::size_t>(to)];
  }

  std::vector<int> base_;
  std::vector<int> current_;
  wrsn::util::Rng rng_;
};

std::uint64_t walk_seed(const Options& options, int connection) {
  return wrsn::util::derive_seed(options.seed, 100 + static_cast<std::uint64_t>(connection));
}

Json deployment_json(const std::vector<int>& deployment) {
  Json list = Json::array();
  for (int m : deployment) list.push_back(Json(m));
  Json deployments = Json::array();
  deployments.push_back(std::move(list));
  return deployments;
}

/// The server, its connections, and each connection's site and walk.
class Service {
 public:
  explicit Service(const Options& options) : options_(options), sites_(site_scenarios(options)) {
    std::filesystem::create_directories(options.out_dir);
    socket_path_ = options.out_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
  }
  ~Service() { stop(); }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Server start, connections, cache prewarm; returns the seconds it took.
  double start() {
    stop();
    const Clock::time_point t0 = Clock::now();
    svc::ServerOptions server_options;
    server_options.unix_path = socket_path_;
    server_options.workers = kWorkers;
    server_ = std::make_unique<svc::Server>(server_options);
    server_->start();
    clients_.clear();
    bases_.clear();
    walks_.clear();
    for (int c = 0; c < connection_count(); ++c) {
      clients_.push_back(svc::Client::connect_unix(socket_path_));
      // Each site's plan warms its session; an evaluate of the planned
      // deployment gives the session its warm pricer, where the walk starts.
      Json params = plan_params(site(c));
      params.set("solution", Json(true));
      params.set("report", Json(false));
      const Json reply = clients_.back().call("plan", std::move(params));
      if (!reply.at("ok").as_bool()) {
        throw std::runtime_error("prewarm plan failed: " + reply.dump());
      }
      std::vector<int> base;
      for (const Json& m : reply.at("result").at("solution").at("deployment").as_array()) {
        base.push_back(m.as_int());
      }
      Json eval = Json::object();
      eval.set("scenario", site(c).to_canonical_json());
      eval.set("deployments", deployment_json(base));
      if (!clients_.back().call("evaluate", std::move(eval)).at("ok").as_bool()) {
        throw std::runtime_error("prewarm evaluate failed");
      }
      walks_.emplace_back(base, walk_seed(options_, c));
      bases_.push_back(std::move(base));
    }
    walk_costs_.assign(clients_.size(), {});
    return seconds_between(t0, Clock::now());
  }

  void stop() {
    clients_.clear();
    if (server_) {
      server_->stop();
      server_.reset();
    }
  }

  Json plan_params(const svc::Scenario& scenario) const {
    Json params = Json::object();
    params.set("scenario", scenario.to_canonical_json());
    params.set("solver", Json("rfh"));
    return params;
  }

  /// Sends connection `c`'s share of the schedule, each request at its due
  /// time or, when the connection is still busy, as soon as it is free.
  void send_share(int c, const std::vector<std::size_t>& share,
                  const std::vector<Scheduled>& schedule, Clock::time_point start, bool record,
                  std::vector<Sent>& sent) {
    svc::Client& client = clients_[static_cast<std::size_t>(c)];
    const Json site_json = site(c).to_canonical_json();
    for (const std::size_t k : share) {
      const Scheduled& request = schedule[k];
      Sent& out = sent[k];
      Json params;
      std::string method = "plan";
      if (request.kind == Kind::kEvaluate) {
        method = "evaluate";
        params = Json::object();
        params.set("scenario", site_json);
        params.set("deployments", deployment_json(walks_[static_cast<std::size_t>(c)].next()));
      } else {
        params = plan_params(request.kind == Kind::kPlanWarm
                                 ? site(c)
                                 : scenario_of(options_, request.cold_seed));
      }
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(request.due_s));
      out.idle = Clock::now() < due;
      if (!out.idle && seconds_between(due, Clock::now()) * 1e3 > kShedMs) {
        if (request.kind == Kind::kEvaluate) {
          walk_costs_[static_cast<std::size_t>(c)].push_back(kNaN);
        }
        continue;
      }
      if (record) out.params_text = params.dump();
      if (out.idle) std::this_thread::sleep_until(due);
      const Clock::time_point send = Clock::now();
      const Json reply = client.call(method, std::move(params));
      const Clock::time_point done = Clock::now();
      out.sent = true;
      out.send_s = seconds_between(start, send);
      out.done_s = seconds_between(start, done);
      read_reply(request.kind, reply, out);
      if (request.kind == Kind::kEvaluate) {
        walk_costs_[static_cast<std::size_t>(c)].push_back(out.ok ? out.cost : kNaN);
      }
      if (record) out.reply_text = reply.dump();
    }
  }

  /// Runs `schedule` open-loop, each connection sending its share in order.
  std::vector<Sent> run(const std::vector<Scheduled>& schedule, bool record) {
    std::vector<Sent> sent(schedule.size());
    const int connections = static_cast<int>(clients_.size());
    std::vector<std::vector<std::size_t>> assigned(clients_.size());
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      assigned[static_cast<std::size_t>(schedule[k].site)].push_back(k);
    }
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        try {
          send_share(c, assigned[static_cast<std::size_t>(c)], schedule, start, record, sent);
        } catch (const std::exception& e) {
          // The connection broke: its remaining requests stay unsent and the
          // one in flight counts as failed.
          std::fprintf(stderr, "perfbench: connection %d: %s\n", c, e.what());
          for (const std::size_t k : assigned[static_cast<std::size_t>(c)]) {
            if (sent[k].sent || !sent[k].error.empty()) continue;
            sent[k].sent = true;
            sent[k].error = "client-error";
            break;
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    return sent;
  }

  const svc::Scenario& site(int c) const { return sites_.at(static_cast<std::size_t>(c)); }
  const std::vector<std::vector<int>>& bases() const noexcept { return bases_; }
  /// Evaluate costs per connection in walk order (NaN: shed or failed).
  const std::vector<std::vector<double>>& walk_costs() const noexcept { return walk_costs_; }

 private:
  static void read_reply(Kind kind, const Json& reply, Sent& out) {
    const Json* ok = reply.find("ok");
    out.ok = ok != nullptr && ok->is_bool() && ok->as_bool();
    if (!out.ok) {
      const Json* error = reply.find("error");
      const Json* code = error != nullptr ? error->find("code") : nullptr;
      out.error = code != nullptr && code->is_string() ? code->as_string() : "malformed-reply";
      return;
    }
    const Json& result = reply.at("result");
    out.cache_hit = result.at("cache").as_string() == "hit";
    if (kind == Kind::kEvaluate) {
      const Json& cost = result.at("costs").as_array().front();
      out.cost = cost.is_number() ? cost.as_double() : kNaN;
      out.incremental = result.at("incremental").as_int64();
      out.rebuilt = result.at("rebuilt").as_int64();
    } else {
      out.cost = result.at("cost_j_per_bit").as_double();
    }
  }

  Options options_;
  std::vector<svc::Scenario> sites_;
  std::string socket_path_;
  std::unique_ptr<svc::Server> server_;
  std::vector<svc::Client> clients_;
  std::vector<std::vector<int>> bases_;
  std::vector<Walk> walks_;
  std::vector<std::vector<double>> walk_costs_;
};

/// Evenly spaced evaluates at `rate` merged, with `plans`, with evenly
/// spaced warm and cold plans at their own fixed rates, for `seconds`.
/// Request k goes out on connection k mod C: an evaluate due while its
/// connection waits for a plan queues behind that plan, so a faster plan
/// path shows in the evaluate tail.
std::vector<Scheduled> make_schedule(const Options& options, double rate, double seconds,
                                     bool plans, std::int64_t& cold_index) {
  std::vector<Scheduled> schedule;
  const auto stream = [&](Kind kind, double stream_rate, double offset) {
    for (double t = offset / stream_rate; t < seconds; t += 1.0 / stream_rate) {
      schedule.push_back({t, kind, 0, 0});
    }
  };
  stream(Kind::kEvaluate, rate, 0.0);
  if (plans) {
    stream(Kind::kPlanWarm, kWarmPlanRate, 0.5);
    // Warm plans are due at (n + 1/2)/30 s; a cold plan midway between two
    // of them, so that no two plans start together and hold both workers.
    stream(Kind::kPlanCold, kColdPlanRate, kColdPlanRate * 8.0 / kWarmPlanRate);
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Scheduled& a, const Scheduled& b) { return a.due_s < b.due_s; });
  const auto connections = static_cast<std::size_t>(connection_count());
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    Scheduled& request = schedule[k];
    request.site = static_cast<int>(k % connections);
    if (request.kind != Kind::kPlanCold) continue;
    // Cold plan i is corpus entry (seed + i) mod kColdCorpus, after the
    // sites' entries: every run plans nearly the same cold scenarios.
    const auto entry = static_cast<int>((options.seed + static_cast<std::uint64_t>(cold_index++)) %
                                        kColdCorpus);
    request.cold_seed = static_cast<std::int64_t>(corpus_seed("service", kSiteCorpus + entry));
  }
  return schedule;
}

/// The tail of each window (the ten-samples-beyond rule within it), then
/// the median across windows.  Every window holds the whole mix, a cold
/// plan included, so a slower path of any request kind moves every
/// window's tail; a single stall of the shared machine moves one.
double windowed_tail(const std::vector<std::vector<double>>& windows) {
  std::vector<double> tails;
  for (const auto& window : windows) {
    if (window.size() >= 11) tails.push_back(summarize(window).tail);
  }
  return tails.empty() ? 0.0 : median(tails);
}

/// The mix as the ok replies show it.
struct Mix {
  std::int64_t evaluates = 0;
  std::int64_t plan_hits = 0;    ///< plans the cache already held
  std::int64_t plan_misses = 0;  ///< plans that built a new session
  std::int64_t incremental = 0;  ///< evaluates priced incrementally
  std::int64_t rebuilt = 0;

  void add(const Mix& other) {
    evaluates += other.evaluates;
    plan_hits += other.plan_hits;
    plan_misses += other.plan_misses;
    incremental += other.incremental;
    rebuilt += other.rebuilt;
  }
  double share(std::int64_t part) const {
    const std::int64_t all = evaluates + plan_hits + plan_misses;
    return all > 0 ? static_cast<double>(part) / static_cast<double>(all) : 0.0;
  }
  double incremental_share() const {
    const std::int64_t priced = incremental + rebuilt;
    return priced > 0 ? static_cast<double>(incremental) / static_cast<double>(priced) : 0.0;
  }
  /// Mostly evaluates, mostly priced incrementally; some warm plans; a few
  /// cold ones.
  bool as_claimed() const {
    return share(evaluates) > 0.5 && incremental_share() > 0.5 && plan_hits > plan_misses &&
           plan_misses > 0;
  }
  Json to_json() const {
    Json out = Json::object();
    out.set("evaluate_share", Json(share(evaluates)));
    out.set("plan_hit_share", Json(share(plan_hits)));
    out.set("plan_miss_share", Json(share(plan_misses)));
    out.set("evaluate_incremental_share", Json(incremental_share()));
    out.set("as_claimed", Json(as_claimed()));
    return out;
  }
};

/// Latencies and health of one phase.
struct PhaseStats {
  double rate = 0.0;
  std::vector<double> evaluate_ms;  ///< from due to reply
  std::vector<double> warm_ms;
  std::vector<double> cold_ms;
  std::vector<double> lag_ms;       ///< generator lateness on idle connections
  std::vector<double> late_end_ms;  ///< send lateness in the phase's last window
  /// Evaluate latencies per kWindowSeconds window of due times.
  std::vector<std::vector<double>> evaluate_windows;
  std::int64_t sent = 0;
  std::int64_t shed = 0;
  std::int64_t failed = 0;
  Mix mix;
  double seconds = 0.0;
  double call_s = 0.0;  ///< sum of send-to-reply times of ok requests
  std::vector<std::pair<Scheduled, double>> plans;  ///< plan replies to verify

  bool stalled() const {
    if (lag_ms.empty()) return false;
    const Summary lag = summarize(lag_ms);
    return lag.p50 > kStallP50Ms ||
           *std::max_element(lag_ms.begin(), lag_ms.end()) > kStallMaxMs;
  }
  /// The limit holds: no failures, no shed requests, the windowed evaluate
  /// tail under the limit, and the backlog in the last window (the median
  /// lateness at send) under it too.
  bool meets_limit() const {
    if (failed > 0 || shed > 0 || evaluate_ms.empty()) return false;
    if (windowed_tail(evaluate_windows) >= kTailLimitMs) return false;
    return late_end_ms.empty() || median(late_end_ms) < kTailLimitMs;
  }
};

PhaseStats phase_stats(double rate, double seconds, const std::vector<Scheduled>& schedule,
                       const std::vector<Sent>& sent, Result& result,
                       std::map<std::string, std::int64_t>& errors) {
  PhaseStats stats;
  stats.rate = rate;
  stats.seconds = seconds;
  // Only whole windows hold the whole mix; a phase shorter than one window
  // (smoke runs) is a single window.
  const auto windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / kWindowSeconds + 1e-9));
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const Sent& out = sent[k];
    if (!out.sent) {
      ++stats.shed;
      continue;
    }
    ++stats.sent;
    result.attempt();
    if (!out.ok) {
      ++stats.failed;
      ++errors[out.error];
      result.fail("reply_" + out.error);
      continue;
    }
    const double latency_ms = 1e3 * (out.done_s - schedule[k].due_s);
    stats.call_s += out.done_s - out.send_s;
    if (schedule[k].kind != Kind::kEvaluate) stats.plans.emplace_back(schedule[k], out.cost);
    const auto window = static_cast<std::size_t>(schedule[k].due_s / kWindowSeconds);
    if (schedule[k].kind == Kind::kEvaluate) {
      ++stats.mix.evaluates;
      stats.mix.incremental += out.incremental;
      stats.mix.rebuilt += out.rebuilt;
    } else {
      ++(out.cache_hit ? stats.mix.plan_hits : stats.mix.plan_misses);
    }
    switch (schedule[k].kind) {
      case Kind::kEvaluate:
        stats.evaluate_ms.push_back(latency_ms);
        if (window >= windows) break;  // in the partial window at the end
        if (stats.evaluate_windows.size() <= window) stats.evaluate_windows.resize(window + 1);
        stats.evaluate_windows[window].push_back(latency_ms);
        break;
      case Kind::kPlanWarm: stats.warm_ms.push_back(latency_ms); break;
      case Kind::kPlanCold: stats.cold_ms.push_back(latency_ms); break;
    }
    if (out.idle) stats.lag_ms.push_back(1e3 * (out.send_s - schedule[k].due_s));
    if (schedule[k].due_s >= seconds - kWindowSeconds) {
      stats.late_end_ms.push_back(1e3 * (out.send_s - schedule[k].due_s));
    }
  }
  return stats;
}

Json phase_json(const PhaseStats& stats) {
  Json out = Json::object();
  out.set("rate", Json(stats.rate));
  out.set("sent", Json(stats.sent));
  out.set("shed", Json(stats.shed));
  out.set("failed", Json(stats.failed));
  out.set("call_s", Json(stats.call_s));
  out.set("evaluate_ms", summary_json(summarize(stats.evaluate_ms)));
  out.set("evaluate_windowed_tail_ms", Json(windowed_tail(stats.evaluate_windows)));
  out.set("plan_warm_ms", summary_json(summarize(stats.warm_ms)));
  out.set("plan_cold_ms", summary_json(summarize(stats.cold_ms)));
  out.set("gen_lag_ms", summary_json(summarize(stats.lag_ms)));
  out.set("mix", stats.mix.to_json());
  out.set("meets_limit", Json(stats.meets_limit()));
  return out;
}

/// Runs one phase; a phase in which the generator stalled is run again,
/// and after three stalls the whole run is invalid.
std::optional<PhaseStats> run_phase(Service& service, const Options& options, double rate,
                                    double seconds, bool plans, std::int64_t& cold_index,
                                    Result& result,
                                    std::map<std::string, std::int64_t>& errors,
                                    std::vector<double>& lags, bool record = false,
                                    std::vector<Scheduled>* schedule_out = nullptr,
                                    std::vector<Sent>* sent_out = nullptr) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    const std::vector<Scheduled> schedule = make_schedule(options, rate, seconds, plans, cold_index);
    std::vector<Sent> sent = service.run(schedule, record);
    PhaseStats stats = phase_stats(rate, seconds, schedule, sent, result, errors);
    lags.insert(lags.end(), stats.lag_ms.begin(), stats.lag_ms.end());
    if (!stats.stalled()) {
      if (schedule_out != nullptr) *schedule_out = schedule;
      if (sent_out != nullptr) *sent_out = std::move(sent);
      return stats;
    }
    std::fprintf(stderr, "perfbench: load generator stalled at %.0f rps; repeating the step\n",
                 rate);
  }
  result.invalid("the load generator stalled three times at " + std::to_string(rate) + " rps");
  return std::nullopt;
}

/// Fresh-pricer check of every evaluate cost, replaying each connection's
/// walk on its site.
void verify_evaluates(const Options& options, const Service& service,
                      const std::vector<std::vector<double>>& costs, Result& result) {
  std::vector<std::int64_t> wrong(costs.size(), 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < costs.size(); ++c) {
    threads.emplace_back([&, c] {
      const core::Instance instance = svc::build_instance(service.site(static_cast<int>(c)));
      Walk walk(service.bases()[c], walk_seed(options, static_cast<int>(c)));
      for (double cost : costs[c]) {
        const std::vector<int>& deployment = walk.next();
        if (std::isnan(cost)) continue;  // shed or failed: counted already
        const core::DeploymentPricer fresh(instance, deployment);
        if (!same_cost(fresh.base_cost(), cost)) ++wrong[c];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::int64_t n : wrong) {
    if (n > 0) result.fail("evaluate_cost_mismatch", n);
  }
}

/// Checks plan replies against a local run_plan of the same scenario.
void verify_plans(const Options& options, const std::vector<std::pair<Scheduled, double>>& plans,
                  const Service& service, Result& result) {
  svc::PlanOptions plan;
  plan.solver = "rfh";
  const auto plan_cost = [&](const svc::Scenario& scenario) {
    return svc::run_plan(svc::build_instance(scenario), plan, nullptr, nullptr).cost_j_per_bit;
  };
  std::map<int, double> site_costs;
  for (const auto& [request, cost] : plans) {
    double expected = 0.0;
    if (request.kind == Kind::kPlanCold) {
      expected = plan_cost(scenario_of(options, request.cold_seed));
    } else {
      const auto it = site_costs.find(request.site);
      expected = it != site_costs.end()
                     ? it->second
                     : site_costs[request.site] = plan_cost(service.site(request.site));
    }
    if (!same_cost(expected, cost)) result.fail("plan_cost_mismatch");
  }
}

/// Marks the run invalid when its replies show another mix than claimed.
void check_mix(const Options& options, const Mix& mix, Result& result) {
  result.detail("mix", mix.to_json());
  if (!options.smoke && !mix.as_claimed()) {
    result.invalid("the replies show another mix than claimed: " + mix.to_json().dump());
  }
}

/// Times one block and records it as a span named `name`.
template <typename F>
double timed(const char* name, F&& body) {
  const Clock::time_point t0 = Clock::now();
  {
    wrsn::obs::TraceSpan span(name);
    body();
  }
  return seconds_between(t0, Clock::now());
}

/// Stage replays of one recorded request, in seconds per layer.
struct StageTimes {
  double dump = 0.0;
  double parse = 0.0;
  double frame = 0.0;
  double request_parse = 0.0;
  double acquire = 0.0;
  double pricer = 0.0;
  bool rebuild = false;
  double run_plan = 0.0;
  double report = 0.0;
  double total() const {
    return dump + parse + frame + request_parse + acquire + pricer + run_plan + report;
  }
};

/// Replays the codec stages for one envelope: dump, parse, and the frame
/// encode/decode around them (the frame's own time excludes the JSON work).
void replay_codec(const Json& envelope, StageTimes& stages) {
  std::string text;
  const double dump = timed("io.json_dump", [&] { text = envelope.dump(); });
  const double parse = timed("io.json_parse", [&] { (void)Json::parse(text); });
  const double framed = timed("svc.frame", [&] {
    const std::string bytes = svc::encode_frame(envelope);
    svc::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    Json decoded;
    std::string error;
    (void)reader.next(&decoded, &error);
  });
  // encode_frame dumps and FrameReader parses: keep only the framing.
  stages.dump += dump;
  stages.parse += parse;
  stages.frame += std::max(0.0, framed - dump - parse);
}

/// Replays every stage of the recorded requests outside the traffic, so
/// the replay cannot slow the requests it explains.
struct Replay {
  Ledger ledger;
  std::map<std::string, std::vector<double>> samples;  ///< per-request seconds
  std::int64_t incremental = 0;
  std::int64_t rebuilt = 0;
  std::int64_t hits = 0;
  std::int64_t lookups = 0;
};

void replay_request(const Scheduled& scheduled, const Sent& out, std::int64_t id,
                    svc::SessionCache& cache,
                    std::map<int, std::unique_ptr<core::DeploymentPricer>>& pricers,
                    Replay& replay) {
  const Kind kind = scheduled.kind;
  const Json params = Json::parse(out.params_text);
  const Json reply = Json::parse(out.reply_text);
  StageTimes stages;
  Json envelope = Json::object();
  envelope.set("rpc", Json(svc::kRpcName));
  envelope.set("v", Json(static_cast<std::int64_t>(svc::kRpcVersion)));
  envelope.set("id", Json(id));
  envelope.set("method", Json(kind == Kind::kEvaluate ? "evaluate" : "plan"));
  envelope.set("params", params);
  replay_codec(envelope, stages);

  svc::Request request;
  std::optional<svc::Scenario> scenario;
  stages.request_parse = timed("svc.request_parse", [&] {
    std::string error;
    svc::parse_request(envelope, &request, &error);
    scenario.emplace(svc::Scenario::from_json(request.params.at("scenario")));
    (void)scenario->fingerprint();
  });
  std::shared_ptr<svc::Session> session;
  stages.acquire = timed("svc.cache_acquire", [&] { session = cache.acquire(*scenario); });
  ++replay.lookups;
  replay.hits += out.cache_hit ? 1 : 0;

  if (kind == Kind::kEvaluate) {
    std::vector<int> deployment;
    for (const Json& m : request.params.at("deployments").as_array().front().as_array()) {
      deployment.push_back(m.as_int());
    }
    replay.incremental += out.incremental;
    replay.rebuilt += out.rebuilt;
    // Replay what the server reported: a one-node move from this
    // connection's previous deployment, or a rebuild.
    auto& pricer = pricers[scheduled.site];
    bool stepped = false;
    if (out.incremental > 0 && pricer) {
      std::vector<int> changed;
      const std::vector<int>& committed = pricer->deployment();
      for (std::size_t p = 0; p < deployment.size(); ++p) {
        if (committed[p] != deployment[p]) changed.push_back(static_cast<int>(p));
      }
      if (changed.size() == 2) {
        const bool first_gives = committed[static_cast<std::size_t>(changed[0])] >
                                 deployment[static_cast<std::size_t>(changed[0])];
        const int from = first_gives ? changed[0] : changed[1];
        const int to = first_gives ? changed[1] : changed[0];
        stages.pricer = timed("pricer.update", [&] { pricer->move_node(from, to); });
        stepped = true;
      }
    }
    if (!stepped) {
      stages.pricer = timed("pricer.rebuild", [&] {
        pricer = std::make_unique<core::DeploymentPricer>(session->instance(), deployment);
      });
      stages.rebuild = true;
    }
  } else {
    svc::PlanOptions plan;
    plan.solver = "rfh";
    std::optional<svc::PlanOutcome> outcome;
    stages.run_plan = timed("svc.run_plan", [&] {
      outcome.emplace(svc::run_plan(session->instance(), plan, nullptr, nullptr));
    });
    stages.report = timed("svc.report", [&] {
      (void)svc::render_plan_report(session->instance(), *outcome, *scenario, plan.solver);
    });
  }
  replay_codec(reply, stages);

  const double call = out.done_s - out.send_s;
  const double rest = std::max(0.0, call - stages.total());
  const char* pricer_layer = stages.rebuild ? "pricer.rebuild" : "pricer.update";
  if (kind == Kind::kEvaluate) {
    auto& samples = replay.samples;
    samples["io.json_dump"].push_back(stages.dump);
    samples["io.json_parse"].push_back(stages.parse);
    samples["svc.frame"].push_back(stages.frame);
    samples["svc.request_parse"].push_back(stages.request_parse);
    samples["svc.cache_acquire"].push_back(stages.acquire);
    samples[pricer_layer].push_back(stages.pricer);
    samples["svc.residual"].push_back(rest);
  } else {
    if (kind == Kind::kPlanWarm) replay.samples["svc.run_plan"].push_back(stages.run_plan);
    replay.samples["svc.report"].push_back(stages.report);
  }
  Ledger& ledger = replay.ledger;
  ledger.add("io.json_dump", stages.dump);
  ledger.add("io.json_parse", stages.parse);
  ledger.add("svc.frame", stages.frame);
  ledger.add("svc.request_parse", stages.request_parse);
  ledger.add("svc.cache_acquire", stages.acquire);
  if (kind == Kind::kEvaluate) ledger.add(pricer_layer, stages.pricer);
  ledger.add("svc.run_plan", stages.run_plan);
  ledger.add("svc.report", stages.report);
  ledger.residual(rest);
  ledger.traced_e2e(call);
}

void traced_run(const Options& options, Service& service, std::int64_t& cold_index,
                Result& result) {
  std::map<std::string, std::int64_t> errors;
  std::vector<double> lags;
  // Untraced and traced passes of the same schedule alternate, untraced
  // first and last, so a drift in the machine's speed hits both sides
  // alike.  The traced passes keep every request and reply; their stages
  // are replayed afterwards, so the replay cannot slow the traffic it
  // explains.
  const double seconds = std::max(0.2, 0.12 * options.seconds);
  std::vector<PhaseStats> untraced;
  std::vector<PhaseStats> traced;
  std::vector<std::vector<Scheduled>> schedules(kTracedPasses);
  std::vector<std::vector<Sent>> sents(kTracedPasses);
  for (int pass = 0; pass <= kTracedPasses; ++pass) {
    auto plain =
        run_phase(service, options, kRateLow, seconds, true, cold_index, result, errors, lags);
    if (!plain) return;
    untraced.push_back(std::move(*plain));
    if (pass == kTracedPasses) break;
    auto recorded = run_phase(service, options, kRateLow, seconds, true, cold_index, result, errors,
                              lags, true, &schedules[pass], &sents[pass]);
    if (!recorded) return;
    verify_plans(options, recorded->plans, service, result);
    traced.push_back(std::move(*recorded));
  }
  const PhaseStats& reference = untraced.front();
  Mix mix;
  for (const PhaseStats& stats : untraced) mix.add(stats.mix);
  for (const PhaseStats& stats : traced) mix.add(stats.mix);
  check_mix(options, mix, result);

  start_tracing();
  svc::SessionCache cache(8);
  for (int c = 0; c < connection_count(); ++c) (void)cache.acquire(service.site(c));
  Replay replay;
  for (int pass = 0; pass < kTracedPasses; ++pass) {
    // Each pass starts the connections' walks where the previous left off;
    // the replay's per-connection pricers follow along.
    std::map<int, std::unique_ptr<core::DeploymentPricer>> pricers;
    const auto& schedule = schedules[static_cast<std::size_t>(pass)];
    const auto& sent = sents[static_cast<std::size_t>(pass)];
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      if (!sent[k].sent || !sent[k].ok) continue;
      replay_request(schedule[k], sent[k], static_cast<std::int64_t>(k + 1), cache, pricers,
                     replay);
    }
  }
  save_trace(options);
  double untraced_call_s = 0.0;
  for (const PhaseStats& plain : untraced) untraced_call_s += plain.call_s;
  replay.ledger.untraced_e2e(untraced_call_s * kTracedPasses /
                            static_cast<double>(untraced.size()));
  replay.ledger.write_table(options.out_dir + "/service.layers.txt", "service");
  replay.ledger.check(result, options);

  const auto us = [&](const char* name) { return 1e6 * mean(replay.samples[name]); };
  std::map<std::string, double> values;
  values["io.json_parse_us"] = us("io.json_parse");
  values["io.json_dump_us"] = us("io.json_dump");
  values["svc.frame_us"] = us("svc.frame");
  values["svc.request_parse_us"] = us("svc.request_parse");
  values["svc.cache_acquire_us"] = us("svc.cache_acquire");
  values["pricer.update_us"] = us("pricer.update");
  values["pricer.rebuild_us"] = us("pricer.rebuild");
  values["svc.run_plan_ms"] = 1e3 * mean(replay.samples["svc.run_plan"]);
  values["svc.report_us"] = us("svc.report");
  values["svc.residual_us"] = us("svc.residual");
  values["svc.cache_hit_ratio"] =
      replay.lookups > 0 ? static_cast<double>(replay.hits) / replay.lookups : 0.0;
  const std::int64_t evaluated = replay.incremental + replay.rebuilt;
  values["svc.incremental_ratio"] =
      evaluated > 0 ? static_cast<double>(replay.incremental) / evaluated : 0.0;
  values["svc.gen_lag_ms"] = summarize(lags).tail;
  const Summary evaluate = summarize(reference.evaluate_ms);
  const Summary warm = summarize(reference.warm_ms);
  const Summary cold = summarize(reference.cold_ms);
  values["evaluate_p50_ms"] = evaluate.p50;
  values["evaluate_tail_ms"] = evaluate.tail;  // plain, over the whole pass
  values["plan_warm_p50_ms"] = warm.p50;
  values["plan_warm_tail_ms"] = warm.tail;
  values["plan_cold_p50_ms"] = cold.p50;
  values["plan_cold_tail_ms"] = cold.tail;
  fill_per_layer(result, values);
  result.detail("reference_phase", phase_json(reference));
  result.detail("traced_phase", phase_json(traced.front()));
}

}  // namespace

int run_service(const Options& options, Result& result) {
  Service service(options);
  // Set-up: server start, connections and cache prewarm, several times.
  std::vector<double> setup_s;
  for (int i = 0; i < 3; ++i) setup_s.push_back(service.start());
  std::string digest = std::to_string(walk_seed(options, 1));
  for (int c = 0; c < connection_count(); ++c) digest += "-" + service.site(c).fingerprint_hex();
  result.detail("input_digest", Json(digest));
  result.detail("connections", Json(connection_count()));
  result.detail("workers", Json(kWorkers));
  result.detail("tail_limit_ms", Json(kTailLimitMs));

  std::int64_t cold_index = 0;
  // Unrecorded traffic first: connections, threads and warm pricers settle.
  {
    std::map<std::string, std::int64_t> errors;
    std::vector<double> lags;
    Result warmup;
    if (!run_phase(service, options, kRateLow, options.smoke ? 0.2 : kWarmupSeconds, true,
                   cold_index, warmup, errors, lags)) {
      result.invalid(warmup.invalid_reason());
      return 0;
    }
  }
  if (options.trace) {
    traced_run(options, service, cold_index, result);
    service.stop();
    if (result.invalid_reason().empty()) {
      verify_evaluates(options, service, service.walk_costs(), result);
    }
    return 0;
  }

  std::map<std::string, std::int64_t> errors;
  std::vector<double> lags;
  std::vector<std::pair<Scheduled, double>> plans;
  Json phases = Json::array();
  // Two fixed rates.  The end-to-end latencies come from the higher one:
  // there every window holds enough evaluates queued behind plans that its
  // tail is a steady quantile of that wait, not the luck of a few.
  Summary evaluate;
  double evaluate_tail = 0.0;
  Mix mix;
  for (const double rate : {kRateLow, kRateHigh}) {
    const double seconds = std::max(0.2, (rate == kRateLow ? 0.1 : 0.25) * options.seconds);
    const auto stats =
        run_phase(service, options, rate, seconds, true, cold_index, result, errors, lags);
    if (!stats) return 0;
    plans.insert(plans.end(), stats->plans.begin(), stats->plans.end());
    phases.push_back(phase_json(*stats));
    mix.add(stats->mix);
    evaluate = summarize(stats->evaluate_ms);
    evaluate_tail = windowed_tail(stats->evaluate_windows);
  }
  // Peak RSS after the fixed-rate phases, whose request count does not
  // depend on how fast the machine is (the search's does).
  const double rss = peak_rss_mb();

  // Up-down staircase of evaluates alone: a step that meets the limit
  // raises the rate, one that misses lowers it, so the rate settles where
  // the limit is met half the time.  Steps are coarse while the rate runs
  // one way and fine right after it turns, so a stray miss early on costs
  // little; max_rps is the geometric mean of the rates of the second half
  // of the steps, which averages out the luck of single steps near the
  // limit.  Plans stay out of the staircase: the backlog each leaves behind
  // moves the limit's crossing by more than the evaluate path's own speed
  // does, and the fixed-rate phases already measure it.  An unrecorded step
  // at the first rate goes before it: the first step at a high rate after
  // the fixed-rate phases often misses while the process adjusts.
  const double step_s = options.smoke ? 0.2 : kStepSeconds;
  const double budget_s = std::max(step_s, 0.5 * options.seconds);
  double rate = options.smoke ? kRateHigh : kSearchStart;
  {
    std::map<std::string, std::int64_t> warmup_errors;
    std::vector<double> warmup_lags;
    Result warmup;
    if (!run_phase(service, options, rate, options.smoke ? 0.2 : kWarmupSeconds, false,
                   cold_index, warmup, warmup_errors, warmup_lags)) {
      result.invalid(warmup.invalid_reason());
      return 0;
    }
  }
  std::vector<double> rates;
  bool missed = false;
  double highest_met = 0.0;
  std::optional<bool> last_met;
  Json steps = Json::array();
  const Clock::time_point search_start = Clock::now();
  while (seconds_between(search_start, Clock::now()) + step_s <= budget_s + 1e-9) {
    const auto stats =
        run_phase(service, options, rate, step_s, false, cold_index, result, errors, lags);
    if (!stats) return 0;
    steps.push_back(phase_json(*stats));
    rates.push_back(rate);
    const bool met = stats->meets_limit();
    if (met) highest_met = std::max(highest_met, rate);
    missed = missed || !met;
    const double factor = !last_met || *last_met == met ? kSearchGrowth : kStairFactor;
    last_met = met;
    rate = met ? rate * factor : rate / factor;
  }
  // With no miss the staircase never turned: the highest rate met is a
  // lower bound.
  double max_rps = highest_met;
  if (missed) {
    double log_sum = 0.0;
    const std::size_t from = rates.size() / 2;
    for (std::size_t i = from; i < rates.size(); ++i) log_sum += std::log(rates[i]);
    max_rps = std::exp(log_sum / static_cast<double>(rates.size() - from));
  }
  // The mix is checked on the fixed-rate phases: the staircase carries no
  // plans, and its overloaded steps shed requests, which breaks walks into
  // rebuilds.
  check_mix(options, mix, result);
  verify_evaluates(options, service, service.walk_costs(), result);
  verify_plans(options, plans, service, result);
  // Two more set-ups now that the run is over, so the median also covers
  // the machine's state at the end.
  for (int i = 0; i < 2; ++i) setup_s.push_back(service.start());
  service.stop();

  const Summary lag = summarize(lags);
  result.metric("setup_s", median(setup_s), "s");
  result.metric("throughput_per_s", max_rps, "1/s");
  result.metric("latency_p50_ms", evaluate.p50, "ms");
  result.metric("latency_tail_ms", evaluate_tail, "ms");
  result.metric("peak_rss_mb", rss, "MB");
  Json error_codes = Json::object();
  for (const auto& [code, count] : errors) error_codes.set(code, Json(count));
  result.detail("reply_errors", std::move(error_codes));
  result.detail("fixed_rate_phases", std::move(phases));
  result.detail("max_rps_steps", std::move(steps));
  result.detail("evaluate_latency_ms", summary_json(evaluate));
  result.detail("evaluate_windowed_tail_ms", Json(evaluate_tail));
  result.detail("gen_lag_ms", summary_json(lag));
  return 0;
}

}  // namespace perfbench
