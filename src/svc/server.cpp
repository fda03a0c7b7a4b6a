#include "svc/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>

#include "core/charger_placement.hpp"
#include "io/json_codec.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "sim/network_sim.hpp"
#include "svc/planner.hpp"

namespace wrsn::svc {

namespace {

obs::Counter& requests_counter() {
  static obs::Counter& counter = obs::Registry::global().counter("svc/requests");
  return counter;
}
obs::Counter& errors_counter() {
  static obs::Counter& counter = obs::Registry::global().counter("svc/errors");
  return counter;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& gauge = obs::Registry::global().gauge("svc/queue_depth");
  return gauge;
}

/// A handler-level failure that maps to a protocol error reply.
struct RpcError {
  ErrorCode code;
  std::string message;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Relays `wrsn-progress v1` heartbeats to the requesting client as
/// {"event":"progress"} frames on the same connection, throttled per source
/// by the request's progress_s interval (final events always pass).
class FrameProgressSink : public obs::ProgressSink {
 public:
  FrameProgressSink(std::function<void(const io::Json&)> write, std::int64_t request_id,
                    double interval_s)
      : write_(std::move(write)), request_id_(request_id), interval_s_(interval_s) {}

  bool wants(const std::string& source) override {
    std::lock_guard<std::mutex> lock(mutex_);
    return due(source);
  }

  void emit(const obs::ProgressEvent& event) override {
    io::Json data = io::Json::object();
    // Producer fields first, envelope keys last: a source field that happens
    // to be named "source"/"seq"/"t_s"/"final" must not clobber the envelope
    // metadata clients key on.
    for (const auto& [key, value] : event.fields) data.set(key, io::Json(value));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!event.final_event && !due(event.source)) return;
      SourceState& state = sources_[event.source];
      data.set("source", io::Json(event.source));
      data.set("seq", io::Json(static_cast<std::int64_t>(state.seq++)));
      data.set("t_s", io::Json(seconds_since(start_)));
      if (event.final_event) data.set("final", io::Json(true));
      state.last_s = seconds_since(start_);
      state.started = true;
    }
    write_(make_event(request_id_, "progress", std::move(data)));
  }

 private:
  struct SourceState {
    double last_s = 0.0;
    std::uint64_t seq = 0;
    bool started = false;
  };

  bool due(const std::string& source) {
    auto it = sources_.find(source);
    if (it == sources_.end() || !it->second.started) return true;
    return seconds_since(start_) - it->second.last_s >= interval_s_;
  }

  std::function<void(const io::Json&)> write_;
  std::int64_t request_id_;
  double interval_s_;
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
  std::mutex mutex_;
  std::map<std::string, SourceState> sources_;
};

/// Borrow/return RAII for one of a session's committed pricers.
struct PricerLoan {
  explicit PricerLoan(Session& lender) : session(lender), pricer(lender.borrow_pricer()) {}
  ~PricerLoan() { session.return_pricer(std::move(pricer)); }

  Session& session;
  std::unique_ptr<core::DeploymentPricer> pricer;  ///< null when the pool was empty
};

Scenario scenario_from_params(const io::Json& params) {
  try {
    const io::Json* block = params.find("scenario");
    return block != nullptr ? Scenario::from_json(*block) : Scenario{};
  } catch (const std::invalid_argument& e) {
    throw RpcError{ErrorCode::kBadParams, e.what()};
  } catch (const io::JsonError& e) {
    throw RpcError{ErrorCode::kBadParams, std::string("scenario: ") + e.what()};
  }
}

PlanOptions plan_options_from_params(const io::Json& params) {
  PlanOptions options;
  try {
    if (const io::Json* v = params.find("solver")) options.solver = v->as_string();
    if (const io::Json* v = params.find("ls_threads")) options.ls_threads = v->as_int();
    if (const io::Json* v = params.find("ls_strategy")) options.ls_strategy = v->as_string();
    if (const io::Json* v = params.find("exact_threads")) options.exact_threads = v->as_int();
    if (const io::Json* v = params.find("exact_split_depth")) {
      options.exact_split_depth = v->as_int();
    }
    if (const io::Json* v = params.find("exact_budget_s")) options.exact_budget_s = v->as_double();
    if (const io::Json* v = params.find("charger_power_w")) {
      options.charger_power_w = v->as_double();
    }
    if (const io::Json* v = params.find("charger_speed_mps")) {
      options.charger_speed_mps = v->as_double();
    }
    if (const io::Json* v = params.find("bits_per_report")) options.bits_per_report = v->as_int();
  } catch (const io::JsonError& e) {
    throw RpcError{ErrorCode::kBadParams, std::string("plan options: ") + e.what()};
  }
  return options;
}

bool bool_param(const io::Json& params, const char* key, bool fallback) {
  const io::Json* v = params.find(key);
  if (v == nullptr) return fallback;
  try {
    return v->as_bool();
  } catch (const io::JsonError&) {
    throw RpcError{ErrorCode::kBadParams, std::string("\"") + key + "\" must be a boolean"};
  }
}

}  // namespace

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cache_capacity) {}

Server::~Server() {
  if (started_.load()) stop();
}

void Server::start() {
  if (started_.exchange(true)) throw std::runtime_error("Server::start called twice");
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    throw std::runtime_error("Server needs a unix path or a TCP port to listen on");
  }

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("unix socket path too long: " + options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_path.c_str());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket(AF_UNIX) failed");
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("cannot listen on unix socket " + options_.unix_path + ": " +
                               std::strerror(err));
    }
    listen_fds_.push_back(fd);
  }

  if (options_.tcp_port >= 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket(AF_INET) failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("cannot listen on TCP port " +
                               std::to_string(options_.tcp_port) + ": " + std::strerror(err));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      bound_tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
    listen_fds_.push_back(fd);
  }

  int workers = options_.workers;
  if (workers <= 0) workers = static_cast<int>(std::thread::hardware_concurrency());
  if (workers < 1) workers = 1;

  std::lock_guard<std::mutex> lock(threads_mutex_);
  for (const int fd : listen_fds_) {
    accept_threads_.emplace_back([this, fd] { accept_loop(fd); });
  }
  for (int i = 0; i < workers; ++i) {
    worker_threads_.emplace_back([this] { worker_loop(); });
  }
}

void Server::request_stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Closing the listeners makes accept() fail; shutting the connections
  // down unblocks every reader's recv().
  for (const int fd : listen_fds_) ::shutdown(fd, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(threads_mutex_);
  for (const auto& weak : connections_) {
    if (auto connection = weak.lock()) ::shutdown(connection->fd, SHUT_RDWR);
  }
  queue_cv_.notify_all();
}

void Server::wait() {
  // Collect the thread handles under the lock, join outside it (readers are
  // still being spawned until the accept threads exit).
  std::vector<std::thread> accepts;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    accepts.swap(accept_threads_);
  }
  for (std::thread& thread : accepts) thread.join();
  std::vector<std::unique_ptr<Reader>> readers;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    readers.swap(readers_);
  }
  for (const auto& reader : readers) reader->thread.join();
  queue_cv_.notify_all();
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    workers.swap(worker_threads_);
  }
  for (std::thread& thread : workers) thread.join();
  for (const int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

void Server::stop() {
  request_stop();
  wait();
}

void Server::accept_loop(int listen_fd) {
  while (!stopping()) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (stopping()) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener closed
    }
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    std::lock_guard<std::mutex> lock(threads_mutex_);
    if (stopping()) break;  // Connection destructor closes fd
    // Prune dead weak_ptrs and reap exited readers so a long-lived server
    // does not accumulate them (an unjoined thread keeps its kernel task).
    std::erase_if(connections_, [](const auto& weak) { return weak.expired(); });
    connections_.push_back(connection);
    std::erase_if(readers_, [](const std::unique_ptr<Reader>& reader) {
      if (!reader->done.load(std::memory_order_acquire)) return false;
      reader->thread.join();
      return true;
    });
    auto reader = std::make_unique<Reader>();
    Reader* raw = reader.get();
    raw->thread = std::thread([this, connection, raw] {
      reader_loop(connection);
      raw->done.store(true, std::memory_order_release);
    });
    readers_.push_back(std::move(reader));
  }
}

void Server::reader_loop(std::shared_ptr<Connection> connection) {
  FrameReader reader;
  std::vector<char> buffer(64 * 1024);
  bool tear_down = false;
  while (!tear_down && !stopping()) {
    const ssize_t n = ::recv(connection->fd, buffer.data(), buffer.size(), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    reader.feed(buffer.data(), static_cast<std::size_t>(n));
    for (;;) {
      io::Json frame;
      std::string error;
      const FrameReader::Result result = reader.next(&frame, &error);
      if (result == FrameReader::Result::kNeedMore) break;
      if (result == FrameReader::Result::kError) {
        // Framing is unrecoverable: report and tear the connection down.
        write_frame(*connection, make_error(0, ErrorCode::kBadFrame, error));
        errors_counter().increment();
        tear_down = true;
        break;
      }
      Request request;
      std::string parse_error;
      if (!parse_request(frame, &request, &parse_error)) {
        // Echo the id when the frame at least carried a numeric one.
        std::int64_t id = 0;
        if (const io::Json* raw = frame.find("id"); raw != nullptr && raw->is_number()) {
          try {
            id = raw->as_int64();
          } catch (const io::JsonError&) {
          }
        }
        write_frame(*connection, make_error(id, ErrorCode::kBadRequest, parse_error));
        errors_counter().increment();
        continue;
      }
      Task task;
      task.connection = connection;
      task.request = std::move(request);
      task.enqueued = std::chrono::steady_clock::now();
      task.deadline_s =
          task.request.deadline_s > 0.0 ? task.request.deadline_s : options_.default_deadline_s;
      bool rejected = false;
      ErrorCode reject_code = ErrorCode::kOverloaded;
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (stopping()) {
          rejected = true;
          reject_code = ErrorCode::kShuttingDown;
        } else if (queue_.size() >= options_.queue_capacity) {
          rejected = true;
        } else {
          queue_.push_back(std::move(task));
          queue_depth_gauge().set(static_cast<double>(queue_.size()));
        }
      }
      if (rejected) {
        write_frame(*connection,
                    make_error(task.request.id, reject_code,
                               reject_code == ErrorCode::kOverloaded
                                   ? "dispatch queue is full; retry later"
                                   : "server is shutting down"));
        errors_counter().increment();
        requests_failed_.fetch_add(1);
      } else {
        queue_cv_.notify_one();
      }
    }
  }
  // Mark dead and half-close; the fd itself stays open until the last Task
  // holding this Connection is done (the destructor closes it), so the fd
  // number cannot be reused out from under an in-flight reply.
  connection->alive.store(false);
  ::shutdown(connection->fd, SHUT_RDWR);
}

void Server::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping() || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping()) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
    }
    if (stopping()) {
      // Drain: queued-but-unstarted work is failed, not silently dropped.
      write_frame(*task.connection, make_error(task.request.id, ErrorCode::kShuttingDown,
                                               "server is shutting down"));
      errors_counter().increment();
      requests_failed_.fetch_add(1);
      continue;
    }
    execute(task);
  }
}

void Server::write_frame(Connection& connection, const io::Json& frame) {
  const std::string bytes = encode_frame(frame);
  std::lock_guard<std::mutex> lock(connection.write_mutex);
  if (!connection.alive.load()) return;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(connection.fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      connection.alive.store(false);  // peer is gone; drop the rest
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

void Server::execute(Task& task) {
  const Request& request = task.request;
  requests_counter().increment();

  const auto reply_error = [&](ErrorCode code, const std::string& message) {
    write_frame(*task.connection, make_error(request.id, code, message));
    errors_counter().increment();
    requests_failed_.fetch_add(1);
  };

  if (seconds_since(task.enqueued) > task.deadline_s) {
    reply_error(ErrorCode::kTimeout, "deadline expired while queued");
    return;
  }

  static const char* const kMethods[] = {"plan", "evaluate", "simulate", "place", "ping",
                                         "shutdown"};
  const bool known = std::any_of(std::begin(kMethods), std::end(kMethods),
                                 [&](const char* m) { return request.method == m; });
  if (!known) {
    reply_error(ErrorCode::kUnknownMethod,
                "unknown method '" + request.method +
                    "' (methods: plan evaluate simulate place ping shutdown)");
    return;
  }

  std::unique_ptr<FrameProgressSink> progress;
  if (request.progress_s > 0.0) {
    auto connection = task.connection;
    progress = std::make_unique<FrameProgressSink>(
        [this, connection](const io::Json& frame) { write_frame(*connection, frame); },
        request.id, request.progress_s);
  }

  io::Json result;
  try {
    if (request.method == "ping") {
      result = handle_ping();
    } else if (request.method == "shutdown") {
      result = io::Json::object();
      result.set("stopping", io::Json(true));
    } else if (request.method == "plan") {
      result = handle_plan(request, progress.get());
    } else if (request.method == "evaluate") {
      result = handle_evaluate(request);
    } else if (request.method == "simulate") {
      result = handle_simulate(request, progress.get());
    } else {
      result = handle_place(request);
    }
  } catch (const RpcError& e) {
    reply_error(e.code, e.message);
    return;
  } catch (const io::JsonError& e) {
    reply_error(ErrorCode::kBadParams, e.what());
    return;
  } catch (const std::exception& e) {
    reply_error(ErrorCode::kInternal, e.what());
    return;
  }

  const double elapsed_s = seconds_since(task.enqueued);
  if (elapsed_s > task.deadline_s) {
    // Completed, but too late to be useful: the contract is an error reply.
    reply_error(ErrorCode::kTimeout, "request completed after its deadline");
    return;
  }
  static obs::Registry& registry = obs::Registry::global();
  registry.histogram("svc/" + request.method + "_latency_ms").record(elapsed_s * 1e3);
  write_frame(*task.connection, make_response(request.id, std::move(result)));
  requests_served_.fetch_add(1);

  if (request.method == "shutdown") request_stop();
}

io::Json Server::handle_ping() {
  const CacheStats stats = cache_.stats();
  io::Json result = io::Json::object();
  result.set("pong", io::Json(true));
  result.set("requests", io::Json(requests_served()));
  result.set("failed", io::Json(requests_failed()));
  result.set("cache_hits", io::Json(stats.hits));
  result.set("cache_misses", io::Json(stats.misses));
  result.set("cache_evictions", io::Json(stats.evictions));
  result.set("cache_sessions", io::Json(static_cast<std::uint64_t>(cache_.size())));
  return result;
}

io::Json Server::handle_plan(const Request& request, obs::ProgressSink* progress) {
  const Scenario scenario = scenario_from_params(request.params);
  const PlanOptions options = plan_options_from_params(request.params);
  const bool want_report = bool_param(request.params, "report", true);
  const bool want_solution = bool_param(request.params, "solution", false);

  bool hit = false;
  std::shared_ptr<Session> session;
  try {
    session = cache_.acquire(scenario, &hit);
  } catch (const std::exception& e) {
    throw RpcError{ErrorCode::kBadParams, std::string("scenario infeasible: ") + e.what()};
  }

  PlanOutcome outcome;
  try {
    outcome = run_plan(session->instance(), options, nullptr, progress);
  } catch (const std::invalid_argument& e) {
    throw RpcError{ErrorCode::kSolverReject, e.what()};
  }

  io::Json result = io::Json::object();
  result.set("fingerprint", io::Json(scenario.fingerprint_hex()));
  result.set("cache", io::Json(hit ? "hit" : "miss"));
  result.set("solver", io::Json(outcome.solver_canonical));
  result.set("cost_j_per_bit", io::Json(outcome.cost_j_per_bit));
  result.set("feasible", io::Json(outcome.feasibility.feasible));
  result.set("tour_length_m", io::Json(outcome.tour.length_m));
  result.set("duty_cycle", io::Json(outcome.feasibility.duty));
  if (want_solution) result.set("solution", io::solution_to_json(outcome.solution));
  if (want_report) {
    result.set("report",
               io::Json(render_plan_report(session->instance(), outcome, scenario,
                                           options.solver)));
  }
  return result;
}

io::Json Server::handle_evaluate(const Request& request) {
  const Scenario scenario = scenario_from_params(request.params);
  const io::Json* deployments = request.params.find("deployments");
  if (deployments == nullptr || !deployments->is_array() || deployments->as_array().empty()) {
    throw RpcError{ErrorCode::kBadParams, "\"deployments\" must be a non-empty array of arrays"};
  }

  bool hit = false;
  std::shared_ptr<Session> session;
  try {
    session = cache_.acquire(scenario, &hit);
  } catch (const std::exception& e) {
    throw RpcError{ErrorCode::kBadParams, std::string("scenario infeasible: ") + e.what()};
  }
  const core::Instance& instance = session->instance();
  const int posts = instance.num_posts();

  PricerLoan loan(*session);
  std::int64_t incremental = 0;
  std::int64_t rebuilt = 0;
  io::Json costs = io::Json::array();

  for (const io::Json& entry : deployments->as_array()) {
    if (!entry.is_array() || static_cast<int>(entry.as_array().size()) != posts) {
      throw RpcError{ErrorCode::kBadParams,
                     "each deployment must list one node count per post (" +
                         std::to_string(posts) + " entries)"};
    }
    std::vector<int> deployment;
    deployment.reserve(static_cast<std::size_t>(posts));
    for (const io::Json& count : entry.as_array()) {
      const int m = count.as_int();
      if (m < 1) {
        throw RpcError{ErrorCode::kBadParams, "deployment counts must be >= 1 (every post"
                                              " needs a node)"};
      }
      deployment.push_back(m);
    }

    double cost = 0.0;
    core::DeploymentPricer* pricer = loan.pricer.get();
    if (pricer != nullptr) {
      // Classify the delta against the committed deployment: single-post
      // changes price by incremental shortest-path repair.
      const std::vector<int>& committed = pricer->deployment();
      std::vector<int> changed;
      for (int p = 0; p < posts; ++p) {
        if (committed[static_cast<std::size_t>(p)] != deployment[static_cast<std::size_t>(p)]) {
          changed.push_back(p);
        }
      }
      if (changed.empty()) {
        cost = pricer->base_cost();
        ++incremental;
      } else if (changed.size() == 1) {
        const int p = changed.front();
        const int before = committed[static_cast<std::size_t>(p)];
        const int after = deployment[static_cast<std::size_t>(p)];
        if (after == before + 1) {
          pricer->add_node(p);
          cost = pricer->base_cost();
          ++incremental;
        } else if (after == before - 1 && before >= 2) {
          pricer->remove_node(p);
          cost = pricer->base_cost();
          ++incremental;
        } else {
          pricer = nullptr;
        }
      } else if (changed.size() == 2) {
        const int a = changed[0];
        const int b = changed[1];
        const int da = deployment[static_cast<std::size_t>(a)] -
                       committed[static_cast<std::size_t>(a)];
        const int db = deployment[static_cast<std::size_t>(b)] -
                       committed[static_cast<std::size_t>(b)];
        if (da == -1 && db == 1 && committed[static_cast<std::size_t>(a)] >= 2) {
          pricer->move_node(a, b);
          cost = pricer->base_cost();
          ++incremental;
        } else if (da == 1 && db == -1 && committed[static_cast<std::size_t>(b)] >= 2) {
          pricer->move_node(b, a);
          cost = pricer->base_cost();
          ++incremental;
        } else {
          pricer = nullptr;
        }
      } else {
        pricer = nullptr;
      }
    }
    if (pricer == nullptr) {
      // Full (re)build: one fresh Dijkstra; the replaced pricer is freed.
      loan.pricer = std::make_unique<core::DeploymentPricer>(instance, deployment);
      cost = loan.pricer->base_cost();
      ++rebuilt;
    }
    costs.push_back(std::isfinite(cost) ? io::Json(cost) : io::Json());
  }

  io::Json result = io::Json::object();
  result.set("fingerprint", io::Json(scenario.fingerprint_hex()));
  result.set("cache", io::Json(hit ? "hit" : "miss"));
  result.set("costs", std::move(costs));
  result.set("incremental", io::Json(incremental));
  result.set("rebuilt", io::Json(rebuilt));
  return result;
}

io::Json Server::handle_simulate(const Request& request, obs::ProgressSink* progress) {
  const Scenario scenario = scenario_from_params(request.params);
  const PlanOptions options = plan_options_from_params(request.params);

  int rounds = 200;
  sim::NetworkConfig config;
  config.bits_per_report = options.bits_per_report;
  config.progress = progress;
  try {
    if (const io::Json* v = request.params.find("rounds")) rounds = v->as_int();
    if (const io::Json* v = request.params.find("battery_j")) {
      config.battery_capacity_j = v->as_double();
    }
    if (const io::Json* v = request.params.find("fault_seed")) {
      config.faults.seed = v->as_uint64();
    }
    if (const io::Json* v = request.params.find("post_hazard")) {
      config.faults.post_destruction_hazard = v->as_double();
    }
    if (const io::Json* v = request.params.find("node_hazard")) {
      config.faults.node_death_hazard = v->as_double();
    }
    if (const io::Json* v = request.params.find("link_hazard")) {
      config.faults.link_outage_hazard = v->as_double();
    }
    if (const io::Json* v = request.params.find("repair")) {
      config.repair = sim::repair_policy_from_name(v->as_string());
    }
  } catch (const std::invalid_argument& e) {
    throw RpcError{ErrorCode::kBadParams, e.what()};
  }
  if (rounds < 1) throw RpcError{ErrorCode::kBadParams, "\"rounds\" must be >= 1"};

  bool hit = false;
  std::shared_ptr<Session> session;
  try {
    session = cache_.acquire(scenario, &hit);
  } catch (const std::exception& e) {
    throw RpcError{ErrorCode::kBadParams, std::string("scenario infeasible: ") + e.what()};
  }

  PlanOutcome outcome;
  try {
    outcome = run_plan(session->instance(), options, nullptr, progress);
  } catch (const std::invalid_argument& e) {
    throw RpcError{ErrorCode::kSolverReject, e.what()};
  }

  sim::NetworkSim simulation(session->instance(), outcome.solution, config);
  simulation.run_rounds(static_cast<std::uint64_t>(rounds));

  double battery_min = 0.0;
  double battery_sum = 0.0;
  int battery_count = 0;
  for (const auto& post : simulation.posts()) {
    for (const auto& node : post.nodes) {
      battery_min = battery_count == 0 ? node.battery_j : std::min(battery_min, node.battery_j);
      battery_sum += node.battery_j;
      ++battery_count;
    }
  }

  io::Json result = io::Json::object();
  result.set("fingerprint", io::Json(scenario.fingerprint_hex()));
  result.set("cache", io::Json(hit ? "hit" : "miss"));
  result.set("solver", io::Json(outcome.solver_canonical));
  result.set("cost_j_per_bit", io::Json(outcome.cost_j_per_bit));
  result.set("rounds", io::Json(static_cast<std::uint64_t>(simulation.rounds_completed())));
  result.set("dead_nodes", io::Json(simulation.dead_node_count()));
  result.set("consumed_j", io::Json(simulation.total_consumed()));
  result.set("battery_min_j", io::Json(battery_min));
  result.set("battery_mean_j",
             io::Json(battery_count > 0 ? battery_sum / battery_count : 0.0));
  if (config.faults.enabled() || config.repair != sim::RepairPolicy::kNone) {
    result.set("delivery_ratio", io::Json(simulation.delivery_ratio()));
    result.set("faults_injected",
               io::Json(static_cast<std::uint64_t>(simulation.faults_injected())));
    result.set("destroyed_posts", io::Json(simulation.destroyed_post_count()));
    result.set("reroutes", io::Json(static_cast<std::uint64_t>(simulation.reroutes())));
  }
  return result;
}

io::Json Server::handle_place(const Request& request) {
  const Scenario scenario = scenario_from_params(request.params);
  const PlanOptions options = plan_options_from_params(request.params);

  core::PlacementConfig placement_config;
  placement_config.bits_per_round = options.bits_per_report;
  try {
    if (const io::Json* v = request.params.find("radius_m")) {
      placement_config.coverage_radius_m = v->as_double();
    }
    if (const io::Json* v = request.params.find("power_w")) {
      placement_config.radiated_power_w = v->as_double();
    }
    if (const io::Json* v = request.params.find("max_chargers")) {
      placement_config.max_chargers = v->as_int();
    }
    if (const io::Json* v = request.params.find("max_duty")) {
      placement_config.max_duty = v->as_double();
    }
    if (const io::Json* v = request.params.find("round_period_s")) {
      placement_config.round_period_s = v->as_double();
    }
  } catch (const io::JsonError& e) {
    throw RpcError{ErrorCode::kBadParams, std::string("placement params: ") + e.what()};
  }

  bool hit = false;
  std::shared_ptr<Session> session;
  try {
    session = cache_.acquire(scenario, &hit);
  } catch (const std::exception& e) {
    throw RpcError{ErrorCode::kBadParams, std::string("scenario infeasible: ") + e.what()};
  }

  PlanOutcome outcome;
  try {
    outcome = run_plan(session->instance(), options, nullptr, nullptr);
  } catch (const std::invalid_argument& e) {
    throw RpcError{ErrorCode::kSolverReject, e.what()};
  }

  core::PlacementResult placement;
  try {
    placement = core::place_chargers(session->instance(), outcome.solution, placement_config);
  } catch (const std::invalid_argument& e) {
    throw RpcError{ErrorCode::kBadParams, e.what()};
  }

  io::Json result = io::Json::object();
  result.set("fingerprint", io::Json(scenario.fingerprint_hex()));
  result.set("cache", io::Json(hit ? "hit" : "miss"));
  result.set("solver", io::Json(outcome.solver_canonical));
  result.set("cost_j_per_bit", io::Json(outcome.cost_j_per_bit));
  result.set("placement", io::placement_to_json(placement));
  return result;
}

}  // namespace wrsn::svc
