// End-to-end loopback tests for wrsn_serve (svc/server.hpp): server and
// client in one process over a unix socket (plus one TCP check), covering
// the method table, the error table, cold/warm cache behavior, the
// byte-identity contract for plan reports, concurrent-client determinism,
// and graceful shutdown.
#include "svc/server.hpp"

#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/pricer.hpp"
#include "svc/client.hpp"
#include "svc/planner.hpp"

namespace wrsn::svc {
namespace {

std::string test_socket_path() {
  return "/tmp/wrsn_svc_test_" + std::to_string(::getpid()) + ".sock";
}

io::Json tiny_scenario_json(std::int64_t seed = 1) {
  io::Json scenario = io::Json::object();
  scenario.set("posts", io::Json(6));
  scenario.set("nodes", io::Json(12));
  scenario.set("side", io::Json(80.0));
  scenario.set("seed", io::Json(seed));
  return scenario;
}

io::Json plan_params(std::int64_t seed = 1) {
  io::Json params = io::Json::object();
  params.set("scenario", tiny_scenario_json(seed));
  params.set("solver", io::Json("rfh+ls"));
  return params;
}

const io::Json* require_result(const io::Json& reply) {
  const io::Json* ok = reply.find("ok");
  EXPECT_NE(ok, nullptr);
  EXPECT_TRUE(ok != nullptr && ok->as_bool())
      << (reply.find("error") != nullptr ? reply.find("error")->dump() : reply.dump());
  return reply.find("result");
}

std::string require_error_code(const io::Json& reply) {
  const io::Json* ok = reply.find("ok");
  EXPECT_TRUE(ok != nullptr && !ok->as_bool()) << reply.dump();
  const io::Json* error = reply.find("error");
  if (error == nullptr || error->find("code") == nullptr) return "";
  return error->find("code")->as_string();
}

class SvcServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.unix_path = test_socket_path();
    options.workers = 2;
    options.cache_capacity = 4;
    server_ = std::make_unique<Server>(options);
    server_->start();
  }

  void TearDown() override {
    server_->stop();
    server_.reset();
  }

  Client connect() { return Client::connect_unix(test_socket_path()); }

  std::unique_ptr<Server> server_;
};

TEST_F(SvcServerTest, PingReportsStats) {
  Client client = connect();
  const io::Json reply = client.call("ping", io::Json::object());
  const io::Json* result = require_result(reply);
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->find("pong")->as_bool());
  EXPECT_EQ(result->find("cache_sessions")->as_int(), 0);
}

TEST_F(SvcServerTest, UnknownMethodIsRejected) {
  Client client = connect();
  const io::Json reply = client.call("frobnicate", io::Json::object());
  EXPECT_EQ(require_error_code(reply), "unknown-method");
}

TEST_F(SvcServerTest, MalformedEnvelopeIsBadRequest) {
  // An empty method fails envelope validation, not method dispatch.
  Client client = connect();
  const io::Json reply = client.call("", io::Json::object());
  EXPECT_EQ(require_error_code(reply), "bad-request");
}

TEST_F(SvcServerTest, GarbageFramingTearsConnectionDown) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, test_socket_path().c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  const char zeros[4] = {0, 0, 0, 0};  // zero-length frame: unrecoverable
  ASSERT_EQ(::send(fd, zeros, sizeof(zeros), 0), 4);

  FrameReader reader;
  char buffer[4096];
  io::Json reply;
  std::string error;
  bool got_reply = false;
  bool closed = false;
  for (int i = 0; i < 100 && !closed; ++i) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      closed = true;
      break;
    }
    reader.feed(buffer, static_cast<std::size_t>(n));
    if (!got_reply && reader.next(&reply, &error) == FrameReader::Result::kFrame) {
      got_reply = true;
    }
  }
  ::close(fd);
  ASSERT_TRUE(got_reply);
  EXPECT_EQ(require_error_code(reply), "bad-frame");
  EXPECT_TRUE(closed) << "server must close a connection that lost framing";
}

TEST_F(SvcServerTest, PlanColdThenWarmIsByteIdentical) {
  Client client = connect();
  const io::Json cold = client.call("plan", plan_params());
  const io::Json* cold_result = require_result(cold);
  ASSERT_NE(cold_result, nullptr);
  EXPECT_EQ(cold_result->find("cache")->as_string(), "miss");
  EXPECT_GT(cold_result->find("cost_j_per_bit")->as_double(), 0.0);
  const std::string cold_report = cold_result->find("report")->as_string();
  EXPECT_NE(cold_report.find("wrsn deployment plan"), std::string::npos);

  const io::Json warm = client.call("plan", plan_params());
  const io::Json* warm_result = require_result(warm);
  ASSERT_NE(warm_result, nullptr);
  EXPECT_EQ(warm_result->find("cache")->as_string(), "hit");
  EXPECT_EQ(warm_result->find("report")->as_string(), cold_report);
  EXPECT_EQ(warm_result->find("fingerprint")->as_string(),
            cold_result->find("fingerprint")->as_string());
}

TEST_F(SvcServerTest, PlanReportMatchesInProcessPlanner) {
  Client client = connect();
  io::Json params = plan_params();
  params.set("solution", io::Json(true));
  const io::Json reply = client.call("plan", params);
  const io::Json* result = require_result(reply);
  ASSERT_NE(result, nullptr);

  // Recompute the same plan in-process through the shared planner: the
  // daemon's report must be byte-identical (the contract plan_tool also
  // keeps, minus its process-global metrics section).
  const Scenario scenario = Scenario::from_json(tiny_scenario_json());
  const core::Instance instance = build_instance(scenario);
  PlanOptions options;
  const PlanOutcome outcome = run_plan(instance, options, nullptr, nullptr);
  EXPECT_EQ(result->find("report")->as_string(),
            render_plan_report(instance, outcome, scenario, options.solver));
  EXPECT_DOUBLE_EQ(result->find("cost_j_per_bit")->as_double(), outcome.cost_j_per_bit);
  EXPECT_TRUE(result->find("solution")->is_object());
}

TEST_F(SvcServerTest, ConcurrentClientsAreDeterministic) {
  constexpr int kClients = 4;
  std::vector<std::string> reports(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, &reports, i] {
      Client client = connect();
      // Interleave two scenarios so the workers contend on the cache.
      client.call("plan", plan_params(2));
      const io::Json reply = client.call("plan", plan_params(1));
      const io::Json* result = reply.find("result");
      if (result != nullptr && result->find("report") != nullptr) {
        reports[i] = result->find("report")->as_string();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kClients; ++i) {
    ASSERT_FALSE(reports[i].empty()) << "client " << i;
    EXPECT_EQ(reports[i], reports[0]) << "client " << i;
  }
}

TEST_F(SvcServerTest, EvaluatePricesIncrementally) {
  Client client = connect();
  io::Json params = io::Json::object();
  params.set("scenario", tiny_scenario_json());
  io::Json deployments = io::Json::array();
  // Base: the budget spread as 7,1,1,1,1,1 (12 nodes over 6 posts).
  std::vector<int> base = {7, 1, 1, 1, 1, 1};
  const auto push = [&deployments](const std::vector<int>& deployment) {
    io::Json row = io::Json::array();
    for (const int m : deployment) row.push_back(io::Json(m));
    deployments.push_back(std::move(row));
  };
  push(base);                        // full build
  std::vector<int> extra = base;
  extra[1] = 2;
  push(extra);                       // +1 at post 1: incremental
  push(base);                        // -1 at post 1: incremental
  std::vector<int> moved = base;
  moved[0] = 6;
  moved[2] = 2;
  push(moved);                       // move 0 -> 2: incremental
  push({2, 2, 2, 2, 2, 2});          // many-post delta: rebuild
  push({2, 2, 2, 2, 2, 2});          // unchanged: incremental
  push({3, 1, 2, 2, 2, 2});          // move 1 -> 0, receiver listed first: incremental
  push({3, 1, 4, 2, 2, 2});          // +2 at post 2: rebuild
  push({3, 1, 4, 3, 3, 2});          // +1 at posts 3 and 4: rebuild
  std::vector<std::vector<int>> sent;
  for (const io::Json& row : deployments.as_array()) {
    std::vector<int>& deployment = sent.emplace_back();
    for (const io::Json& m : row.as_array()) deployment.push_back(static_cast<int>(m.as_int()));
  }
  params.set("deployments", std::move(deployments));

  const io::Json reply = client.call("evaluate", params);
  const io::Json* result = require_result(reply);
  ASSERT_NE(result, nullptr);
  const auto& costs = result->find("costs")->as_array();
  ASSERT_EQ(costs.size(), sent.size());
  EXPECT_EQ(result->find("incremental")->as_int(), 5);
  EXPECT_EQ(result->find("rebuilt")->as_int(), 4);
  // Every answer, incremental or rebuilt, prices its deployment the way a
  // fresh pricer does.
  const core::Instance instance = build_instance(Scenario::from_json(tiny_scenario_json()));
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const double fresh = core::DeploymentPricer(instance, sent[i]).base_cost();
    EXPECT_NEAR(costs[i].as_double(), fresh, 1e-9 * fresh) << "deployment " << i;
  }

  // Incremental answers must equal what a fresh evaluation of the same
  // deployment computes (second request, same connection: warm state).
  io::Json again = io::Json::object();
  again.set("scenario", tiny_scenario_json());
  io::Json only_extra = io::Json::array();
  io::Json row = io::Json::array();
  for (const int m : extra) row.push_back(io::Json(m));
  only_extra.push_back(std::move(row));
  again.set("deployments", std::move(only_extra));
  const io::Json reply2 = client.call("evaluate", again);
  const io::Json* result2 = require_result(reply2);
  ASSERT_NE(result2, nullptr);
  EXPECT_NEAR(result2->find("costs")->as_array().front().as_double(), costs[1].as_double(),
              1e-9 * costs[1].as_double());
}

TEST_F(SvcServerTest, BadParamsAndSolverRejects) {
  Client client = connect();

  io::Json bad_scenario = io::Json::object();
  io::Json scenario = io::Json::object();
  scenario.set("posts", io::Json(0));
  bad_scenario.set("scenario", scenario);
  EXPECT_EQ(require_error_code(client.call("plan", bad_scenario)), "bad-params");

  io::Json bad_solver = plan_params();
  bad_solver.set("solver", io::Json("no-such-solver"));
  EXPECT_EQ(require_error_code(client.call("plan", bad_solver)), "solver-reject");

  io::Json bad_deployments = io::Json::object();
  bad_deployments.set("scenario", tiny_scenario_json());
  io::Json rows = io::Json::array();
  io::Json short_row = io::Json::array();
  short_row.push_back(io::Json(1));
  rows.push_back(std::move(short_row));
  bad_deployments.set("deployments", std::move(rows));
  EXPECT_EQ(require_error_code(client.call("evaluate", bad_deployments)), "bad-params");
}

TEST_F(SvcServerTest, ExpiredDeadlineIsTimeout) {
  Client client = connect();
  const io::Json reply = client.call("plan", plan_params(), /*deadline_s=*/1e-9);
  EXPECT_EQ(require_error_code(reply), "timeout");
}

TEST_F(SvcServerTest, SimulateAndPlace) {
  Client client = connect();

  io::Json sim_params = plan_params();
  sim_params.set("rounds", io::Json(20));
  const io::Json sim_reply = client.call("simulate", sim_params);
  const io::Json* sim_result = require_result(sim_reply);
  ASSERT_NE(sim_result, nullptr);
  EXPECT_EQ(sim_result->find("rounds")->as_int(), 20);
  EXPECT_GE(sim_result->find("dead_nodes")->as_int(), 0);
  EXPECT_GT(sim_result->find("consumed_j")->as_double(), 0.0);

  io::Json place_params = plan_params();
  place_params.set("radius_m", io::Json(60.0));
  const io::Json place_reply = client.call("place", place_params);
  const io::Json* place_result = require_result(place_reply);
  ASSERT_NE(place_result, nullptr);
  const io::Json* placement = place_result->find("placement");
  ASSERT_NE(placement, nullptr);
  EXPECT_TRUE(placement->contains("chargers"));
}

TEST(SvcServerTcp, EphemeralPortRoundTrip) {
  ServerOptions options;
  options.tcp_port = 0;
  options.workers = 1;
  Server server(options);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);
  {
    Client client = Client::connect_tcp(server.tcp_port());
    const io::Json reply = client.call("ping", io::Json::object());
    const io::Json* result = require_result(reply);
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->find("pong")->as_bool());
  }
  server.stop();
}

TEST(SvcServerMemory, EvaluateRebuildsHoldHeapFlat) {
  // Every entry below rebuilds the session's pricer.  A replaced pricer must
  // free its buffers, so once the first requests have warmed the heap a
  // further identical request leaves the live heap where it was.
  const auto live_heap_bytes = [] {
    const struct mallinfo2 info = ::mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  if (live_heap_bytes() == 0) GTEST_SKIP() << "mallinfo2 sees no heap (sanitizer allocator)";

  const std::string path = test_socket_path() + ".rebuilds";
  ServerOptions options;
  options.unix_path = path;
  options.workers = 1;
  Server server(options);
  server.start();
  Client client = Client::connect_unix(path);

  io::Json params = io::Json::object();
  io::Json scenario = io::Json::object();
  scenario.set("posts", io::Json(200));
  scenario.set("nodes", io::Json(800));
  scenario.set("side", io::Json(500.0));
  scenario.set("seed", io::Json(7));
  params.set("scenario", std::move(scenario));
  // Two deployments four posts apart, alternating: no entry is a
  // single-post delta from the one before it.
  const std::vector<int> even(200, 4);
  std::vector<int> odd = even;
  odd[0] = 5;
  odd[1] = 3;
  odd[2] = 5;
  odd[3] = 3;
  io::Json deployments = io::Json::array();
  for (int i = 0; i < 400; ++i) {
    io::Json row = io::Json::array();
    for (const int m : i % 2 == 0 ? even : odd) row.push_back(io::Json(m));
    deployments.push_back(std::move(row));
  }
  params.set("deployments", std::move(deployments));

  std::vector<std::size_t> after_request;
  for (int request = 0; request < 3; ++request) {
    {
      const io::Json reply = client.call("evaluate", params);
      const io::Json* result = require_result(reply);
      ASSERT_NE(result, nullptr);
      EXPECT_EQ(result->find("rebuilt")->as_int(), 400);
      // The single worker takes the ping only after it has dropped the
      // evaluate task.
      ASSERT_NE(require_result(client.call("ping", io::Json::object())), nullptr);
    }
    after_request.push_back(live_heap_bytes());
  }
  server.stop();
  EXPECT_LT(after_request[2], after_request[1] + 128 * 1024)
      << "live heap grew from " << after_request[1] << " to " << after_request[2]
      << " bytes over 400 rebuilds";
}

TEST(SvcServerShutdown, StopUnblocksIdleConnections) {
  const std::string path = test_socket_path() + ".idle";
  ServerOptions options;
  options.unix_path = path;
  options.workers = 1;
  Server server(options);
  server.start();
  Client client = Client::connect_unix(path);
  const io::Json reply = client.call("ping", io::Json::object());
  ASSERT_NE(require_result(reply), nullptr);
  // The client stays connected and idle across stop(): request_stop() must
  // shut down the live connection fd so the blocked reader's recv() wakes;
  // otherwise stop() hangs until the client voluntarily disconnects.
  server.stop();
  EXPECT_TRUE(server.stopping());
}

TEST(SvcServerShutdown, ShutdownMethodStopsServer) {
  const std::string path = test_socket_path() + ".shutdown";
  ServerOptions options;
  options.unix_path = path;
  options.workers = 2;
  Server server(options);
  server.start();
  {
    Client client = Client::connect_unix(path);
    const io::Json reply = client.call("shutdown", io::Json::object());
    const io::Json* result = require_result(reply);
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->find("stopping")->as_bool());
  }
  server.wait();  // must return: the shutdown request initiated the stop
  EXPECT_TRUE(server.stopping());
  EXPECT_THROW(Client::connect_unix(path), std::runtime_error);
}

}  // namespace
}  // namespace wrsn::svc
