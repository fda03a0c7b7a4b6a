// SessionCache (svc/session_cache.hpp): hit/miss accounting, LRU eviction
// order, eviction safety for in-flight holders, build-once under concurrent
// same-fingerprint acquires, and the pricer borrow/return pool.
#include "svc/session_cache.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "svc/planner.hpp"

namespace wrsn::svc {
namespace {

Scenario tiny_scenario(std::int64_t seed) {
  Scenario scenario;
  scenario.posts = 5;
  scenario.nodes = 10;
  scenario.side = 60.0;
  scenario.seed = seed;
  return scenario;
}

TEST(SvcCache, MissThenHit) {
  SessionCache cache(4);
  bool hit = true;
  const auto first = cache.acquire(tiny_scenario(1), &hit);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(hit);
  const auto second = cache.acquire(tiny_scenario(1), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SvcCache, SessionCarriesScenarioAndInstance) {
  SessionCache cache(2);
  const auto session = cache.acquire(tiny_scenario(3));
  EXPECT_EQ(session->scenario().seed, 3);
  EXPECT_EQ(session->fingerprint(), tiny_scenario(3).fingerprint());
  EXPECT_EQ(session->instance().num_posts(), 5);
  EXPECT_EQ(session->instance().num_nodes(), 10);
}

TEST(SvcCache, EvictsLeastRecentlyUsed) {
  SessionCache cache(2);
  cache.acquire(tiny_scenario(1));
  cache.acquire(tiny_scenario(2));
  // Touch 1 so 2 is the LRU victim when 3 arrives.
  cache.acquire(tiny_scenario(1));
  cache.acquire(tiny_scenario(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  bool hit = false;
  cache.acquire(tiny_scenario(1), &hit);
  EXPECT_TRUE(hit) << "recently-touched scenario 1 must survive";
  cache.acquire(tiny_scenario(2), &hit);
  EXPECT_FALSE(hit) << "scenario 2 was the LRU victim";
}

TEST(SvcCache, EvictionDoesNotInvalidateHolders) {
  SessionCache cache(1);
  const auto held = cache.acquire(tiny_scenario(1));
  cache.acquire(tiny_scenario(2));  // evicts 1 from the cache
  EXPECT_EQ(cache.size(), 1u);
  // The holder's session is still fully usable.
  EXPECT_EQ(held->instance().num_posts(), 5);
  held->return_pricer(
      std::make_unique<core::DeploymentPricer>(held->instance(), std::vector<int>(5, 2)));
  EXPECT_NE(held->borrow_pricer(), nullptr);
}

TEST(SvcCache, FailedBuildIsNotCached) {
  SessionCache cache(4);
  Scenario impossible = tiny_scenario(1);
  // 10 posts sprinkled over 5 km with a 75 m radio range: the chance of a
  // connected sample is astronomically small, so the 1000 attempts throw.
  impossible.side = 5000.0;
  impossible.posts = 10;
  impossible.nodes = 20;
  EXPECT_THROW(cache.acquire(impossible), std::runtime_error);
  EXPECT_EQ(cache.size(), 0u) << "poisoned entry must be erased";
  // And the failure is not sticky for other scenarios.
  EXPECT_NE(cache.acquire(tiny_scenario(1)), nullptr);
}

TEST(SvcCache, ConcurrentAcquiresBuildOnce) {
  SessionCache cache(4);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<Session>> sessions(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&cache, &sessions, i] { sessions[i] = cache.acquire(tiny_scenario(9)); });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(sessions[0].get(), sessions[i].get()) << "thread " << i;
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(SvcCache, PricerPoolRoundTrips) {
  SessionCache cache(2);
  const auto session = cache.acquire(tiny_scenario(1));
  EXPECT_EQ(session->pricer_pool_size(), 0u);
  EXPECT_EQ(session->borrow_pricer(), nullptr) << "an empty pool lends nothing";
  session->return_pricer(nullptr);
  EXPECT_EQ(session->pricer_pool_size(), 0u) << "null is not pooled";

  const std::vector<int> deployment(5, 2);
  auto first = std::make_unique<core::DeploymentPricer>(session->instance(), deployment);
  auto second = std::make_unique<core::DeploymentPricer>(session->instance(), deployment);
  const core::DeploymentPricer* raw_first = first.get();
  const core::DeploymentPricer* raw_second = second.get();
  session->return_pricer(std::move(first));
  session->return_pricer(std::move(second));
  EXPECT_EQ(session->pricer_pool_size(), 2u);
  // Last in, first out.
  auto again = session->borrow_pricer();
  EXPECT_EQ(again.get(), raw_second);
  EXPECT_EQ(session->borrow_pricer().get(), raw_first);
  session->return_pricer(std::move(again));
  EXPECT_EQ(session->pricer_pool_size(), 1u);
}

TEST(SvcCache, PooledPricerStaysCommitted) {
  SessionCache cache(2);
  const auto session = cache.acquire(tiny_scenario(1));
  const core::Instance& instance = session->instance();

  std::vector<int> deployment(static_cast<std::size_t>(instance.num_posts()), 1);
  deployment[0] = 1 + (instance.num_nodes() - instance.num_posts());
  auto pricer = std::make_unique<core::DeploymentPricer>(instance, deployment);
  const double base = pricer->base_cost();
  EXPECT_GT(base, 0.0);
  session->return_pricer(std::move(pricer));

  // The next borrower prices against the deployment the pricer was left at;
  // an extra node at post 1 can only help (k(m) is non-decreasing).
  const auto pooled = session->borrow_pricer();
  ASSERT_NE(pooled, nullptr);
  EXPECT_EQ(pooled->deployment(), deployment);
  EXPECT_EQ(pooled->base_cost(), base);
  EXPECT_LE(pooled->cost_with_extra_node(1), base + 1e-12);
}

}  // namespace
}  // namespace wrsn::svc
