// Fingerprint-keyed LRU session cache: the daemon's reason to exist.
//
// A cold `plan`/`evaluate` request pays for scenario parsing, field
// rejection sampling, adjacency construction, and a fresh Dijkstra scratch;
// a warm request reuses all of it.  One `Session` owns the immutable parsed
// `core::Instance` for a scenario fingerprint plus a pool of committed
// `core::DeploymentPricer`s, so repeat traffic against the same scenario
// prices single-post deltas by incremental shortest-path repair instead of
// a fresh Dijkstra (docs/service.md "Session cache"; perfbench's `service`
// workload times warm against cold plans).
//
// Concurrency contract: `acquire` is callable from every worker thread.
// Concurrent acquires of the same fingerprint build the instance once (the
// losers block on the builder's shared_future); eviction only drops the
// cache's reference, so in-flight requests holding the shared_ptr keep
// their session alive.  Pricers are borrowed/returned, never shared.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/instance.hpp"
#include "core/pricer.hpp"
#include "svc/protocol.hpp"

namespace wrsn::svc {

/// One cached scenario: the parsed instance plus its pool of pricers.
class Session {
 public:
  Session(Scenario scenario, core::Instance instance)
      : scenario_(std::move(scenario)),
        fingerprint_(scenario_.fingerprint()),
        instance_(std::move(instance)) {}

  const Scenario& scenario() const noexcept { return scenario_; }
  const core::Instance& instance() const noexcept { return instance_; }
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// Pops the pricer returned last, or nullptr when the pool is empty.  A
  /// pooled pricer is still committed to whatever deployment last used it.
  std::unique_ptr<core::DeploymentPricer> borrow_pricer();
  /// Returns a pricer to the pool for the next borrower; nullptr is ignored.
  void return_pricer(std::unique_ptr<core::DeploymentPricer> pricer);
  std::size_t pricer_pool_size() const;

 private:
  Scenario scenario_;
  std::uint64_t fingerprint_;
  core::Instance instance_;
  mutable std::mutex pool_mutex_;
  std::vector<std::unique_ptr<core::DeploymentPricer>> pool_;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

/// LRU map: scenario fingerprint -> shared Session.
class SessionCache {
 public:
  /// `capacity` >= 1: the number of sessions kept resident.
  explicit SessionCache(std::size_t capacity);

  /// Returns the session for `scenario`, building (and caching) it on a
  /// miss.  `*was_hit` (optional) reports whether this call found a cached
  /// or in-flight session.  A failed build (infeasible scenario) is erased
  /// before the exception propagates, so a later retry builds afresh.
  std::shared_ptr<Session> acquire(const Scenario& scenario, bool* was_hit = nullptr);

  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }
  CacheStats stats() const;

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<Session>> session;
    std::list<std::uint64_t>::iterator lru;  ///< position in lru_ (front = hottest)
    /// Distinguishes this insertion from any later re-insert of the same
    /// fingerprint, so a failed builder only erases its own entry.
    std::uint64_t generation = 0;
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;
  std::uint64_t next_generation_ = 0;
  CacheStats stats_;
};

}  // namespace wrsn::svc
