#include "svc/session_cache.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "svc/planner.hpp"

namespace wrsn::svc {

namespace {

obs::Counter& cache_hits() {
  static obs::Counter& counter = obs::Registry::global().counter("svc/cache_hits");
  return counter;
}
obs::Counter& cache_misses() {
  static obs::Counter& counter = obs::Registry::global().counter("svc/cache_misses");
  return counter;
}
obs::Counter& cache_evictions() {
  static obs::Counter& counter = obs::Registry::global().counter("svc/cache_evictions");
  return counter;
}
obs::Gauge& cache_sessions() {
  static obs::Gauge& gauge = obs::Registry::global().gauge("svc/cache_sessions");
  return gauge;
}

}  // namespace

std::unique_ptr<core::DeploymentPricer> Session::borrow_pricer() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_.empty()) return nullptr;
  std::unique_ptr<core::DeploymentPricer> pricer = std::move(pool_.back());
  pool_.pop_back();
  return pricer;
}

void Session::return_pricer(std::unique_ptr<core::DeploymentPricer> pricer) {
  if (pricer == nullptr) return;
  std::lock_guard<std::mutex> lock(pool_mutex_);
  pool_.push_back(std::move(pricer));
}

std::size_t Session::pricer_pool_size() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_.size();
}

SessionCache::SessionCache(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ < 1) throw std::invalid_argument("SessionCache capacity must be >= 1");
}

std::shared_ptr<Session> SessionCache::acquire(const Scenario& scenario, bool* was_hit) {
  const std::uint64_t fingerprint = scenario.fingerprint();
  std::shared_future<std::shared_ptr<Session>> future;
  std::promise<std::shared_ptr<Session>> promise;
  bool build_here = false;
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(fingerprint);
    if (it != entries_.end()) {
      ++stats_.hits;
      cache_hits().increment();
      if (was_hit != nullptr) *was_hit = true;
      // Touch: move to the LRU front.
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      future = it->second.session;
    } else {
      ++stats_.misses;
      cache_misses().increment();
      if (was_hit != nullptr) *was_hit = false;
      build_here = true;
      future = promise.get_future().share();
      generation = ++next_generation_;
      lru_.push_front(fingerprint);
      entries_.emplace(fingerprint, Entry{future, lru_.begin(), generation});
      // Evict the coldest entry beyond capacity.  Holders of the evicted
      // shared_ptr (in-flight requests, still-building futures) keep it
      // alive; the cache just forgets it.
      while (entries_.size() > capacity_) {
        const std::uint64_t victim = lru_.back();
        lru_.pop_back();
        entries_.erase(victim);
        ++stats_.evictions;
        cache_evictions().increment();
      }
      cache_sessions().set(static_cast<double>(entries_.size()));
    }
  }
  if (!build_here) return future.get();

  // Build outside the lock so other fingerprints proceed; same-fingerprint
  // acquires block on the shared_future above.
  try {
    auto session = std::make_shared<Session>(scenario, build_instance(scenario));
    promise.set_value(session);
    return session;
  } catch (...) {
    promise.set_exception(std::current_exception());
    // Erase the poisoned entry so a retry of the same scenario rebuilds
    // instead of rethrowing the cached failure.  Only erase our own
    // generation: eviction may already have dropped it and another thread
    // re-inserted a healthy entry under the same fingerprint.
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(fingerprint);
    if (it != entries_.end() && it->second.generation == generation) {
      lru_.erase(it->second.lru);
      entries_.erase(it);
      cache_sessions().set(static_cast<double>(entries_.size()));
    }
    throw;
  }
}

std::size_t SessionCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

CacheStats SessionCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace wrsn::svc
