#include "core/local_search.hpp"

#include "core/pricer.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <utility>

namespace wrsn::core {
namespace {

// Cursor over the serial scan order of single-node moves a -> b.  `in_inner`
// records that the spare check for `a` already passed: the serial loop tests
// m_a > 1 only on entry to the inner loop, so after an accepted move the scan
// may legitimately sit inside an inner loop whose entry test would now fail.
struct MoveCursor {
  int a = 0;
  int b = 0;
  bool in_inner = false;
};

// Positions `c` on the next candidate under `deployment`; false = pass over.
bool seek(const std::vector<int>& deployment, int n, MoveCursor& c) {
  while (c.a < n) {
    if (!c.in_inner) {
      if (deployment[static_cast<std::size_t>(c.a)] <= 1) {
        ++c.a;
        continue;
      }
      c.in_inner = true;
      c.b = 0;
    }
    if (c.b == c.a) ++c.b;
    if (c.b >= n) {
      ++c.a;
      c.in_inner = false;
      continue;
    }
    return true;
  }
  return false;
}

// Steps past the candidate `c` points at, after it was consumed.
void advance(const std::vector<int>& deployment, MoveCursor& c, bool accepted) {
  if (accepted && deployment[static_cast<std::size_t>(c.a)] <= 1) {
    // The donor ran out of spares: the serial loop breaks to the next a.
    ++c.a;
    c.in_inner = false;
  } else {
    ++c.b;
  }
}

struct Candidate {
  int a = 0;
  int b = 0;
  double cost = 0.0;
};

// One per worker: pricing buffers plus a private deployment copy (kFull) or
// a private dynamic pricer (kIncremental), so the parallel batch touches no
// shared mutable state.
struct EvalContext {
  CostEvalScratch scratch;
  std::vector<int> deployment;
  std::optional<DeploymentPricer> pricer;
  /// Committed moves already replayed into `pricer`.
  std::size_t synced = 0;
};

// Prices candidates [begin, end) of `batch` against `base` into their `cost`
// fields.  Each candidate differs from `base` by one move; apply, price, undo.
void price_chunk_full(const Instance& instance, const std::vector<int>& base,
                      std::vector<Candidate>& batch, std::int64_t begin, std::int64_t end,
                      EvalContext& ctx) {
  ctx.deployment = base;
  for (std::int64_t i = begin; i < end; ++i) {
    Candidate& cand = batch[static_cast<std::size_t>(i)];
    --ctx.deployment[static_cast<std::size_t>(cand.a)];
    ++ctx.deployment[static_cast<std::size_t>(cand.b)];
    cand.cost = optimal_cost_for_deployment(instance, ctx.deployment, ctx.scratch);
    ++ctx.deployment[static_cast<std::size_t>(cand.a)];
    --ctx.deployment[static_cast<std::size_t>(cand.b)];
  }
}

// Incremental variant: each worker owns a DeploymentPricer built from the
// start deployment and synced by replaying the committed-move log, so its
// state is a pure function of (start, committed) -- bitwise identical across
// workers and thread counts.  Candidates are then priced by dynamic repair.
void price_chunk_incremental(const Instance& instance, const std::vector<int>& start,
                             const std::vector<std::pair<int, int>>& committed,
                             std::vector<Candidate>& batch, std::int64_t begin, std::int64_t end,
                             EvalContext& ctx) {
  static obs::Counter& incremental_evals =
      obs::Registry::global().counter("ls/incremental_evals");
  if (!ctx.pricer.has_value()) {
    ctx.pricer.emplace(instance, start);
    ctx.synced = 0;
  }
  while (ctx.synced < committed.size()) {
    const auto& [a, b] = committed[ctx.synced];
    ctx.pricer->move_node(a, b);
    ++ctx.synced;
  }
  for (std::int64_t i = begin; i < end; ++i) {
    Candidate& cand = batch[static_cast<std::size_t>(i)];
    cand.cost = ctx.pricer->cost_with_moved_node(cand.a, cand.b);
  }
  incremental_evals.increment(static_cast<std::uint64_t>(end - begin));
}

}  // namespace

LocalSearchResult refine_solution(const Instance& instance, const Solution& start,
                                  const LocalSearchOptions& options) {
  if (!is_valid_solution(instance, start)) {
    throw std::invalid_argument("local search requires a valid starting solution");
  }
  if (options.max_passes < 1) throw std::invalid_argument("max_passes must be >= 1");
  if (options.threads < 0) throw std::invalid_argument("threads must be >= 0");
  WRSN_TRACE_SPAN("ls/refine");

  const int n = instance.num_posts();
  const int threads =
      options.threads == 0 ? util::ThreadPool::hardware_threads() : options.threads;
  std::vector<int> deployment = start.deployment;
  const std::vector<int>& start_deployment = start.deployment;
  const bool incremental = options.pricing == MovePricing::kIncremental;
  // Committed moves in acceptance order; worker pricers replay this log to
  // sync (appends happen only between batches, on the calling thread).
  std::vector<std::pair<int, int>> committed;

  LocalSearchResult result{start, 0.0, 0.0, 0, 0, 0, 0, threads};

  std::vector<EvalContext> contexts(static_cast<std::size_t>(threads));
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);

  // Price the start with its own routing re-optimized; the caller's tree
  // may already be optimal for the deployment (IDB) or not (RFH Phase II's
  // tie-breaking) -- refinement includes re-routing either way.
  double current = optimal_cost_for_deployment(instance, deployment, contexts[0].scratch);
  ++result.evaluations;
  result.initial_cost = total_recharging_cost(instance, start);
  current = std::min(current, result.initial_cost);

  auto price_batch = [&](std::vector<Candidate>& batch) {
    const auto count = static_cast<std::int64_t>(batch.size());
    const auto chunk = [&](std::int64_t begin, std::int64_t end, int worker) {
      EvalContext& ctx = contexts[static_cast<std::size_t>(worker)];
      if (incremental) {
        price_chunk_incremental(instance, start_deployment, committed, batch, begin, end, ctx);
      } else {
        price_chunk_full(instance, deployment, batch, begin, end, ctx);
      }
    };
    if (pool.has_value() && count > 1) {
      pool->parallel_for(count, chunk);
    } else {
      chunk(0, count, 0);
    }
  };

  const bool best_mode = options.strategy == LocalSearchStrategy::kBestImprovement;
  std::vector<Candidate> batch;

  // Heartbeats under source "ls": always from this (calling) thread, never
  // a branching input, so results stay bit-identical with or without it.
  const auto emit_progress = [&](bool final_event) {
    if (options.progress == nullptr) return;
    if (!final_event && !options.progress->wants("ls")) return;
    obs::ProgressEvent event("ls", final_event);
    event.add("best_cost", current);
    event.add("moves_tried", static_cast<double>(result.evaluations));
    event.add("moves_accepted", result.moves_applied);
    event.add("passes", result.passes);
    const auto priced = static_cast<double>(result.evaluations + result.wasted_evaluations);
    event.add("incremental_evals", incremental ? priced : 0.0);
    event.add("full_evals", incremental ? 0.0 : priced);
    options.progress->emit(event);
  };

  for (int pass = 0; pass < options.max_passes; ++pass) {
    WRSN_TRACE_SPAN("ls/pass");
    ++result.passes;
    bool improved = false;
    const std::uint64_t pass_start_evaluations = result.evaluations;
    const int pass_start_moves = result.moves_applied;

    if (best_mode) {
      // Whole-neighborhood sweep, then one move.  The scan replaces the
      // incumbent only on strict improvement, so ties resolve to the
      // smallest (a, b) without extra bookkeeping.
      batch.clear();
      MoveCursor sweep;
      while (seek(deployment, n, sweep)) {
        batch.push_back({sweep.a, sweep.b, 0.0});
        advance(deployment, sweep, false);
      }
      price_batch(batch);
      result.evaluations += batch.size();
      const double threshold = current * (1.0 - options.min_relative_gain);
      int best = -1;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].cost < threshold &&
            (best < 0 || batch[i].cost < batch[static_cast<std::size_t>(best)].cost)) {
          best = static_cast<int>(i);
        }
      }
      if (options.sink != nullptr) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          options.sink->on_local_search_move({pass, batch[i].a, batch[i].b, current,
                                              batch[i].cost, static_cast<int>(i) == best});
        }
      }
      if (best >= 0) {
        const Candidate& move = batch[static_cast<std::size_t>(best)];
        --deployment[static_cast<std::size_t>(move.a)];
        ++deployment[static_cast<std::size_t>(move.b)];
        committed.emplace_back(move.a, move.b);
        current = move.cost;
        ++result.moves_applied;
        improved = true;
      }
    } else {
      // Speculative first-improvement.  Rejected candidates leave the state
      // untouched, so the next `batch_target` candidates of the serial scan
      // are known in advance under the assume-all-rejected cursor `probe`.
      // Price them together, then consume in order up to and including the
      // first accept; everything after it is discarded speculation.
      MoveCursor cursor;
      const auto base_target = static_cast<std::size_t>(threads);
      std::size_t batch_target = base_target;
      // Serial runs never speculate (batch stays 1): the scan is then the
      // historical loop verbatim, with zero wasted pricings.
      const std::size_t batch_cap = threads > 1 ? base_target * 8 : 1;
      for (;;) {
        batch.clear();
        MoveCursor probe = cursor;
        while (batch.size() < batch_target && seek(deployment, n, probe)) {
          batch.push_back({probe.a, probe.b, 0.0});
          advance(deployment, probe, false);
        }
        if (batch.empty()) break;
        price_batch(batch);
        const double threshold = current * (1.0 - options.min_relative_gain);
        bool accepted_any = false;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const Candidate& cand = batch[i];
          ++result.evaluations;
          const bool accepted = cand.cost < threshold;
          if (options.sink != nullptr) {
            options.sink->on_local_search_move(
                {pass, cand.a, cand.b, current, cand.cost, accepted});
          }
          seek(deployment, n, cursor);  // lands exactly on (cand.a, cand.b)
          if (accepted) {
            --deployment[static_cast<std::size_t>(cand.a)];
            ++deployment[static_cast<std::size_t>(cand.b)];
            committed.emplace_back(cand.a, cand.b);
            current = cand.cost;
            ++result.moves_applied;
            improved = true;
            advance(deployment, cursor, true);
            result.wasted_evaluations += batch.size() - i - 1;
            accepted_any = true;
            break;
          }
          advance(deployment, cursor, false);
        }
        emit_progress(false);  // liveness inside a long pass
        if (accepted_any) {
          batch_target = base_target;
        } else {
          if (batch.size() < batch_target) break;  // scan order exhausted
          // A full batch of rejections: speculate further ahead next round.
          batch_target = std::min(batch_target * 2, batch_cap);
        }
      }
    }

    if (options.sink != nullptr) {
      options.sink->on_local_search_pass({pass,
                                          result.evaluations - pass_start_evaluations,
                                          result.moves_applied - pass_start_moves, current});
    }
    emit_progress(false);
    if (!improved) break;
  }

  const RechargingWeight weight(instance, deployment);
  const auto dag =
      graph::shortest_paths_to_base(instance.graph(), instance.adjacency(), weight);
  Solution refined{spt_from_dag(dag), deployment};
  const double refined_cost = total_recharging_cost(instance, refined);
  if (refined_cost <= result.initial_cost) {
    result.solution = std::move(refined);
    result.cost = refined_cost;
  } else {
    // Numerically impossible, but never hand back something worse.
    result.solution = start;
    result.cost = result.initial_cost;
  }
  if (options.sink != nullptr) {
    options.sink->on_local_search_run({threads, best_mode, result.evaluations,
                                       result.wasted_evaluations, result.passes,
                                       result.moves_applied});
  }
  current = result.cost;
  emit_progress(true);
  return result;
}

}  // namespace wrsn::core
