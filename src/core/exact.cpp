#include "core/exact.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/idb.hpp"
#include "core/pricer.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace wrsn::core {

std::uint64_t composition_count(int total_nodes, int num_posts) {
  // C(M-1, N-1) with saturation.
  if (num_posts <= 0 || total_nodes < num_posts) return 0;
  const std::uint64_t n = static_cast<std::uint64_t>(total_nodes - 1);
  const std::uint64_t k0 = static_cast<std::uint64_t>(num_posts - 1);
  const std::uint64_t k = std::min(k0, n - k0);
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    // result *= (n - k + i) / i, with overflow saturation.
    const std::uint64_t numerator = n - k + i;
    if (result > std::numeric_limits<std::uint64_t>::max() / numerator) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    result = result * numerator / i;
  }
  return result;
}

double deployment_relaxation_bound(const Instance& instance) {
  const int generous = instance.num_nodes() - (instance.num_posts() - 1);
  const std::vector<int> optimistic(static_cast<std::size_t>(instance.num_posts()), generous);
  return optimal_cost_for_deployment(instance, optimistic);
}

namespace {

/// The library-wide FP-tolerance contract (docs/performance.md): pricer
/// repairs match a fresh Dijkstra up to this relative summation-order error.
constexpr double kRelTol = 1e-9;

int effective_cap(int max_per_post) {
  return max_per_post > 0 ? max_per_post : std::numeric_limits<int>::max();
}

/// One subtree of the search: posts [0, prefix.size()) fixed, the rest open.
struct FrontierTask {
  std::vector<int> prefix;
  int remaining = 0;   ///< node budget left for the open posts
  double bound = 0.0;  ///< admissible subtree lower bound (generation-time)
};

/// Number of feasible frontier prefixes of length `depth`, saturating at
/// `limit` (the auto split-depth search only needs "enough or not").
std::uint64_t count_prefixes(int post, int remaining, int n, int cap, int depth,
                             std::uint64_t limit) {
  if (post == depth) return 1;
  const int undecided_after = n - post - 1;
  const int hi = std::min(cap, remaining - undecided_after);
  if (hi < 1) return 0;
  std::uint64_t total = 0;
  for (int take = hi; take >= 1; --take) {
    total += count_prefixes(post + 1, remaining - take, n, cap, depth, limit);
    if (total >= limit) return total;
  }
  return total;
}

/// Frontier depth: as requested (clamped to [1, N-1]), or grown until the
/// decomposition yields ~8 tasks per worker (capped so the task array stays
/// small).  N == 1 degenerates to a single root task.
int choose_split_depth(int n, int m, int cap, int workers, int requested) {
  if (n <= 1) return 0;
  if (requested > 0) return std::min(requested, n - 1);
  const std::uint64_t target =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(workers) * 8, 4096);
  int depth = 1;
  while (depth < n - 1 && count_prefixes(0, m, n, cap, depth, target) < target) {
    ++depth;
  }
  return depth;
}

/// Commits adds or removes at `post` until the pricer's deployment holds
/// `target` nodes there.
void set_count(DeploymentPricer& pricer, int post, int target) {
  while (pricer.deployment()[static_cast<std::size_t>(post)] < target) pricer.add_node(post);
  while (pricer.deployment()[static_cast<std::size_t>(post)] > target) pricer.remove_node(post);
}

/// Enumerates frontier prefixes in serial DFS order (descending take per
/// level, the order the one-worker search visits them), pricing each
/// complete prefix's admissible subtree bound incrementally: adjacent
/// prefixes differ in a suffix, so each bound is a cheap pricer repair away
/// from its predecessor, not a fresh Dijkstra.
struct TaskGenerator {
  const Instance& instance;
  const ExactOptions& options;
  DeploymentPricer& pricer;
  int depth;
  std::vector<std::pair<int, int>> additions;
  std::vector<FrontierTask> tasks;

  void descend(int post, int remaining) {
    const int n = instance.num_posts();
    const int cap = effective_cap(options.max_per_post);
    if (post == depth) {
      FrontierTask task;
      task.prefix.assign(pricer.deployment().begin(), pricer.deployment().begin() + depth);
      task.remaining = remaining;
      // Admissible bound for the whole subtree: grant every open post the
      // most any single post could still take (cost strictly decreases in
      // each m_i).  This is exactly the bound the in-task search would
      // compute at its root, so anytime certificates and task-level prunes
      // agree with the per-node ones.
      const int undecided_after = n - depth - 1;
      const int hi = std::min(cap, remaining - undecided_after);
      additions.clear();
      for (int i = depth; i < n; ++i) additions.emplace_back(i, hi - 1);
      task.bound = pricer.cost_with_added_nodes(additions);
      tasks.push_back(std::move(task));
      return;
    }
    const int undecided_after = n - post - 1;
    const int hi = std::min(cap, remaining - undecided_after);
    if (hi < 1) return;  // infeasible branch (cap too tight)
    for (int take = hi; take >= 1; --take) {
      set_count(pricer, post, take);
      descend(post + 1, remaining - take);
    }
    set_count(pricer, post, 1);
  }
};

/// State shared by all search workers.  The incumbent is ordered by
/// (canonical cost, lexicographic deployment): canonical means re-priced
/// with a deployment-only fresh Dijkstra, so the comparison is independent
/// of any worker's pricer repair history -- the key to schedule-independent
/// results (docs/performance.md has the full argument).
struct SharedSearch {
  const Instance& instance;
  const ExactOptions& options;
  int n;
  int cap;
  int workers;
  double root_lb = 0.0;
  double deadline_s = 0.0;  ///< <= 0: closed run, the clock is never read
  std::vector<FrontierTask> tasks;

  // Work-stealing frontier: worker w owns the contiguous slice
  // [slice_head[w], slice_tail[w]) of the task array; owners pop the front,
  // thieves pop the back.  One coarse mutex guards every slice -- pops are
  // per-subtree, far too rare to contend.
  std::vector<int> slice_head;
  std::vector<int> slice_tail;
  std::mutex slice_mutex;
  std::unique_ptr<std::atomic<char>[]> task_done;

  std::atomic<std::uint64_t> evaluations{0};
  std::atomic<std::uint64_t> pruned{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> shared_prunes{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> aborted{false};

  std::mutex best_mutex;
  std::vector<int> best;                    // guarded by best_mutex
  double best_cost = graph::kInfinity;      // guarded by best_mutex
  double published_lb = 0.0;                // guarded by best_mutex
  double initial_best = graph::kInfinity;   // warm-start cost (read-only)
  std::atomic<double> best_atomic{graph::kInfinity};  // prune-read mirror

  util::Timer timer;

  SharedSearch(const Instance& inst, const ExactOptions& opts, int num_workers)
      : instance(inst),
        options(opts),
        n(inst.num_posts()),
        cap(effective_cap(opts.max_per_post)),
        workers(num_workers) {}

  void init_slices() {
    const std::int64_t count = static_cast<std::int64_t>(tasks.size());
    slice_head.resize(static_cast<std::size_t>(workers));
    slice_tail.resize(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      slice_head[static_cast<std::size_t>(w)] =
          static_cast<int>(util::ThreadPool::chunk_begin(count, workers, w));
      slice_tail[static_cast<std::size_t>(w)] =
          static_cast<int>(util::ThreadPool::chunk_begin(count, workers, w + 1));
    }
    task_done = std::make_unique<std::atomic<char>[]>(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      task_done[i].store(0, std::memory_order_relaxed);
    }
  }

  /// Next task for worker w: own slice front first, else steal the back of
  /// the first non-empty victim slice (round-robin from w+1); -1 = drained.
  int acquire(int w) {
    std::lock_guard<std::mutex> lock(slice_mutex);
    if (slice_head[static_cast<std::size_t>(w)] < slice_tail[static_cast<std::size_t>(w)]) {
      return slice_head[static_cast<std::size_t>(w)]++;
    }
    for (int step = 1; step < workers; ++step) {
      const int victim = (w + step) % workers;
      if (slice_head[static_cast<std::size_t>(victim)] <
          slice_tail[static_cast<std::size_t>(victim)]) {
        steals.fetch_add(1, std::memory_order_relaxed);
        return --slice_tail[static_cast<std::size_t>(victim)];
      }
    }
    return -1;
  }

  void mark_done(int task_index) {
    task_done[static_cast<std::size_t>(task_index)].store(1, std::memory_order_relaxed);
  }

  /// Global optimality certificate right now: min over unfinished subtree
  /// bounds, clamped by the incumbent (finished subtrees' leaves are all
  /// accounted for in it).  Published monotonically under best_mutex so the
  /// heartbeat stream's lower bound never regresses.
  double current_lb_locked() {
    double lb = graph::kInfinity;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (task_done[i].load(std::memory_order_relaxed) == 0) {
        lb = std::min(lb, tasks[i].bound);
      }
    }
    if (best_cost < graph::kInfinity) lb = std::min(lb, best_cost);
    if (lb == graph::kInfinity) lb = root_lb;
    lb = std::max(lb, root_lb);
    published_lb = std::max(published_lb, lb);
    return published_lb;
  }

  /// Offers a heartbeat (caller holds best_mutex).  Purely observational:
  /// no branching decision depends on the sink.
  void emit_progress_locked(bool final_event) {
    obs::ProgressSink* progress = options.progress;
    if (progress == nullptr) return;
    if (!final_event && !progress->wants("exact")) return;
    obs::ProgressEvent event("exact", final_event);
    const bool have_incumbent = best_cost < graph::kInfinity;
    event.add("incumbent", have_incumbent ? best_cost : 0.0);
    const double lb = current_lb_locked();
    event.add("lower_bound", lb);
    if (have_incumbent && best_cost > 0.0) {
      event.add("gap", (best_cost - lb) / best_cost);
      event.add("gap_ratio", lb > 0.0 ? std::max(1.0, best_cost / lb) : 1.0);
    }
    const double evals = static_cast<double>(evaluations.load(std::memory_order_relaxed));
    event.add("nodes_explored", evals);
    event.add("pruned", static_cast<double>(pruned.load(std::memory_order_relaxed)));
    event.add("subtrees", static_cast<double>(tasks.size()));
    event.add("steals", static_cast<double>(steals.load(std::memory_order_relaxed)));
    const double elapsed_s = timer.elapsed_seconds();
    if (elapsed_s > 0.0) event.add("explore_rate", evals / elapsed_s);
    progress->emit(event);
  }
};

/// One worker's search: a private pricer replayed to each task's prefix
/// (the committed-sequence replay parallel local search uses), then the
/// serial DFS over the open posts, pruning against the shared incumbent.
struct SearchWorker {
  SharedSearch& shared;
  std::optional<DeploymentPricer> pricer;
  std::vector<std::pair<int, int>> additions;
  std::uint64_t local_evals = 0;
  double self_best = graph::kInfinity;  ///< last canonical cost we published

  explicit SearchWorker(SharedSearch& state) : shared(state) {}

  void ensure_pricer() {
    if (pricer.has_value()) return;
    pricer.emplace(shared.instance, std::vector<int>(static_cast<std::size_t>(shared.n), 1));
  }

  /// Reads the clock only on anytime runs; sets the stop flag on expiry.
  bool expired() {
    if (shared.deadline_s > 0.0 &&
        shared.timer.elapsed_seconds() >= shared.deadline_s) {
      shared.aborted.store(true, std::memory_order_relaxed);
      shared.stop.store(true, std::memory_order_relaxed);
      return true;
    }
    return shared.stop.load(std::memory_order_relaxed);
  }

  void leaf() {
    const double cost = pricer->base_cost();
    const std::uint64_t total =
        shared.evaluations.fetch_add(1, std::memory_order_relaxed) + 1;
    ++local_evals;
    if (shared.options.max_evaluations > 0 && total >= shared.options.max_evaluations) {
      shared.aborted.store(true, std::memory_order_relaxed);
      shared.stop.store(true, std::memory_order_relaxed);
    }
    const double best_now = shared.best_atomic.load(std::memory_order_relaxed);
    if (cost <= best_now * (1.0 + kRelTol)) {
      // Candidate incumbent.  The pricer's cost is history-dependent in the
      // last bits, so re-price canonically (deployment-only Dijkstra) and
      // let (canonical cost, lexicographic deployment) pick the winner:
      // both are pure functions of the deployment, so the final incumbent
      // is the same for every schedule and thread count.
      const std::vector<int>& current = pricer->deployment();
      const double canonical = optimal_cost_for_deployment(shared.instance, current);
      std::lock_guard<std::mutex> lock(shared.best_mutex);
      if (canonical < shared.best_cost ||
          (canonical == shared.best_cost &&
           std::lexicographical_compare(current.begin(), current.end(),
                                        shared.best.begin(), shared.best.end()))) {
        shared.best_cost = canonical;
        shared.best = current;
        shared.best_atomic.store(canonical, std::memory_order_relaxed);
        self_best = canonical;
        shared.emit_progress_locked(false);  // incumbent improved
      }
    } else if ((local_evals & 4095) == 0) {
      std::lock_guard<std::mutex> lock(shared.best_mutex);
      shared.emit_progress_locked(false);  // periodic liveness while grinding
    }
    if ((local_evals & 127) == 0) (void)expired();
  }

  /// True when the subtree bound clears the shared incumbent by the FP
  /// tolerance.  The margin keeps schedules interchangeable: a subtree one
  /// schedule prunes must contain nothing any other schedule's weaker
  /// incumbent would have turned into a better final answer.
  bool prunable(double bound, double best_now) const {
    return best_now < graph::kInfinity && bound >= best_now * (1.0 + kRelTol);
  }

  void count_prune(double best_now) {
    shared.pruned.fetch_add(1, std::memory_order_relaxed);
    if (best_now != self_best && best_now != shared.initial_best) {
      shared.shared_prunes.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void dfs(int post, int remaining) {
    if (shared.stop.load(std::memory_order_relaxed)) return;
    const int n = shared.n;
    if (post == n) {
      // remaining == 0 guaranteed by the per-level bounds below.
      leaf();
      return;
    }
    const int undecided_after = n - post - 1;
    const int hi = std::min(shared.cap, remaining - undecided_after);
    if (hi < 1) return;  // infeasible branch (cap too tight)
    if (undecided_after == 0) {
      // Last post must absorb the entire remaining budget.
      if (remaining > shared.cap) return;
      set_count(*pricer, post, remaining);
      dfs(post + 1, 0);
      set_count(*pricer, post, 1);
      return;
    }

    // The bound tightens slowly between siblings; checking only every other
    // level keeps its (now cheap) cost amortized further.
    if (shared.options.branch_and_bound && post % 2 == 0) {
      const double best_now = shared.best_atomic.load(std::memory_order_relaxed);
      if (best_now < graph::kInfinity) {
        // Admissible bound: cost is strictly decreasing in each m_i, so give
        // every undecided post (all sitting at 1) the maximum any single
        // post could receive.
        additions.clear();
        for (int i = post; i < n; ++i) additions.emplace_back(i, hi - 1);
        const double bound = pricer->cost_with_added_nodes(additions);
        if (prunable(bound, best_now)) {
          count_prune(best_now);
          return;
        }
      }
      if (shared.deadline_s > 0.0) (void)expired();
    }

    // Descend large-first: concentrating nodes early tends to match the
    // optimum's shape, improving the incumbent quickly.
    for (int take = hi; take >= 1; --take) {
      set_count(*pricer, post, take);
      dfs(post + 1, remaining - take);
      if (shared.stop.load(std::memory_order_relaxed)) break;
    }
    set_count(*pricer, post, 1);
  }

  void run(int w) {
    while (!shared.stop.load(std::memory_order_relaxed)) {
      const int index = shared.acquire(w);
      if (index < 0) break;
      const FrontierTask& task = shared.tasks[static_cast<std::size_t>(index)];
      if (shared.options.branch_and_bound) {
        const double best_now = shared.best_atomic.load(std::memory_order_relaxed);
        if (prunable(task.bound, best_now)) {
          count_prune(best_now);
          shared.mark_done(index);
          continue;
        }
      }
      ensure_pricer();
      const int depth = static_cast<int>(task.prefix.size());
      for (int p = 0; p < depth; ++p) {
        set_count(*pricer, p, task.prefix[static_cast<std::size_t>(p)]);
      }
      for (int p = depth; p < shared.n; ++p) set_count(*pricer, p, 1);
      dfs(depth, task.remaining);
      // An aborted task keeps its bound in the anytime certificate; only a
      // fully explored subtree leaves it.
      if (!shared.stop.load(std::memory_order_relaxed)) shared.mark_done(index);
      if (shared.deadline_s > 0.0 && expired()) break;
    }
  }
};

std::vector<int> capped_balanced_deployment(int num_posts, int num_nodes, int cap) {
  std::vector<int> deployment(static_cast<std::size_t>(num_posts), 1);
  int remaining = num_nodes - num_posts;
  int i = 0;
  while (remaining > 0) {
    if (deployment[static_cast<std::size_t>(i)] < cap) {
      ++deployment[static_cast<std::size_t>(i)];
      --remaining;
    }
    i = (i + 1) % num_posts;
  }
  return deployment;
}

}  // namespace

ExactResult solve_exact(const Instance& instance, const ExactOptions& options) {
  const int n = instance.num_posts();
  const int m = instance.num_nodes();
  if (options.max_per_post > 0 &&
      static_cast<long long>(options.max_per_post) * n < m) {
    throw InfeasibleInstance("max_per_post cap leaves no feasible deployment");
  }

  const int workers = options.threads > 0 ? options.threads
                                          : util::ThreadPool::hardware_threads();

  SharedSearch shared(instance, options, workers);
  shared.deadline_s = options.time_budget_s;
  shared.root_lb = deployment_relaxation_bound(instance);
  shared.published_lb = shared.root_lb;

  // One full Dijkstra at the all-ones root; frontier bounds and every
  // in-search branch decision after this are incremental repairs.
  // (Construction throws InfeasibleInstance when a post cannot reach the
  // base -- previously surfaced at the first leaf.)
  {
    DeploymentPricer generator_pricer(instance, std::vector<int>(static_cast<std::size_t>(n), 1));
    const int depth = choose_split_depth(n, m, shared.cap, workers, options.split_depth);
    TaskGenerator generator{instance, options, generator_pricer, depth, {}, {}};
    generator.descend(0, m);
    shared.tasks = std::move(generator.tasks);
  }
  shared.init_slices();

  if (options.warm_start) {
    std::vector<int> incumbent;
    if (options.max_per_post > 0) {
      incumbent = capped_balanced_deployment(n, m, options.max_per_post);
    } else {
      incumbent = solve_idb(instance, IdbOptions{1, false}).solution.deployment;
    }
    shared.best_cost = optimal_cost_for_deployment(instance, incumbent);
    shared.best = std::move(incumbent);
    shared.best_atomic.store(shared.best_cost, std::memory_order_relaxed);
    shared.initial_best = shared.best_cost;
    std::lock_guard<std::mutex> lock(shared.best_mutex);
    shared.emit_progress_locked(false);  // stream opens with the warm start
  }

  {
    util::ThreadPool pool(workers);
    pool.parallel_for(workers, [&shared](std::int64_t begin, std::int64_t, int) {
      SearchWorker worker(shared);
      worker.run(static_cast<int>(begin));
    });
  }

  const bool aborted = shared.aborted.load(std::memory_order_relaxed);
  double lower_bound = shared.root_lb;
  {
    std::lock_guard<std::mutex> lock(shared.best_mutex);
    lower_bound = shared.current_lb_locked();
    shared.emit_progress_locked(true);
  }

  if (shared.best.empty()) {
    throw InfeasibleInstance("exact search found no feasible deployment");
  }

  static obs::Counter& steals_total = obs::Registry::global().counter("exact/steals");
  static obs::Counter& shared_prunes_total =
      obs::Registry::global().counter("exact/shared_prunes");
  static obs::Counter& subtrees_total = obs::Registry::global().counter("exact/subtrees");
  steals_total.increment(shared.steals.load(std::memory_order_relaxed));
  shared_prunes_total.increment(shared.shared_prunes.load(std::memory_order_relaxed));
  subtrees_total.increment(static_cast<std::uint64_t>(shared.tasks.size()));

  const auto dag = graph::shortest_paths_to_base(instance.graph(), instance.adjacency(),
                                                 RechargingWeight(instance, shared.best));
  ExactResult result{Solution{spt_from_dag(dag), shared.best},
                     0.0,
                     shared.evaluations.load(std::memory_order_relaxed),
                     shared.pruned.load(std::memory_order_relaxed),
                     !aborted,
                     lower_bound,
                     static_cast<std::uint64_t>(shared.tasks.size()),
                     shared.steals.load(std::memory_order_relaxed),
                     shared.shared_prunes.load(std::memory_order_relaxed)};
  result.cost = total_recharging_cost(instance, result.solution);
  return result;
}

}  // namespace wrsn::core
