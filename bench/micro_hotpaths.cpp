// Microbenchmarks for the solver hot paths (Google Benchmark).
//
// Measures the layers of one deployment pricing separately -- edge-cost
// lookup, single-sink Dijkstra, whole-deployment pricing, local search --
// and pits each against a faithful inline replica of the pre-cache
// implementation (std::function weight, per-call reachability probing,
// full DAG extraction), so the reported speedups track this library's real
// history rather than a strawman.  docs/performance.md interprets the
// numbers; scripts/perf_baseline.sh refreshes BENCH_hotpaths.json.
//
// Flags (before the --benchmark_* ones): --seed, --scale=default|paper
// (paper doubles the pricing field to 200 posts), --threads=<n> for the
// parallel local-search runs (0 = all cores), --runs=<n> as shorthand for
// --benchmark_repetitions.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <cmath>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/cost.hpp"
#include "core/local_search.hpp"
#include "core/pricer.hpp"
#include "core/rfh.hpp"
#include "graph/dijkstra.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace wrsn;

std::int64_t g_seed = 42;
int g_posts = 100;
int g_threads = 0;  // 0 = all hardware threads

// --- Pre-PR replicas -------------------------------------------------------
// Copies of the historical implementations, kept verbatim so the cached /
// inlined paths are measured against what actually shipped before them.

// Historical edge cost: level lookup + radio table, no dense cache.
double legacy_tx_energy(const core::Instance& inst, int from, int to) {
  return inst.radio().tx_energy(inst.graph().min_level(from, to));
}

// Historical type-erased weight of the directed edge from -> to.
using LegacyWeight = std::function<double(int from, int to)>;

// Historical charging-aware weight: std::function with captured state.
LegacyWeight legacy_charging_weight(const core::Instance& instance,
                                        const std::vector<int>& deployment) {
  const int bs = instance.graph().base_station();
  std::vector<double> inv_eff(deployment.size());
  for (std::size_t i = 0; i < deployment.size(); ++i) {
    inv_eff[i] = 1.0 / instance.charging().efficiency(deployment[i]);
  }
  return [&instance, inv_eff = std::move(inv_eff), bs](int from, int to) {
    double w = legacy_tx_energy(instance, from, to) * inv_eff[static_cast<std::size_t>(from)];
    if (to != bs) w += instance.rx_energy() * inv_eff[static_cast<std::size_t>(to)];
    return w;
  };
}

// Historical Dijkstra: priority_queue, per-relaxation reachable() probing,
// tight-predecessor extraction over all vertex pairs.
graph::ShortestPathDag legacy_shortest_paths_to_base(const graph::ReachGraph& graph,
                                                     const LegacyWeight& weight) {
  const int n = graph.num_vertices();
  const int bs = graph.base_station();
  graph::ShortestPathDag dag;
  dag.base_station = bs;
  dag.dist.assign(static_cast<std::size_t>(n), graph::kInfinity);
  dag.parents.assign(static_cast<std::size_t>(n), {});
  dag.dist[static_cast<std::size_t>(bs)] = 0.0;

  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.emplace(0.0, bs);
  std::vector<char> settled(static_cast<std::size_t>(n), 0);

  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (settled[static_cast<std::size_t>(u)]) continue;
    settled[static_cast<std::size_t>(u)] = 1;
    for (int v = 0; v < n; ++v) {
      if (v == u || settled[static_cast<std::size_t>(v)]) continue;
      if (!graph.reachable(v, u)) continue;
      const double w = weight(v, u);
      const double candidate = d + w;
      if (candidate < dag.dist[static_cast<std::size_t>(v)]) {
        dag.dist[static_cast<std::size_t>(v)] = candidate;
        heap.emplace(candidate, v);
      }
    }
  }

  dag.all_posts_reachable = true;
  for (int v = 0; v < n; ++v) {
    if (v == bs) continue;
    if (!std::isfinite(dag.dist[static_cast<std::size_t>(v)])) {
      dag.all_posts_reachable = false;
      continue;
    }
    for (int u = 0; u < n; ++u) {
      if (u == v || !graph.reachable(v, u)) continue;
      if (!std::isfinite(dag.dist[static_cast<std::size_t>(u)])) continue;
      const double w = weight(v, u);
      const double via = dag.dist[static_cast<std::size_t>(u)] + w;
      const double scale =
          std::max({std::fabs(dag.dist[static_cast<std::size_t>(v)]), std::fabs(via), 1e-300});
      if (std::fabs(dag.dist[static_cast<std::size_t>(v)] - via) <= graph::kRelTieEps * scale) {
        dag.parents[static_cast<std::size_t>(v)].push_back(u);
      }
    }
  }
  return dag;
}

// Historical deployment pricing: fresh weight + full DAG per candidate.
double legacy_optimal_cost_for_deployment(const core::Instance& instance,
                                          const std::vector<int>& deployment) {
  const auto dag = legacy_shortest_paths_to_base(instance.graph(),
                                                 legacy_charging_weight(instance, deployment));
  if (!dag.all_posts_reachable) return graph::kInfinity;
  double total = 0.0;
  for (int p = 0; p < instance.num_posts(); ++p) {
    total += instance.report_rate(p) * dag.dist[static_cast<std::size_t>(p)];
    total += instance.charging().charger_energy_for(instance.static_energy(p),
                                                    deployment[static_cast<std::size_t>(p)]);
  }
  return total;
}

// --- Fixtures --------------------------------------------------------------

// Density matched to the repo's test fields (~14 posts on a 160 m square).
double side_for(int posts) { return 160.0 * std::sqrt(static_cast<double>(posts) / 14.0); }

const core::Instance& pricing_instance() {
  static const core::Instance inst = [] {
    util::Rng rng(static_cast<std::uint64_t>(g_seed));
    return bench::make_paper_instance(g_posts, 3 * g_posts, side_for(g_posts), 3, rng);
  }();
  return inst;
}

const std::vector<int>& pricing_deployment() {
  static const std::vector<int> deployment(
      static_cast<std::size_t>(pricing_instance().num_posts()), 3);
  return deployment;
}

// Per-size instances for the move-pricing scaling benchmarks (N = 50/100/300
// via ->Arg), cached so repetitions reuse one field.
const core::Instance& move_instance(int posts) {
  static std::map<int, core::Instance> cache;
  auto it = cache.find(posts);
  if (it == cache.end()) {
    util::Rng rng(static_cast<std::uint64_t>(g_seed) + static_cast<std::uint64_t>(posts));
    it = cache
             .emplace(posts,
                      bench::make_paper_instance(posts, 3 * posts, side_for(posts), 3, rng))
             .first;
  }
  return it->second;
}

// Deterministic candidate-move sequence over a deployment of 3 nodes per
// post: every donor always has spares, and the (a, b) pairs sweep varied
// distances so both pricing paths see representative repairs.
struct MoveSequence {
  int n;
  std::size_t i = 0;
  std::pair<int, int> next() {
    const int a = static_cast<int>(i % static_cast<std::size_t>(n));
    const int off = 1 + static_cast<int>(i % static_cast<std::size_t>(n - 1));
    ++i;
    return {a, (a + off) % n};
  }
};

// Smaller field for the end-to-end local-search runs (a single refine prices
// thousands of deployments).
const core::Instance& ls_instance() {
  static const core::Instance inst = [] {
    util::Rng rng(static_cast<std::uint64_t>(g_seed) + 1);
    return bench::make_paper_instance(30, 90, side_for(30), 3, rng);
  }();
  return inst;
}

const core::Solution& ls_start() {
  static const core::Solution start = core::solve_rfh(ls_instance()).solution;
  return start;
}

// --- Sparse-scale fixtures -------------------------------------------------

// Process-wide resident-set high-water mark.  Monotonic across the whole
// run, so only the largest benchmark's row is a tight bound; smaller rows
// report "peak so far".  Linux reports ru_maxrss in kilobytes.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Deterministic square grid, 40 m spacing, three 25 m power levels: every
// post reaches its <= 75 m neighbors (degree ~8 in the interior).  Columns
// are chosen so the post count lands at ~N (cols^2 minus the post that
// coincides with the base-station corner).  Storage is pinned to sparse so
// the N=1000 row measures the same CSR builder as the larger ones (1023
// posts would otherwise sit just under kAutoSparseThreshold and take the
// dense path).
core::Instance make_sparse_instance(int posts) {
  const int cols = static_cast<int>(std::lround(std::sqrt(static_cast<double>(posts) + 1.0)));
  const double side = 40.0 * (cols - 1);
  const geom::Field field = geom::grid_field(side, side, cols, cols);
  const auto radio = energy::RadioModel::uniform_levels(3, 25.0);
  auto graph = graph::ReachGraph::from_field(field, radio, graph::ReachGraph::Storage::kSparse);
  const int n = graph.num_posts();
  return core::Instance::abstract(std::move(graph), radio, energy::ChargingModel::linear(0.01),
                                  2 * n);
}

const core::Instance& sparse_instance(int posts) {
  static std::map<int, core::Instance> cache;
  auto it = cache.find(posts);
  if (it == cache.end()) it = cache.emplace(posts, make_sparse_instance(posts)).first;
  return it->second;
}

// --- Benchmarks ------------------------------------------------------------

void BM_edge_cost_uncached(benchmark::State& state) {
  const auto& inst = pricing_instance();
  const auto& adj = inst.adjacency();
  const int n = inst.graph().num_vertices();
  for (auto _ : state) {
    double sum = 0.0;
    for (int v = 0; v < n; ++v) {
      for (int u : adj.out(v)) sum += legacy_tx_energy(inst, v, u);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_edge_cost_uncached);

void BM_edge_cost_cached(benchmark::State& state) {
  const auto& inst = pricing_instance();
  const auto& adj = inst.adjacency();
  const int n = inst.graph().num_vertices();
  for (auto _ : state) {
    double sum = 0.0;
    for (int v = 0; v < n; ++v) {
      const double* row = inst.tx_cost_row(v);
      for (int u : adj.out(v)) sum += row[u];
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_edge_cost_cached);

void BM_dijkstra_legacy(benchmark::State& state) {
  const auto& inst = pricing_instance();
  const auto weight = legacy_charging_weight(inst, pricing_deployment());
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy_shortest_paths_to_base(inst.graph(), weight));
  }
}
BENCHMARK(BM_dijkstra_legacy);

// A lambda forwarding to the weight hides its bounds(), so Dijkstra runs
// the binary heap: the reference loop for the Dial queue.
void BM_dijkstra_heap(benchmark::State& state) {
  const auto& inst = pricing_instance();
  const core::RechargingWeight weight(inst, pricing_deployment());
  const auto heap_weight = [&weight](int from, int to, double tx) { return weight(from, to, tx); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::shortest_paths_to_base(inst.graph(), inst.adjacency(), heap_weight));
  }
}
BENCHMARK(BM_dijkstra_heap);

void BM_price_deployment_legacy(benchmark::State& state) {
  const auto& inst = pricing_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy_optimal_cost_for_deployment(inst, pricing_deployment()));
  }
}
BENCHMARK(BM_price_deployment_legacy);

// optimal_cost_for_deployment's steps on reused buffers (rebind the weight,
// distance-only Dijkstra, sum), with the weight behind a forwarding lambda
// so the heap runs.
void BM_price_deployment_cached_heap(benchmark::State& state) {
  const auto& inst = pricing_instance();
  const auto& deployment = pricing_deployment();
  core::RechargingWeight weight(inst, deployment);
  const auto heap_weight = [&weight](int from, int to, double tx) { return weight(from, to, tx); };
  graph::DijkstraScratch scratch;
  for (auto _ : state) {
    weight.assign(deployment);
    graph::shortest_distances_to_base(inst.graph(), inst.adjacency(), heap_weight, scratch);
    double total = 0.0;
    for (int p = 0; p < inst.num_posts(); ++p) {
      total += inst.report_rate(p) * scratch.dist[static_cast<std::size_t>(p)];
      total += inst.charging().charger_energy_for(inst.static_energy(p),
                                                  deployment[static_cast<std::size_t>(p)]);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_price_deployment_cached_heap);

// Candidate-move pricing, the local-search inner loop: one fresh Dijkstra
// per move (the pre-PR-4 path) ...
void BM_move_price_full(benchmark::State& state) {
  const auto& inst = move_instance(static_cast<int>(state.range(0)));
  const int n = inst.num_posts();
  std::vector<int> deployment(static_cast<std::size_t>(n), 3);
  core::CostEvalScratch scratch;
  MoveSequence moves{n};
  for (auto _ : state) {
    const auto [a, b] = moves.next();
    --deployment[static_cast<std::size_t>(a)];
    ++deployment[static_cast<std::size_t>(b)];
    benchmark::DoNotOptimize(optimal_cost_for_deployment(inst, deployment, scratch));
    ++deployment[static_cast<std::size_t>(a)];
    --deployment[static_cast<std::size_t>(b)];
  }
}
BENCHMARK(BM_move_price_full)->Arg(50)->Arg(100)->Arg(300);

// ... vs dynamic shortest-path repair (core::DeploymentPricer).  The same
// move sequence; `region` reports the average repaired-subtree size drawn
// from the pricer/repair_region_size histogram.
void BM_move_price_incremental(benchmark::State& state) {
  const auto& inst = move_instance(static_cast<int>(state.range(0)));
  const int n = inst.num_posts();
  const core::DeploymentPricer pricer(inst, std::vector<int>(static_cast<std::size_t>(n), 3));
  MoveSequence moves{n};
  auto& regions = obs::Registry::global().histogram("pricer/repair_region_size");
  const std::uint64_t count0 = regions.count();
  const double sum0 = regions.sum();
  for (auto _ : state) {
    const auto [a, b] = moves.next();
    benchmark::DoNotOptimize(pricer.cost_with_moved_node(a, b));
  }
  const std::uint64_t repairs = regions.count() - count0;
  state.counters["region"] =
      repairs > 0 ? (regions.sum() - sum0) / static_cast<double>(repairs) : 0.0;
}
BENCHMARK(BM_move_price_incremental)->Arg(50)->Arg(100)->Arg(300);

// ... and in local search's scan order: every receiver of one donor before
// the next donor, so the pricer repairs each donor's removal once and every
// other call pays only the receiver's relaxation.
void BM_move_price_scan(benchmark::State& state) {
  const auto& inst = move_instance(static_cast<int>(state.range(0)));
  const int n = inst.num_posts();
  const core::DeploymentPricer pricer(inst, std::vector<int>(static_cast<std::size_t>(n), 3));
  int a = 0;
  int b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pricer.cost_with_moved_node(a, b));
    if (++b == a) ++b;
    if (b == n) {
      a = (a + 1) % n;
      b = a == 0 ? 1 : 0;
    }
  }
}
BENCHMARK(BM_move_price_scan)->Arg(50)->Arg(100)->Arg(300);

// Sparse-core scaling rows, N in {1e3, 1e4, 1e5} posts.  These are
// *trajectory* rows: scripts/bench_check.py --track '^BM_sparse_' reports
// their drift without gating on it (absolute times at 1e5 are machine- and
// cache-bound), while the dense rows above stay the hard regression gate.
// A dense (N+1)^2 matrix at 1e5 posts would be ~80 GB, so these rows only
// exist at all because of the CSR adjacency + grid-indexed builder.
void BM_sparse_instance_build(benchmark::State& state) {
  const int posts = static_cast<int>(state.range(0));
  double adj_bytes = 0.0;
  double built_posts = 0.0;
  for (auto _ : state) {
    const core::Instance inst = make_sparse_instance(posts);
    adj_bytes = static_cast<double>(inst.adjacency().bytes());
    built_posts = static_cast<double>(inst.num_posts());
    benchmark::DoNotOptimize(&inst);
  }
  state.counters["posts"] = built_posts;
  state.counters["adj_mb"] = adj_bytes / (1024.0 * 1024.0);
  state.counters["peak_rss_mb"] = peak_rss_mb();
}
BENCHMARK(BM_sparse_instance_build)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Whole-deployment pricing (one charging-aware Dijkstra + cost fold) on the
// sparse path; the Dijkstra runs the bucket queue here because the packed
// adjacency carries weight bounds.
void BM_sparse_price_deployment(benchmark::State& state) {
  const auto& inst = sparse_instance(static_cast<int>(state.range(0)));
  const std::vector<int> deployment(static_cast<std::size_t>(inst.num_posts()), 2);
  core::CostEvalScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimal_cost_for_deployment(inst, deployment, scratch));
  }
  state.counters["peak_rss_mb"] = peak_rss_mb();
}
BENCHMARK(BM_sparse_price_deployment)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void run_local_search(benchmark::State& state, int threads, core::LocalSearchStrategy strategy,
                      core::MovePricing pricing = core::MovePricing::kIncremental) {
  const auto& inst = ls_instance();
  const auto& start = ls_start();
  core::LocalSearchOptions options;
  options.threads = threads;
  options.strategy = strategy;
  options.pricing = pricing;
  std::uint64_t evaluations = 0;
  std::uint64_t wasted = 0;
  double cost = 0.0;
  for (auto _ : state) {
    const auto result = core::refine_solution(inst, start, options);
    evaluations = result.evaluations;
    wasted = result.wasted_evaluations;
    cost = result.cost;
    benchmark::DoNotOptimize(result.cost);
  }
  state.counters["evals"] = static_cast<double>(evaluations);
  state.counters["wasted"] = static_cast<double>(wasted);
  state.counters["cost_uj"] = cost * 1e6;
}

void BM_local_search_serial(benchmark::State& state) {
  run_local_search(state, 1, core::LocalSearchStrategy::kFirstImprovement);
}
BENCHMARK(BM_local_search_serial)->Unit(benchmark::kMillisecond);

void BM_local_search_serial_full_pricing(benchmark::State& state) {
  run_local_search(state, 1, core::LocalSearchStrategy::kFirstImprovement,
                   core::MovePricing::kFull);
}
BENCHMARK(BM_local_search_serial_full_pricing)->Unit(benchmark::kMillisecond);

void BM_local_search_parallel(benchmark::State& state) {
  run_local_search(state, g_threads, core::LocalSearchStrategy::kFirstImprovement);
}
BENCHMARK(BM_local_search_parallel)->Unit(benchmark::kMillisecond);

void BM_local_search_best_improvement(benchmark::State& state) {
  run_local_search(state, g_threads, core::LocalSearchStrategy::kBestImprovement);
}
BENCHMARK(BM_local_search_best_improvement)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Our flags first (unknown --benchmark_* ones pass through untouched)...
  const auto args = bench::BenchArgs::parse(argc, argv);
  g_seed = args.seed;
  g_posts = args.paper_scale() ? 200 : 100;
  g_threads = args.threads;
  // ... then Google Benchmark's, with --runs mapped onto repetitions.
  std::vector<char*> bench_argv(argv, argv + argc);
  std::string repetitions;
  if (args.runs > 0) {
    repetitions = "--benchmark_repetitions=" + std::to_string(args.runs);
    bench_argv.push_back(repetitions.data());
  }
  // The JSON context's "library_build_type" reports how the *benchmark
  // library* was compiled (distro packages often ship it as debug), not this
  // binary.  Publish our own compile mode so scripts/perf_baseline.sh can
  // refuse to record a baseline from an unoptimized build, plus the git SHA
  // so BENCH_hotpaths.json says which revision it measured
  // (scripts/bench_check.py surfaces both when flagging a regression).
  benchmark::AddCustomContext("wrsn_build_type", wrsn::obs::build_info().build_type);
  benchmark::AddCustomContext("wrsn_git_sha", wrsn::obs::build_info().git_sha);
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
