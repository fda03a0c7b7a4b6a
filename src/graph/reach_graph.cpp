#include "graph/reach_graph.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "geom/grid_index.hpp"

namespace wrsn::graph {

ReachGraph::ReachGraph(int num_posts, Storage storage)
    : num_posts_(num_posts), storage_(storage) {
  if (num_posts <= 0) throw std::invalid_argument("ReachGraph needs at least one post");
  if (storage_ == Storage::kDense) {
    const std::size_t n = static_cast<std::size_t>(num_vertices());
    min_level_.assign(n * n, kUnreachable);
    distance_.assign(n * n, 0.0);
  }
}

ReachGraph ReachGraph::from_field(const geom::Field& field, const energy::RadioModel& radio) {
  const Storage storage = static_cast<int>(field.posts.size()) > kAutoSparseThreshold
                              ? Storage::kSparse
                              : Storage::kDense;
  return from_field(field, radio, storage);
}

ReachGraph ReachGraph::from_field(const geom::Field& field, const energy::RadioModel& radio,
                                  Storage storage) {
  if (storage == Storage::kDense) {
    // The historical O(n^2) pair scan, preserved verbatim: the dense graph
    // is the bit-exact oracle the sparse path is tested against.
    ReachGraph g(static_cast<int>(field.posts.size()));
    auto position = [&](int v) {
      return v == g.base_station() ? field.base_station
                                   : field.posts[static_cast<std::size_t>(v)];
    };
    for (int u = 0; u < g.num_vertices(); ++u) {
      for (int v = u + 1; v < g.num_vertices(); ++v) {
        const double d = geom::distance(position(u), position(v));
        const std::size_t uv = g.index(u, v);
        const std::size_t vu = g.index(v, u);
        g.distance_[uv] = d;
        g.distance_[vu] = d;
        if (const auto level = radio.min_level_for_distance(d)) {
          g.min_level_[uv] = *level;
          g.min_level_[vu] = *level;
        }
      }
    }
    return g;
  }

  // Sparse: hash vertices into a d_max grid and emit each CSR row from the
  // 3x3 cell block around its vertex -- O(n * deg) instead of O(n^2).
  // Candidate lists are sorted ascending, and the per-edge distance is
  // recomputed with geom::distance exactly like the dense scan, so the edge
  // set and levels match the oracle bit for bit.
  ReachGraph g(static_cast<int>(field.posts.size()), Storage::kSparse);
  const int nv = g.num_vertices();
  g.positions_.reserve(static_cast<std::size_t>(nv));
  g.positions_ = field.posts;
  g.positions_.push_back(field.base_station);
  const double d_max = radio.max_range();
  const geom::GridIndex grid(g.positions_, d_max);
  g.csr_offset_.assign(static_cast<std::size_t>(nv) + 1, 0);
  std::vector<int> candidates;
  for (int u = 0; u < nv; ++u) {
    grid.collect_in_radius(g.positions_[static_cast<std::size_t>(u)], d_max, u, candidates);
    for (int v : candidates) {
      const double d = geom::distance(g.positions_[static_cast<std::size_t>(u)],
                                      g.positions_[static_cast<std::size_t>(v)]);
      if (const auto level = radio.min_level_for_distance(d)) {
        g.csr_nbr_.push_back(v);
        g.csr_level_.push_back(*level);
      }
    }
    g.csr_offset_[static_cast<std::size_t>(u) + 1] = static_cast<int>(g.csr_nbr_.size());
  }
  return g;
}

std::size_t ReachGraph::index(int from, int to) const {
  if (from < 0 || from >= num_vertices() || to < 0 || to >= num_vertices()) {
    throw std::out_of_range("ReachGraph vertex out of range");
  }
  return dense_index(from, to, num_vertices());
}

void ReachGraph::check_vertex(int v) const {
  if (v < 0 || v >= num_vertices()) {
    throw std::out_of_range("ReachGraph vertex out of range");
  }
}

int ReachGraph::sparse_level(int from, int to) const {
  const int* begin = csr_nbr_.data() + csr_offset_[static_cast<std::size_t>(from)];
  const int* end = csr_nbr_.data() + csr_offset_[static_cast<std::size_t>(from) + 1];
  const int* it = std::lower_bound(begin, end, to);
  if (it == end || *it != to) return kUnreachable;
  return csr_level_[static_cast<std::size_t>(
      csr_offset_[static_cast<std::size_t>(from)] + (it - begin))];
}

void ReachGraph::set_min_level(int from, int to, int level) {
  if (storage_ == Storage::kSparse) {
    throw std::logic_error("sparse ReachGraph is immutable; build edges via from_field");
  }
  if (from == to) throw std::invalid_argument("self-edges are not allowed");
  if (level < 0) throw std::invalid_argument("level must be non-negative");
  min_level_[index(from, to)] = level;
}

void ReachGraph::set_min_level_symmetric(int u, int v, int level) {
  set_min_level(u, v, level);
  set_min_level(v, u, level);
}

int ReachGraph::min_level(int from, int to) const {
  if (from == to) return kUnreachable;
  if (storage_ == Storage::kSparse) {
    check_vertex(from);
    check_vertex(to);
    return sparse_level(from, to);
  }
  return min_level_[index(from, to)];
}

double ReachGraph::distance(int from, int to) const {
  if (storage_ == Storage::kSparse) {
    check_vertex(from);
    check_vertex(to);
    // Recomputing matches the stored dense value bit for bit: the squared
    // terms in geom::distance are sign-insensitive, so argument order does
    // not matter.
    return geom::distance(positions_[static_cast<std::size_t>(from)],
                          positions_[static_cast<std::size_t>(to)]);
  }
  return distance_[index(from, to)];
}

bool ReachGraph::connected_to_base() const {
  // BFS from the base station along *reversed* edges: u is reached when it
  // can transmit (possibly multi-hop) to the base station.  O(E) on sparse
  // graphs via the CSR rows, O(V^2) on dense ones.
  std::vector<char> seen(static_cast<std::size_t>(num_vertices()), 0);
  std::queue<int> frontier;
  frontier.push(base_station());
  seen[static_cast<std::size_t>(base_station())] = 1;
  int reached = 0;
  while (!frontier.empty()) {
    const int u = frontier.front();
    frontier.pop();
    ++reached;
    for_each_in_edge(u, [&](int v, int) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        frontier.push(v);
      }
    });
  }
  return reached == num_vertices();
}

ReachAdjacency::ReachAdjacency(const ReachGraph& graph) { build(graph, nullptr); }

ReachAdjacency::ReachAdjacency(const ReachGraph& graph, const energy::RadioModel& radio) {
  build(graph, &radio);
}

void ReachAdjacency::build(const ReachGraph& graph, const energy::RadioModel* radio) {
  const int n = graph.num_vertices();
  num_vertices_ = n;
  in_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  out_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int v = 0; v < n; ++v) {
    graph.for_each_out_edge(v, [&](int, int) { ++out_off_[static_cast<std::size_t>(v) + 1]; });
    graph.for_each_in_edge(v, [&](int, int) { ++in_off_[static_cast<std::size_t>(v) + 1]; });
  }
  for (int v = 0; v < n; ++v) {
    out_off_[static_cast<std::size_t>(v) + 1] += out_off_[static_cast<std::size_t>(v)];
    in_off_[static_cast<std::size_t>(v) + 1] += in_off_[static_cast<std::size_t>(v)];
  }
  const std::size_t edges = out_off_[static_cast<std::size_t>(n)];
  out_nbr_.resize(edges);
  in_nbr_.resize(edges);
  if (radio != nullptr) {
    out_tx_.resize(edges);
    in_tx_.resize(edges);
    min_tx_ = edges > 0 ? std::numeric_limits<double>::infinity() : 0.0;
    max_tx_ = 0.0;
  }
  for (int v = 0; v < n; ++v) {
    std::size_t oc = out_off_[static_cast<std::size_t>(v)];
    graph.for_each_out_edge(v, [&](int to, int level) {
      out_nbr_[oc] = to;
      if (radio != nullptr) {
        const double tx = radio->tx_energy(level);
        out_tx_[oc] = tx;
        min_tx_ = std::min(min_tx_, tx);
        max_tx_ = std::max(max_tx_, tx);
      }
      ++oc;
    });
    std::size_t ic = in_off_[static_cast<std::size_t>(v)];
    graph.for_each_in_edge(v, [&](int from, int level) {
      in_nbr_[ic] = from;
      if (radio != nullptr) in_tx_[ic] = radio->tx_energy(level);
      ++ic;
    });
  }
}

std::size_t ReachAdjacency::checked(int v) const {
  if (v < 0 || v >= num_vertices_) {
    throw std::out_of_range("ReachAdjacency vertex out of range");
  }
  return static_cast<std::size_t>(v);
}

std::size_t ReachAdjacency::bytes() const noexcept {
  return (in_off_.capacity() + out_off_.capacity()) * sizeof(std::size_t) +
         (in_nbr_.capacity() + out_nbr_.capacity()) * sizeof(int) +
         (in_tx_.capacity() + out_tx_.capacity()) * sizeof(double);
}

}  // namespace wrsn::graph
