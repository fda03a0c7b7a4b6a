// Reachability graph over posts and the base station.
//
// Vertices 0..N-1 are posts; vertex N is the base station.  For every
// ordered pair (from, to) the graph records the *minimum transmit power
// level* that lets `from` reach `to`, or kUnreachable.  Geometric instances
// derive levels from pairwise distance and the radio's ranges; the
// NP-completeness gadget prescribes levels explicitly (and asymmetrically,
// e.g. posts U_j reach the base station but nothing routes the other way).
//
// Two storage modes share one query surface:
//   * kDense -- (N+1)^2 level/distance matrices, O(1) random access, freely
//     mutable (`set_min_level`).  The oracle below the size threshold.
//   * kSparse -- CSR rows of (neighbor, level) pairs plus the vertex
//     coordinates; memory is O(V + E), `min_level` binary-searches a row,
//     `distance` recomputes from coordinates (bit-identical to the dense
//     value: squaring is sign-insensitive in IEEE).  Geometric only and
//     immutable after construction.  This is what makes N = 10^4..10^5
//     instances representable at all -- the dense matrices would need
//     ~n^2 * 12 bytes (120 GB at n = 10^5).
// `from_field` picks sparse automatically above `kAutoSparseThreshold`
// posts and builds candidate edges through a geom::GridIndex in O(n * deg)
// instead of the dense O(n^2) pair scan (docs/performance.md).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "energy/radio_model.hpp"
#include "geom/field.hpp"

namespace wrsn::graph {

class ReachGraph {
 public:
  static constexpr int kUnreachable = -1;

  /// Storage layout; see the header comment.
  enum class Storage { kDense, kSparse };
  /// `from_field` switches to sparse storage above this many posts.
  static constexpr int kAutoSparseThreshold = 1024;

  /// Graph with `num_posts` posts and one base-station vertex, no edges.
  /// Always dense (only dense graphs are mutable).
  explicit ReachGraph(int num_posts) : ReachGraph(num_posts, Storage::kDense) {}

  /// Derives levels from post geometry: edge (u,v) exists iff
  /// dist(u,v) <= d_max, with the smallest covering level.  Storage is
  /// dense up to kAutoSparseThreshold posts, sparse above.
  static ReachGraph from_field(const geom::Field& field, const energy::RadioModel& radio);
  /// Same, with the storage mode forced (tests, benches, oracles).
  static ReachGraph from_field(const geom::Field& field, const energy::RadioModel& radio,
                               Storage storage);

  Storage storage() const noexcept { return storage_; }
  bool is_sparse() const noexcept { return storage_ == Storage::kSparse; }
  /// Directed edge count (known exactly for sparse graphs; counted lazily
  /// is not worth it for dense ones, so this is sparse-only -- see
  /// ReachAdjacency for the generic path).
  std::size_t num_sparse_edges() const noexcept { return csr_nbr_.size(); }

  int num_posts() const noexcept { return num_posts_; }
  int num_vertices() const noexcept { return num_posts_ + 1; }
  /// Index of the base-station vertex.
  int base_station() const noexcept { return num_posts_; }

  /// Sets the minimum level for the directed pair (from -> to).
  /// Throws std::logic_error on sparse graphs (immutable by design).
  void set_min_level(int from, int to, int level);
  /// Sets the minimum level in both directions.
  void set_min_level_symmetric(int u, int v, int level);

  /// Minimum feasible level for from -> to, or kUnreachable.
  int min_level(int from, int to) const;
  bool reachable(int from, int to) const { return min_level(from, to) != kUnreachable; }

  /// Distance between two vertices in meters (geometric graphs only; 0 for
  /// abstract graphs).
  double distance(int from, int to) const;

  /// Calls `fn(to, level)` for every out-edge of `from`, ascending by `to`.
  template <class Fn>
  void for_each_out_edge(int from, Fn&& fn) const;
  /// Calls `fn(from, level)` for every in-edge of `to`, ascending by `from`.
  template <class Fn>
  void for_each_in_edge(int to, Fn&& fn) const;

  /// True when every post can reach the base station over some multi-hop
  /// directed path.  O(E) on sparse graphs, O(V^2) on dense ones.
  bool connected_to_base() const;

 private:
  /// Sparse construction skips the (N+1)^2 dense allocations entirely.
  ReachGraph(int num_posts, Storage storage);

  static std::size_t dense_index(int from, int to, int nv) noexcept {
    return static_cast<std::size_t>(from) * static_cast<std::size_t>(nv) +
           static_cast<std::size_t>(to);
  }
  std::size_t index(int from, int to) const;
  void check_vertex(int v) const;
  /// Sparse lookup: level of edge from -> to, or kUnreachable.
  int sparse_level(int from, int to) const;

  int num_posts_;
  Storage storage_ = Storage::kDense;

  // Dense storage.
  std::vector<int> min_level_;    // (N+1)^2 row-major, kUnreachable when absent
  std::vector<double> distance_;  // same shape; 0 for abstract graphs

  // Sparse storage (geometric, symmetric: in-rows == out-rows).
  std::vector<int> csr_offset_;       // num_vertices()+1 entries
  std::vector<int> csr_nbr_;          // ascending within each row
  std::vector<int> csr_level_;        // parallel to csr_nbr_
  std::vector<geom::Point> positions_;  // per vertex, base station last
};

template <class Fn>
void ReachGraph::for_each_out_edge(int from, Fn&& fn) const {
  check_vertex(from);
  if (storage_ == Storage::kSparse) {
    const int begin = csr_offset_[static_cast<std::size_t>(from)];
    const int end = csr_offset_[static_cast<std::size_t>(from) + 1];
    for (int i = begin; i < end; ++i) {
      fn(csr_nbr_[static_cast<std::size_t>(i)], csr_level_[static_cast<std::size_t>(i)]);
    }
    return;
  }
  const int n = num_vertices();
  const int* row = min_level_.data() + dense_index(from, 0, n);
  for (int to = 0; to < n; ++to) {
    if (to != from && row[to] != kUnreachable) fn(to, row[to]);
  }
}

template <class Fn>
void ReachGraph::for_each_in_edge(int to, Fn&& fn) const {
  check_vertex(to);
  if (storage_ == Storage::kSparse) {
    // Sparse graphs are geometric, hence symmetric: in-rows == out-rows.
    const int begin = csr_offset_[static_cast<std::size_t>(to)];
    const int end = csr_offset_[static_cast<std::size_t>(to) + 1];
    for (int i = begin; i < end; ++i) {
      fn(csr_nbr_[static_cast<std::size_t>(i)], csr_level_[static_cast<std::size_t>(i)]);
    }
    return;
  }
  const int n = num_vertices();
  for (int from = 0; from < n; ++from) {
    const int level = min_level_[dense_index(from, to, n)];
    if (from != to && level != kUnreachable) fn(from, level);
  }
}

/// Precomputed CSR neighbor lists over a ReachGraph, built once and read by
/// the Dijkstra hot loops (which would otherwise probe all (N+1)^2 pairs per
/// run).  `in(u)` lists every v with an edge v -> u (the reversed-edge
/// relaxation order), `out(v)` every u with v -> u (the tight-predecessor
/// scan order); both are ascending, matching the historical full-scan order
/// so results stay bit-identical.  The radio-taking constructor additionally
/// packs the per-edge transmit energy next to each neighbor id, so weight
/// evaluation inside a relaxation is one multiply on an array streamed in
/// lockstep with the ids -- no (N+1)^2 tx matrix behind it (the sparse-path
/// contract; see core::RechargingWeight).  Snapshot semantics: edges added
/// to the graph after construction are not reflected.
class ReachAdjacency {
 public:
  ReachAdjacency() = default;
  explicit ReachAdjacency(const ReachGraph& graph);
  /// Also packs per-edge tx energy (`in_tx`/`out_tx`) and min/max tx.
  ReachAdjacency(const ReachGraph& graph, const energy::RadioModel& radio);

  int num_vertices() const noexcept { return num_vertices_; }
  /// Vertices that can transmit to `u`, ascending.
  std::span<const int> in(int u) const {
    const std::size_t v = checked(u);
    return {in_nbr_.data() + in_off_[v], in_nbr_.data() + in_off_[v + 1]};
  }
  /// Vertices `v` can transmit to, ascending.
  std::span<const int> out(int v) const {
    const std::size_t u = checked(v);
    return {out_nbr_.data() + out_off_[u], out_nbr_.data() + out_off_[u + 1]};
  }
  /// True when per-edge tx energies were packed at construction.
  bool has_tx() const noexcept { return !in_tx_.empty() || in_nbr_.empty(); }
  /// tx energy of edge (in(u)[i] -> u), parallel to `in(u)`; nullptr when
  /// tx was not packed.
  const double* in_tx(int u) const {
    return in_tx_.empty() ? nullptr : in_tx_.data() + in_off_[checked(u)];
  }
  /// tx energy of edge (v -> out(v)[i]), parallel to `out(v)`.
  const double* out_tx(int v) const {
    return out_tx_.empty() ? nullptr : out_tx_.data() + out_off_[checked(v)];
  }
  /// Smallest / largest packed per-edge tx energy (+inf / 0 when edgeless
  /// or tx-less) -- weight classes derive Dial bucket bounds from these.
  double min_tx() const noexcept { return min_tx_; }
  double max_tx() const noexcept { return max_tx_; }
  /// Bytes held by the packed arrays (the `instance/adjacency_bytes` gauge).
  std::size_t bytes() const noexcept;

 private:
  void build(const ReachGraph& graph, const energy::RadioModel* radio);
  std::size_t checked(int v) const;

  int num_vertices_ = 0;
  std::vector<std::size_t> in_off_;   // num_vertices_+1
  std::vector<int> in_nbr_;
  std::vector<double> in_tx_;
  std::vector<std::size_t> out_off_;  // num_vertices_+1
  std::vector<int> out_nbr_;
  std::vector<double> out_tx_;
  double min_tx_ = 0.0;
  double max_tx_ = 0.0;
};

}  // namespace wrsn::graph
