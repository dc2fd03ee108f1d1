// Weighted undirected graph with vertex weights.
//
// The graph is built by add_edge() calls and then finalize()d, which
// constructs the CSR adjacency; afterwards the structure is immutable and
// safe to share across threads. Vertex weights model the vertex-cut
// instances of the paper (Section 3); edge weights model weighted edge cuts
// and clique expansions (Lemma 1).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace ht::graph {

using VertexId = std::int32_t;
using EdgeId = std::int32_t;
using Weight = double;

inline constexpr Weight kInfiniteWeight = 1e100;

struct Edge {
  VertexId u = -1;
  VertexId v = -1;
  Weight weight = 1.0;
};

/// One adjacency entry: the neighbour and the id of the connecting edge.
struct AdjEntry {
  VertexId to = -1;
  EdgeId edge = -1;
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(VertexId n) { resize(n); }

  void resize(VertexId n) {
    HT_CHECK(n >= 0);
    vertex_weights_.assign(static_cast<std::size_t>(n), 1.0);
    finalized_ = false;
  }

  VertexId num_vertices() const {
    return static_cast<VertexId>(vertex_weights_.size());
  }
  EdgeId num_edges() const { return static_cast<EdgeId>(edges_.size()); }

  /// Adds an undirected edge; self-loops are rejected (they never affect a
  /// cut). Parallel edges are allowed and behave as additive weight.
  EdgeId add_edge(VertexId u, VertexId v, Weight w = 1.0);

  const Edge& edge(EdgeId e) const {
    return edges_[static_cast<std::size_t>(e)];
  }
  const std::vector<Edge>& edges() const { return edges_; }

  Weight vertex_weight(VertexId v) const {
    return vertex_weights_[static_cast<std::size_t>(v)];
  }
  /// Allowed after finalize() (weights are not part of the CSR), but doing
  /// so reassigns uid() so cached flow networks keyed on the old weights
  /// are not served stale.
  void set_vertex_weight(VertexId v, Weight w);
  const std::vector<Weight>& vertex_weights() const { return vertex_weights_; }

  Weight total_vertex_weight() const;
  Weight total_edge_weight() const;

  /// Builds the CSR adjacency. Idempotent; must be called before
  /// neighbors()/degree().
  void finalize();
  bool finalized() const { return finalized_; }

  /// Process-unique structure id, assigned by finalize(); 0 while the graph
  /// is mutable ("uncacheable"). The flow engine keys its cached networks
  /// on it.
  std::uint64_t uid() const { return finalized_ ? uid_ : 0; }

  /// v's incident edges, listed in increasing edge id, parallel edges
  /// included (one entry each; there are no self-loops). Kernels that must
  /// sum weights in edge-id order rely on this: the Fiedler iteration and
  /// the decomposition builder's cuts (DESIGN.md §7).
  std::span<const AdjEntry> neighbors(VertexId v) const {
    HT_DCHECK(finalized_);
    const auto lo = adj_offsets_[static_cast<std::size_t>(v)];
    const auto hi = adj_offsets_[static_cast<std::size_t>(v) + 1];
    return {adj_.data() + lo, static_cast<std::size_t>(hi - lo)};
  }

  /// Number of incident edge endpoints at v (parallel edges counted).
  std::int32_t degree(VertexId v) const {
    HT_DCHECK(finalized_);
    return static_cast<std::int32_t>(
        adj_offsets_[static_cast<std::size_t>(v) + 1] -
        adj_offsets_[static_cast<std::size_t>(v)]);
  }

  /// Total weight of edges with exactly one endpoint in `in_set` (indicator
  /// over vertices). This is the edge cut delta_G(S).
  Weight cut_weight(const std::vector<bool>& in_set) const;

  /// Sum of vertex weights over a set.
  Weight set_weight(const std::vector<VertexId>& vertices) const;

  std::string debug_string() const;

 private:
  std::vector<Weight> vertex_weights_;
  std::vector<Edge> edges_;
  std::vector<std::int64_t> adj_offsets_;
  std::vector<AdjEntry> adj_;
  std::uint64_t uid_ = 0;
  bool finalized_ = false;
};

/// Labels connected components; returns (component id per vertex, count).
/// Requires a finalized graph.
std::pair<std::vector<std::int32_t>, std::int32_t> connected_components(
    const Graph& g);

/// Connected components after deleting the vertex set `removed` (indicator).
/// Removed vertices get component id -1.
std::pair<std::vector<std::int32_t>, std::int32_t>
connected_components_excluding(const Graph& g,
                               const std::vector<bool>& removed);

/// Extracts the sub-graph induced by `vertices`; `old_of_new[i]` maps the
/// new id i back to the original vertex. Vertex weights are carried over
/// and edges keep the parent's order. Counts one "view.materializations".
struct InducedSubgraph {
  Graph graph;
  std::vector<VertexId> old_of_new;
};
InducedSubgraph induced_subgraph(const Graph& g,
                                 const std::vector<VertexId>& vertices);

/// True if the finalized graph is connected (n == 0 counts as connected).
bool is_connected(const Graph& g);

}  // namespace ht::graph
