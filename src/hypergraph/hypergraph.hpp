// Weighted hypergraph with vertex weights.
//
// Storage is CSR both ways: a pin array indexed by hyperedge, and an
// incidence array indexed by vertex. Built via add_edge() + finalize();
// immutable afterwards.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace ht::hypergraph {

using VertexId = std::int32_t;
using EdgeId = std::int32_t;
using Weight = double;

class Hypergraph {
 public:
  Hypergraph() = default;
  explicit Hypergraph(VertexId n) { resize(n); }

  void resize(VertexId n) {
    HT_CHECK(n >= 0);
    vertex_weights_.assign(static_cast<std::size_t>(n), 1.0);
    finalized_ = false;
  }

  VertexId num_vertices() const {
    return static_cast<VertexId>(vertex_weights_.size());
  }
  EdgeId num_edges() const {
    return static_cast<EdgeId>(edge_weights_.size());
  }

  /// Adds a hyperedge over `pins` (deduplicated, sorted internally).
  /// Hyperedges of size < 2 are rejected: they can never be cut.
  EdgeId add_edge(std::vector<VertexId> pins, Weight w = 1.0);

  void finalize();
  bool finalized() const { return finalized_; }

  /// Process-unique structure id, assigned by finalize(); 0 while mutable
  /// ("uncacheable"). The flow engine keys its cached networks on it.
  std::uint64_t uid() const { return finalized_ ? uid_ : 0; }

  /// Pins of hyperedge e. Requires finalize(): before it, add_edge() is
  /// still free to append and the spans would dangle on reallocation.
  /// Enforced in every build (HT_CHECK, not just debug) — a dangling span
  /// here corrupts silently, so the documented contract is the behaviour.
  std::span<const VertexId> pins(EdgeId e) const {
    HT_CHECK(finalized_);
    const auto lo = pin_offsets_[static_cast<std::size_t>(e)];
    const auto hi = pin_offsets_[static_cast<std::size_t>(e) + 1];
    return {pin_storage_.data() + lo, static_cast<std::size_t>(hi - lo)};
  }

  /// Requires finalize(), enforced in every build (see pins()).
  std::int32_t edge_size(EdgeId e) const {
    HT_CHECK(finalized_);
    return static_cast<std::int32_t>(
        pin_offsets_[static_cast<std::size_t>(e) + 1] -
        pin_offsets_[static_cast<std::size_t>(e)]);
  }

  /// Hyperedges incident to a vertex; requires finalize().
  std::span<const EdgeId> incident_edges(VertexId v) const {
    HT_DCHECK(finalized_);
    const auto lo = inc_offsets_[static_cast<std::size_t>(v)];
    const auto hi = inc_offsets_[static_cast<std::size_t>(v) + 1];
    return {inc_storage_.data() + lo, static_cast<std::size_t>(hi - lo)};
  }

  /// Number of hyperedges incident to v.
  std::int32_t degree(VertexId v) const {
    HT_DCHECK(finalized_);
    return static_cast<std::int32_t>(
        inc_offsets_[static_cast<std::size_t>(v) + 1] -
        inc_offsets_[static_cast<std::size_t>(v)]);
  }

  Weight edge_weight(EdgeId e) const {
    return edge_weights_[static_cast<std::size_t>(e)];
  }
  Weight vertex_weight(VertexId v) const {
    return vertex_weights_[static_cast<std::size_t>(v)];
  }
  /// Allowed after finalize() (weights are not part of the CSR), but doing
  /// so reassigns uid() so cached flow networks keyed on the old weights
  /// are not served stale.
  void set_vertex_weight(VertexId v, Weight w);

  std::int32_t max_edge_size() const;
  double avg_degree() const;
  Weight total_edge_weight() const;
  Weight total_vertex_weight() const;

  /// delta_H(S): total weight of hyperedges with pins on both sides of the
  /// indicator `in_set`.
  Weight cut_weight(const std::vector<bool>& in_set) const;
  Weight cut_weight(const std::vector<VertexId>& set) const;

  /// Total weight of hyperedges *touching* S (incident to at least one
  /// vertex of S) — the objective of unbalanced k-cut when no edge fits
  /// inside S, and of Minimizing k-Union under the Theorem 3 reduction.
  Weight touching_weight(const std::vector<bool>& in_set) const;

  std::string debug_string() const;

 private:
  std::vector<Weight> vertex_weights_;
  std::vector<Weight> edge_weights_;
  std::vector<std::int64_t> pin_offsets_{0};
  std::vector<VertexId> pin_storage_;
  std::vector<std::int64_t> inc_offsets_;
  std::vector<EdgeId> inc_storage_;
  std::uint64_t uid_ = 0;
  bool finalized_ = false;
};

/// Sub-hypergraph induced by `vertices`: pins are restricted to the set and
/// hyperedges with fewer than 2 remaining pins are dropped (they cannot be
/// cut inside the piece). `old_of_new` maps new vertex ids back. Vertex
/// weights are carried over and hyperedges keep the parent's order. Counts
/// one "view.materializations".
struct InducedSubhypergraph {
  Hypergraph hypergraph;
  std::vector<VertexId> old_of_new;
};
InducedSubhypergraph induced_subhypergraph(
    const Hypergraph& h, const std::vector<VertexId>& vertices);

/// Contracts vertices by the cluster map `cluster_of` (values in
/// [0, num_clusters)): pins map to clusters, hyperedges shrinking below 2
/// distinct pins disappear, identical pin sets are merged with weights
/// added. Vertex weights accumulate per cluster. The workhorse of the
/// multilevel partitioner.
Hypergraph contract(const Hypergraph& h,
                    const std::vector<std::int32_t>& cluster_of,
                    std::int32_t num_clusters);

/// Connected components treating each hyperedge as a connectivity clique.
std::pair<std::vector<std::int32_t>, std::int32_t> connected_components(
    const Hypergraph& h);

bool is_connected(const Hypergraph& h);

}  // namespace ht::hypergraph
