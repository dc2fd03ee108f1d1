// Zero-copy view of an induced sub-hypergraph.
//
// Same contract as ht::graph::SubsetView (see src/graph/subset_view.hpp):
// the view keeps only the vertex list plus an arena remap, and copies a
// concrete Hypergraph out only at materialize(). Lifetime rules are
// identical — parent outlives the view, one live view per thread, views
// are thread-affine.
#pragma once

#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "util/work_arena.hpp"

namespace ht::hypergraph {

class SubsetView {
 public:
  /// View of the sub-hypergraph of `parent` induced by `vertices`
  /// (distinct, in range). O(|vertices|).
  SubsetView(const Hypergraph& parent, std::vector<VertexId> vertices);

  const Hypergraph& parent() const { return *parent_; }
  VertexId size() const { return static_cast<VertexId>(vertices_.size()); }
  const std::vector<VertexId>& vertices() const { return vertices_; }
  VertexId old_of(VertexId local) const {
    return vertices_[static_cast<std::size_t>(local)];
  }
  /// Local id of a parent vertex, -1 when outside the view.
  VertexId local_of(VertexId old_id) const { return remap_.get(old_id); }
  bool contains(VertexId old_id) const { return local_of(old_id) != -1; }
  Weight vertex_weight(VertexId local) const {
    return parent_->vertex_weight(old_of(local));
  }
  Weight total_vertex_weight() const;

  /// Copies the view out as a finalized hypergraph: pins restricted to the
  /// view, hyperedges with < 2 surviving pins dropped. Output is identical
  /// to induced_subhypergraph(parent(), vertices()). Counts one
  /// "view.materializations".
  InducedSubhypergraph materialize() const;

 private:
  const Hypergraph* parent_;
  std::vector<VertexId> vertices_;
  ht::WorkArena::Remap remap_;
};

}  // namespace ht::hypergraph
