// Zero-copy view of an induced subgraph.
//
// The decomposition recursion repeatedly restricts a graph to a vertex
// subset; copying the induced subgraph at every level makes allocation the
// dominant cost. A SubsetView instead keeps only the vertex list plus an
// old-id -> local-id remap borrowed from the calling thread's WorkArena
// (O(1) amortized to create), and copies a concrete Graph out only at
// materialize() — the oracle/contract boundaries that genuinely need one.
//
// Lifetime rules, enforced by HT_DCHECK:
//  * The parent graph must outlive the view (the view holds a pointer).
//  * local_of()/contains()/materialize() are valid only while this view is
//    the calling thread's most recent (constructing another SubsetView on
//    the same thread reuses the arena remap and invalidates this one).
//  * Views are thread-affine: use them on the thread that built them.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "util/work_arena.hpp"

namespace ht::graph {

class SubsetView {
 public:
  /// View of the subgraph of `parent` induced by `vertices` (distinct, in
  /// range). O(|vertices|): no edges or weights are copied.
  SubsetView(const Graph& parent, std::vector<VertexId> vertices);

  const Graph& parent() const { return *parent_; }
  /// Number of vertices in the view.
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
  /// Sum of vertex weights inside the view.
  Weight total_vertex_weight() const;

  /// Copies the view out as a finalized graph; output is identical to
  /// induced_subgraph(parent(), vertices()). Counts one
  /// "view.materializations".
  InducedSubgraph materialize() const;

 private:
  const Graph* parent_;
  std::vector<VertexId> vertices_;
  ht::WorkArena::Remap remap_;
};

}  // namespace ht::graph
