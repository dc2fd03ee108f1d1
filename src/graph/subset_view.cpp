#include "graph/subset_view.hpp"

#include "obs/metrics.hpp"

namespace ht::graph {

SubsetView::SubsetView(const Graph& parent, std::vector<VertexId> vertices)
    : parent_(&parent), vertices_(std::move(vertices)) {
  HT_CHECK(parent.finalized());
  remap_ = ht::WorkArena::local().begin_remap(parent.num_vertices());
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    const VertexId old = vertices_[i];
    HT_CHECK(0 <= old && old < parent.num_vertices());
    HT_CHECK_MSG(remap_.get(old) == -1,
                 "duplicate vertex " << old << " in SubsetView");
    remap_.set(old, static_cast<VertexId>(i));
  }
}

Weight SubsetView::total_vertex_weight() const {
  Weight sum = 0.0;
  for (VertexId old : vertices_) sum += parent_->vertex_weight(old);
  return sum;
}

InducedSubgraph SubsetView::materialize() const {
  HT_DCHECK(remap_.live());
  static ht::obs::Counter& materializations =
      ht::obs::MetricsRegistry::global().counter("view.materializations");
  materializations.add();
  InducedSubgraph out;
  out.graph.resize(size());
  out.old_of_new = vertices_;
  for (std::size_t i = 0; i < vertices_.size(); ++i)
    out.graph.set_vertex_weight(static_cast<VertexId>(i),
                                parent_->vertex_weight(vertices_[i]));
  // Parent edge order is preserved, matching induced_subgraph exactly.
  for (const Edge& e : parent_->edges()) {
    const VertexId nu = remap_.get(e.u);
    const VertexId nv = remap_.get(e.v);
    if (nu != -1 && nv != -1) out.graph.add_edge(nu, nv, e.weight);
  }
  out.graph.finalize();
  return out;
}

}  // namespace ht::graph
