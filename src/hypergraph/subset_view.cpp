#include "hypergraph/subset_view.hpp"

#include "obs/metrics.hpp"

namespace ht::hypergraph {

SubsetView::SubsetView(const Hypergraph& parent,
                       std::vector<VertexId> vertices)
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

InducedSubhypergraph SubsetView::materialize() const {
  HT_DCHECK(remap_.live());
  static ht::obs::Counter& materializations =
      ht::obs::MetricsRegistry::global().counter("view.materializations");
  materializations.add();
  InducedSubhypergraph out;
  out.hypergraph.resize(size());
  out.old_of_new = vertices_;
  for (std::size_t i = 0; i < vertices_.size(); ++i)
    out.hypergraph.set_vertex_weight(static_cast<VertexId>(i),
                                     parent_->vertex_weight(vertices_[i]));
  // Parent edge order is preserved, matching induced_subhypergraph exactly.
  std::vector<VertexId> restricted;
  for (EdgeId e = 0; e < parent_->num_edges(); ++e) {
    restricted.clear();
    for (VertexId v : parent_->pins(e)) {
      const VertexId nv = remap_.get(v);
      if (nv != -1) restricted.push_back(nv);
    }
    if (restricted.size() >= 2)
      out.hypergraph.add_edge(restricted, parent_->edge_weight(e));
  }
  out.hypergraph.finalize();
  return out;
}

}  // namespace ht::hypergraph
