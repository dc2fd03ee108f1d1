#include "hypergraph/hypergraph.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/structure_uid.hpp"

namespace ht::hypergraph {

EdgeId Hypergraph::add_edge(std::vector<VertexId> pins, Weight w) {
  HT_CHECK(w >= 0.0);
  std::sort(pins.begin(), pins.end());
  pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
  HT_CHECK_MSG(pins.size() >= 2, "hyperedge must span >= 2 vertices");
  for (VertexId v : pins) HT_CHECK(0 <= v && v < num_vertices());
  edge_weights_.push_back(w);
  pin_storage_.insert(pin_storage_.end(), pins.begin(), pins.end());
  pin_offsets_.push_back(static_cast<std::int64_t>(pin_storage_.size()));
  finalized_ = false;
  return static_cast<EdgeId>(edge_weights_.size() - 1);
}

void Hypergraph::set_vertex_weight(VertexId v, Weight w) {
  HT_CHECK(w >= 0.0);
  vertex_weights_[static_cast<std::size_t>(v)] = w;
  // Weights feed flow capacities: a finalized hypergraph whose weights
  // change must present a new cache key or reused engines would answer for
  // the old weights.
  if (finalized_) uid_ = next_structure_uid();
}

void Hypergraph::finalize() {
  if (finalized_) return;
  const auto n = static_cast<std::size_t>(num_vertices());
  inc_offsets_.assign(n + 1, 0);
  for (VertexId v : pin_storage_)
    ++inc_offsets_[static_cast<std::size_t>(v) + 1];
  for (std::size_t i = 0; i < n; ++i) inc_offsets_[i + 1] += inc_offsets_[i];
  inc_storage_.assign(pin_storage_.size(), 0);
  std::vector<std::int64_t> cursor(inc_offsets_.begin(),
                                   inc_offsets_.end() - 1);
  // Walk pin ranges through the raw offsets: pins() asserts finalized_,
  // which is not yet set here.
  for (EdgeId e = 0; e < num_edges(); ++e) {
    const auto lo = pin_offsets_[static_cast<std::size_t>(e)];
    const auto hi = pin_offsets_[static_cast<std::size_t>(e) + 1];
    for (std::int64_t p = lo; p < hi; ++p) {
      const VertexId v = pin_storage_[static_cast<std::size_t>(p)];
      inc_storage_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(v)]++)] = e;
    }
  }
  uid_ = next_structure_uid();
  finalized_ = true;
}

std::int32_t Hypergraph::max_edge_size() const {
  std::int32_t best = 0;
  for (EdgeId e = 0; e < num_edges(); ++e) best = std::max(best, edge_size(e));
  return best;
}

double Hypergraph::avg_degree() const {
  if (num_vertices() == 0) return 0.0;
  return static_cast<double>(pin_storage_.size()) /
         static_cast<double>(num_vertices());
}

Weight Hypergraph::total_edge_weight() const {
  return std::accumulate(edge_weights_.begin(), edge_weights_.end(), 0.0);
}

Weight Hypergraph::total_vertex_weight() const {
  return std::accumulate(vertex_weights_.begin(), vertex_weights_.end(), 0.0);
}

Weight Hypergraph::cut_weight(const std::vector<bool>& in_set) const {
  HT_CHECK(in_set.size() == vertex_weights_.size());
  Weight sum = 0.0;
  for (EdgeId e = 0; e < num_edges(); ++e) {
    bool has_in = false, has_out = false;
    for (VertexId v : pins(e)) {
      (in_set[static_cast<std::size_t>(v)] ? has_in : has_out) = true;
      if (has_in && has_out) break;
    }
    if (has_in && has_out) sum += edge_weight(e);
  }
  return sum;
}

Weight Hypergraph::cut_weight(const std::vector<VertexId>& set) const {
  std::vector<bool> in_set(static_cast<std::size_t>(num_vertices()), false);
  for (VertexId v : set) in_set[static_cast<std::size_t>(v)] = true;
  return cut_weight(in_set);
}

Weight Hypergraph::touching_weight(const std::vector<bool>& in_set) const {
  HT_CHECK(in_set.size() == vertex_weights_.size());
  Weight sum = 0.0;
  for (EdgeId e = 0; e < num_edges(); ++e) {
    for (VertexId v : pins(e)) {
      if (in_set[static_cast<std::size_t>(v)]) {
        sum += edge_weight(e);
        break;
      }
    }
  }
  return sum;
}

std::string Hypergraph::debug_string() const {
  std::ostringstream os;
  os << "Hypergraph(n=" << num_vertices() << ", m=" << num_edges()
     << ", hmax=" << max_edge_size() << ")";
  return os.str();
}

InducedSubhypergraph induced_subhypergraph(
    const Hypergraph& h, const std::vector<VertexId>& vertices) {
  static ht::obs::Counter& materializations =
      ht::obs::MetricsRegistry::global().counter("view.materializations");
  materializations.add();
  std::vector<VertexId> new_of_old(
      static_cast<std::size_t>(h.num_vertices()), -1);
  InducedSubhypergraph out;
  out.hypergraph.resize(static_cast<VertexId>(vertices.size()));
  out.old_of_new = vertices;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const VertexId old = vertices[i];
    HT_CHECK(0 <= old && old < h.num_vertices());
    HT_CHECK_MSG(new_of_old[static_cast<std::size_t>(old)] == -1,
                 "duplicate vertex in induced_subhypergraph");
    new_of_old[static_cast<std::size_t>(old)] = static_cast<VertexId>(i);
    out.hypergraph.set_vertex_weight(static_cast<VertexId>(i),
                                     h.vertex_weight(old));
  }
  std::vector<VertexId> restricted;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    restricted.clear();
    for (VertexId v : h.pins(e)) {
      const VertexId nv = new_of_old[static_cast<std::size_t>(v)];
      if (nv != -1) restricted.push_back(nv);
    }
    if (restricted.size() >= 2)
      out.hypergraph.add_edge(restricted, h.edge_weight(e));
  }
  out.hypergraph.finalize();
  return out;
}

Hypergraph contract(const Hypergraph& h,
                    const std::vector<std::int32_t>& cluster_of,
                    std::int32_t num_clusters) {
  HT_CHECK(h.finalized());
  HT_CHECK(cluster_of.size() == static_cast<std::size_t>(h.num_vertices()));
  HT_CHECK(num_clusters >= 1);
  Hypergraph coarse(num_clusters);
  std::vector<double> cluster_weight(static_cast<std::size_t>(num_clusters),
                                     0.0);
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    const auto c = cluster_of[static_cast<std::size_t>(v)];
    HT_CHECK(0 <= c && c < num_clusters);
    cluster_weight[static_cast<std::size_t>(c)] += h.vertex_weight(v);
  }
  // Deduplicate identical coarse pin sets, summing weights.
  std::map<std::vector<VertexId>, double> merged;
  std::vector<VertexId> pins;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    pins.clear();
    for (VertexId v : h.pins(e))
      pins.push_back(cluster_of[static_cast<std::size_t>(v)]);
    std::sort(pins.begin(), pins.end());
    pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
    if (pins.size() < 2) continue;  // collapsed inside one cluster
    merged[pins] += h.edge_weight(e);
  }
  for (auto& [coarse_pins, weight] : merged)
    coarse.add_edge(coarse_pins, weight);
  for (std::int32_t c = 0; c < num_clusters; ++c)
    coarse.set_vertex_weight(c, cluster_weight[static_cast<std::size_t>(c)]);
  coarse.finalize();
  return coarse;
}

std::pair<std::vector<std::int32_t>, std::int32_t> connected_components(
    const Hypergraph& h) {
  HT_CHECK(h.finalized());
  const auto n = static_cast<std::size_t>(h.num_vertices());
  std::vector<std::int32_t> comp(n, -1);
  std::vector<bool> edge_done(static_cast<std::size_t>(h.num_edges()), false);
  std::int32_t count = 0;
  std::vector<VertexId> stack;
  for (VertexId start = 0; start < h.num_vertices(); ++start) {
    if (comp[static_cast<std::size_t>(start)] != -1) continue;
    comp[static_cast<std::size_t>(start)] = count;
    stack.push_back(start);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (EdgeId e : h.incident_edges(v)) {
        if (edge_done[static_cast<std::size_t>(e)]) continue;
        edge_done[static_cast<std::size_t>(e)] = true;
        for (VertexId u : h.pins(e)) {
          if (comp[static_cast<std::size_t>(u)] != -1) continue;
          comp[static_cast<std::size_t>(u)] = count;
          stack.push_back(u);
        }
      }
    }
    ++count;
  }
  return {std::move(comp), count};
}

bool is_connected(const Hypergraph& h) {
  if (h.num_vertices() == 0) return true;
  return connected_components(h).second == 1;
}

}  // namespace ht::hypergraph
