#include "graph/graph.hpp"

#include <numeric>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/structure_uid.hpp"

namespace ht::graph {

EdgeId Graph::add_edge(VertexId u, VertexId v, Weight w) {
  HT_CHECK(0 <= u && u < num_vertices());
  HT_CHECK(0 <= v && v < num_vertices());
  HT_CHECK_MSG(u != v, "self-loop at vertex " << u);
  HT_CHECK(w >= 0.0);
  edges_.push_back(Edge{u, v, w});
  finalized_ = false;
  return static_cast<EdgeId>(edges_.size() - 1);
}

void Graph::set_vertex_weight(VertexId v, Weight w) {
  HT_CHECK(w >= 0.0);
  vertex_weights_[static_cast<std::size_t>(v)] = w;
  // Weights feed flow capacities: a finalized graph whose weights change
  // must present a new cache key or reused engines would answer for the
  // old weights.
  if (finalized_) uid_ = next_structure_uid();
}

Weight Graph::total_vertex_weight() const {
  return std::accumulate(vertex_weights_.begin(), vertex_weights_.end(), 0.0);
}

Weight Graph::total_edge_weight() const {
  Weight sum = 0.0;
  for (const auto& e : edges_) sum += e.weight;
  return sum;
}

void Graph::finalize() {
  if (finalized_) return;
  const auto n = static_cast<std::size_t>(num_vertices());
  adj_offsets_.assign(n + 1, 0);
  for (const auto& e : edges_) {
    ++adj_offsets_[static_cast<std::size_t>(e.u) + 1];
    ++adj_offsets_[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) adj_offsets_[i + 1] += adj_offsets_[i];
  adj_.assign(static_cast<std::size_t>(adj_offsets_[n]), AdjEntry{});
  std::vector<std::int64_t> cursor(adj_offsets_.begin(),
                                   adj_offsets_.end() - 1);
  for (EdgeId id = 0; id < num_edges(); ++id) {
    const Edge& e = edges_[static_cast<std::size_t>(id)];
    adj_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.u)]++)] =
        AdjEntry{e.v, id};
    adj_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.v)]++)] =
        AdjEntry{e.u, id};
  }
  uid_ = next_structure_uid();
  finalized_ = true;
}

Weight Graph::cut_weight(const std::vector<bool>& in_set) const {
  HT_CHECK(in_set.size() == vertex_weights_.size());
  Weight sum = 0.0;
  for (const auto& e : edges_) {
    if (in_set[static_cast<std::size_t>(e.u)] !=
        in_set[static_cast<std::size_t>(e.v)])
      sum += e.weight;
  }
  return sum;
}

Weight Graph::set_weight(const std::vector<VertexId>& vertices) const {
  Weight sum = 0.0;
  for (VertexId v : vertices) sum += vertex_weight(v);
  return sum;
}

std::string Graph::debug_string() const {
  std::ostringstream os;
  os << "Graph(n=" << num_vertices() << ", m=" << num_edges() << ")";
  return os.str();
}

std::pair<std::vector<std::int32_t>, std::int32_t> connected_components(
    const Graph& g) {
  return connected_components_excluding(
      g, std::vector<bool>(static_cast<std::size_t>(g.num_vertices()), false));
}

std::pair<std::vector<std::int32_t>, std::int32_t>
connected_components_excluding(const Graph& g,
                               const std::vector<bool>& removed) {
  HT_CHECK(g.finalized());
  const auto n = static_cast<std::size_t>(g.num_vertices());
  HT_CHECK(removed.size() == n);
  std::vector<std::int32_t> comp(n, -1);
  std::int32_t count = 0;
  std::vector<VertexId> stack;
  for (VertexId start = 0; start < g.num_vertices(); ++start) {
    const auto s = static_cast<std::size_t>(start);
    if (removed[s] || comp[s] != -1) continue;
    comp[s] = count;
    stack.push_back(start);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (const AdjEntry& a : g.neighbors(v)) {
        const auto t = static_cast<std::size_t>(a.to);
        if (removed[t] || comp[t] != -1) continue;
        comp[t] = count;
        stack.push_back(a.to);
      }
    }
    ++count;
  }
  return {std::move(comp), count};
}

InducedSubgraph induced_subgraph(const Graph& g,
                                 const std::vector<VertexId>& vertices) {
  static ht::obs::Counter& materializations =
      ht::obs::MetricsRegistry::global().counter("view.materializations");
  materializations.add();
  std::vector<VertexId> new_of_old(static_cast<std::size_t>(g.num_vertices()),
                                   -1);
  InducedSubgraph out;
  out.graph.resize(static_cast<VertexId>(vertices.size()));
  out.old_of_new = vertices;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const VertexId old = vertices[i];
    HT_CHECK(0 <= old && old < g.num_vertices());
    HT_CHECK_MSG(new_of_old[static_cast<std::size_t>(old)] == -1,
                 "duplicate vertex " << old << " in induced_subgraph");
    new_of_old[static_cast<std::size_t>(old)] = static_cast<VertexId>(i);
    out.graph.set_vertex_weight(static_cast<VertexId>(i),
                                g.vertex_weight(old));
  }
  for (const Edge& e : g.edges()) {
    const VertexId nu = new_of_old[static_cast<std::size_t>(e.u)];
    const VertexId nv = new_of_old[static_cast<std::size_t>(e.v)];
    if (nu != -1 && nv != -1) out.graph.add_edge(nu, nv, e.weight);
  }
  out.graph.finalize();
  return out;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  return connected_components(g).second == 1;
}

}  // namespace ht::graph
