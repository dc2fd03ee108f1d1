#include "flow/cut_engine.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>

#include "flow/flow_network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/run_context.hpp"

namespace ht::flow {

namespace {

using ht::graph::Graph;
using ht::hypergraph::Hypergraph;
using GraphVertexId = ht::graph::VertexId;
using HyperVertexId = ht::hypergraph::VertexId;

// --- metrics ---------------------------------------------------------------

/// Max-flow invocations (min_edge_cut / min_vertex_cut /
/// min_hyperedge_cut), complete or interrupted.
ht::obs::Counter& max_flow_calls_counter() {
  static ht::obs::Counter& c =
      ht::obs::MetricsRegistry::global().counter("flow.max_flow_calls");
  return c;
}

// --- network cache ---------------------------------------------------------

/// The calling thread's four most recently used flow networks, keyed by
/// (kind, structure uid); a miss rebuilds the least recently used slot.
/// Hits, misses and the largest footprint of one thread's cached networks
/// are the metrics "arena.hits", "arena.misses" and "arena.peak_bytes".
/// A query uses its network only inside itself and never waits on the
/// pool, so no other task on this thread can evict the network mid-query.
class NetworkCache {
 public:
  static NetworkCache& local() {
    thread_local NetworkCache cache;
    return cache;
  }

  template <typename BuildFn>
  FlowNetwork& acquire(FlowNetworkKind kind, std::uint64_t uid,
                       BuildFn&& build) {
    static ht::obs::Counter& hits =
        ht::obs::MetricsRegistry::global().counter("arena.hits");
    static ht::obs::Counter& misses =
        ht::obs::MetricsRegistry::global().counter("arena.misses");
    static ht::obs::Gauge& peak_bytes =
        ht::obs::MetricsRegistry::global().gauge("arena.peak_bytes");
    for (Slot& slot : slots_) {
      if (slot.uid == uid && slot.kind == kind) {
        slot.last_use = ++clock_;
        hits.add();
        return slot.network;
      }
    }
    misses.add();
    // Empty slots have last_use 0, so they fill before anything is evicted.
    Slot& slot = *std::min_element(
        slots_.begin(), slots_.end(),
        [](const Slot& a, const Slot& b) { return a.last_use < b.last_use; });
    slot = Slot{};  // frees the evicted network before the build
    slot.network = build();
    slot.kind = kind;
    slot.uid = uid;
    slot.last_use = ++clock_;
    std::size_t bytes = 0;
    for (const Slot& s : slots_) bytes += s.network.memory_bytes();
    peak_bytes.update_max(static_cast<std::int64_t>(bytes));
    return slot.network;
  }

  void clear() {
    for (Slot& slot : slots_) slot = Slot{};
  }

 private:
  struct Slot {
    FlowNetworkKind kind = kEdgeCutNetwork;
    std::uint64_t uid = 0;  // 0: empty
    std::uint64_t last_use = 0;
    FlowNetwork network;
  };
  std::array<Slot, 4> slots_;
  std::uint64_t clock_ = 0;
};

/// The cached network for (kind, uid), or a freshly built one parked in
/// `fresh` when reuse is off or uid is 0.
template <typename BuildFn>
FlowNetwork& acquire_network(FlowNetworkKind kind, std::uint64_t uid,
                             std::optional<FlowNetwork>& fresh,
                             BuildFn&& build) {
  if (flow_reuse_enabled() && uid != 0)
    return NetworkCache::local().acquire(kind, uid,
                                         static_cast<BuildFn&&>(build));
  fresh.emplace(build());
  return *fresh;
}

}  // namespace

void clear_network_cache() { NetworkCache::local().clear(); }

// ---------------------------------------------------------------------------
// Point queries

EdgeCutResult CutEngine::min_edge_cut(
    const Graph& g, const std::vector<GraphVertexId>& a,
    const std::vector<GraphVertexId>& b) const {
  HT_CHECK(g.finalized());
  // Span args stay schedule-independent: cut value, augmenting-path and
  // search-node counts are deterministic (reset() restores exact
  // capacities), while whether the network was reused is
  // thread-affinity-dependent and is reported through metrics only.
  ht::obs::TraceSpan span("flow.min_edge_cut");
  span.arg("a", a.size());
  span.arg("b", b.size());
  max_flow_calls_counter().add();
  HT_CHECK(!a.empty() && !b.empty());
  const NodeId n = g.num_vertices();
  std::optional<FlowNetwork> fresh;
  FlowNetwork& net =
      acquire_network(kEdgeCutNetwork, g.uid(), fresh,
                      [&g] { return FlowNetwork::edge_cut_network(g); });
  net.reset();
  for (GraphVertexId v : a) net.attach_source(v);
  for (GraphVertexId v : b) net.attach_sink(v);
  net.max_flow();

  EdgeCutResult out;
  out.complete = net.last_flow_complete();
  const std::vector<char>& reach = net.source_side();
  out.source_side.assign(static_cast<std::size_t>(n), false);
  for (NodeId v = 0; v < n; ++v)
    out.source_side[static_cast<std::size_t>(v)] =
        reach[static_cast<std::size_t>(v)] != 0;
  for (ht::graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    if (out.source_side[static_cast<std::size_t>(edge.u)] !=
        out.source_side[static_cast<std::size_t>(edge.v)]) {
      out.cut_edges.push_back(e);
      out.value += edge.weight;
    }
  }
  span.arg("cut_value", out.value);
  span.arg("augmenting_paths", net.last_augmenting_paths());
  span.arg("search_nodes", net.last_search_nodes());
  return out;
}

VertexCutResult CutEngine::min_vertex_cut(
    const Graph& g, const std::vector<GraphVertexId>& a,
    const std::vector<GraphVertexId>& b) const {
  HT_CHECK(g.finalized());
  ht::obs::TraceSpan span("flow.min_vertex_cut");
  span.arg("a", a.size());
  span.arg("b", b.size());
  max_flow_calls_counter().add();
  HT_CHECK(!a.empty() && !b.empty());
  const GraphVertexId n = g.num_vertices();
  // Node splitting: v_in = 2v, v_out = 2v+1 (see vertex_cut_network).
  auto v_in = [](GraphVertexId v) { return static_cast<NodeId>(2 * v); };
  auto v_out = [](GraphVertexId v) { return static_cast<NodeId>(2 * v + 1); };
  std::optional<FlowNetwork> fresh;
  FlowNetwork& net =
      acquire_network(kVertexCutNetwork, g.uid(), fresh,
                      [&g] { return FlowNetwork::vertex_cut_network(g); });
  net.reset();
  for (GraphVertexId v : a) net.attach_source(v);
  for (GraphVertexId v : b) net.attach_sink(v);
  net.max_flow();

  VertexCutResult out;
  out.complete = net.last_flow_complete();
  const std::vector<char>& reach = net.source_side();
  for (GraphVertexId v = 0; v < n; ++v) {
    if (reach[static_cast<std::size_t>(v_in(v))] &&
        !reach[static_cast<std::size_t>(v_out(v))]) {
      out.cut_vertices.push_back(v);
      out.value += g.vertex_weight(v);
    }
  }
  span.arg("cut_value", out.value);
  span.arg("augmenting_paths", net.last_augmenting_paths());
  span.arg("search_nodes", net.last_search_nodes());
  HT_DCHECK(!out.complete || vertex_cut_separates(g, out.cut_vertices, a, b));
  return out;
}

HyperedgeCutResult CutEngine::min_hyperedge_cut(
    const Hypergraph& h, const std::vector<HyperVertexId>& a,
    const std::vector<HyperVertexId>& b) const {
  HT_CHECK(h.finalized());
  ht::obs::TraceSpan span("flow.min_hyperedge_cut");
  span.arg("a", a.size());
  span.arg("b", b.size());
  max_flow_calls_counter().add();
  HT_CHECK(!a.empty() && !b.empty());
  const auto n = h.num_vertices();
  // Lawler expansion node ids (see hyperedge_cut_network).
  auto e_in = [n](ht::hypergraph::EdgeId e) {
    return static_cast<NodeId>(n + 2 * e);
  };
  auto e_out = [n](ht::hypergraph::EdgeId e) {
    return static_cast<NodeId>(n + 2 * e + 1);
  };
  std::optional<FlowNetwork> fresh;
  FlowNetwork& net =
      acquire_network(kHyperedgeCutNetwork, h.uid(), fresh,
                      [&h] { return FlowNetwork::hyperedge_cut_network(h); });
  net.reset();
  for (auto v : a) net.attach_source(v);
  for (auto v : b) net.attach_sink(v);
  net.max_flow();

  HyperedgeCutResult out;
  out.complete = net.last_flow_complete();
  const std::vector<char>& reach = net.source_side();
  out.source_side.assign(static_cast<std::size_t>(n), false);
  for (HyperVertexId v = 0; v < n; ++v)
    out.source_side[static_cast<std::size_t>(v)] =
        reach[static_cast<std::size_t>(v)] != 0;
  // Hyperedge e is cut iff e_in is reachable and e_out is not (for any
  // max flow, e_out is reachable exactly when all pins are).
  for (ht::hypergraph::EdgeId e = 0; e < h.num_edges(); ++e) {
    if (reach[static_cast<std::size_t>(e_in(e))] &&
        !reach[static_cast<std::size_t>(e_out(e))]) {
      out.cut_edges.push_back(e);
      out.value += h.edge_weight(e);
    }
  }
  span.arg("cut_value", out.value);
  span.arg("augmenting_paths", net.last_augmenting_paths());
  span.arg("search_nodes", net.last_search_nodes());
  HT_DCHECK(!out.complete || hyperedge_cut_separates(h, out.cut_edges, a, b));
  return out;
}

// ---------------------------------------------------------------------------
// Gomory–Hu trees

namespace {

/// Minimum parent_cut on the s..t tree path, with no stored path: climb to
/// the root once per endpoint for the depths, lift the deeper endpoint,
/// then lift both until they meet. Each side folds its edges bottom-up and
/// the s-side minimum is combined first, so the result equals one
/// std::min fold over the s-side edges and then the t-side edges, bit for
/// bit (std::min keeps the earlier of two equal values, e.g. -0.0, +0.0).
double tree_path_min(std::span<const std::int32_t> parent,
                     std::span<const double> parent_cut, std::int32_t s,
                     std::int32_t t) {
  HT_CHECK(s != t);
  const auto up = [&](std::int32_t v) {
    return parent[static_cast<std::size_t>(v)];
  };
  const auto depth = [&](std::int32_t v) {
    int d = 0;
    for (; up(v) != -1; v = up(v)) ++d;
    return d;
  };
  const auto take = [&](double& best, std::int32_t& v) {
    best = std::min(best, parent_cut[static_cast<std::size_t>(v)]);
    v = up(v);
  };
  int ds = depth(s);
  int dt = depth(t);
  double best_s = kInfiniteCapacity;
  double best_t = kInfiniteCapacity;
  for (; ds > dt; --ds) take(best_s, s);
  for (; dt > ds; --dt) take(best_t, t);
  while (s != t) {
    take(best_s, s);
    take(best_t, t);
  }
  return std::min(best_s, best_t);
}

}  // namespace

double GomoryHuTree::min_cut(GraphVertexId s, GraphVertexId t) const {
  return tree_path_min(parent, parent_cut, s, t);
}

Graph GomoryHuTree::as_graph() const {
  Graph g(static_cast<GraphVertexId>(parent.size()));
  for (std::size_t v = 0; v < parent.size(); ++v) {
    if (parent[v] != -1)
      g.add_edge(static_cast<GraphVertexId>(v), parent[v], parent_cut[v]);
  }
  g.finalize();
  return g;
}

double HypergraphGomoryHuTree::min_cut(HyperVertexId s,
                                       HyperVertexId t) const {
  return tree_path_min(parent, parent_cut, s, t);
}

namespace {

/// Gusfield's n-1 flows, the loop both Gomory–Hu builders share. Builds
/// out.tree over n vertices rooted at 0 and fills out.applied and
/// out.status.
///
/// Each vertex i in ascending order solves `solve(i, j)` against its live
/// parent j and applies the cut: it records the cut value as i's parent
/// cut, re-hangs onto i every vertex k > i that hangs from j and lies on
/// i's side, and splices i between j and j's parent when that parent lies
/// on i's side. For hypergraphs the side is the vertex part of the Lawler
/// network's smallest minimum cut, which is exactly the set of vertices
/// still connected to i once the cut hyperedges are removed. The loop is
/// serial on purpose. Inside a snapshot build the pool's workers are busy
/// with the other two trees, so flows solved ahead of their apply against
/// a stale parent would run on this task's own thread and sit on the
/// build's critical path; serial, a complete build runs exactly n-1 flows
/// at every pool size.
template <typename Result, typename SolveFn>
void run_gusfield(std::int32_t n, Result& out, const SolveFn& solve) {
  auto& parent = out.tree.parent;
  auto& parent_cut = out.tree.parent_cut;
  const auto at = [](std::int32_t v) { return static_cast<std::size_t>(v); };
  out.tree.root = 0;
  parent.assign(at(n), 0);
  parent[0] = -1;
  parent_cut.assign(at(n), 0.0);
  RunState* run = current_run_state();
  bool interrupted = false;
  for (std::int32_t i = 1; i < n; ++i) {
    // Anytime stop, at the apply boundary only: vertices before i keep
    // their exact cuts, i and beyond stay provisional. An interrupted
    // (incomplete) flow is never applied — its witness need not separate.
    if (run != nullptr && !run->check().ok()) {
      interrupted = true;
      break;
    }
    const std::int32_t j = parent[at(i)];
    const auto cut = solve(i, j);
    if (!cut.complete) {
      interrupted = true;
      break;
    }
    const std::vector<bool>& side = cut.source_side;
    HT_CHECK(!side[at(j)]);
    parent_cut[at(i)] = cut.value;
    for (std::int32_t k = i + 1; k < n; ++k) {
      if (parent[at(k)] == j && side[at(k)]) parent[at(k)] = i;
    }
    const std::int32_t pj = parent[at(j)];
    if (pj != -1 && side[at(pj)]) {
      parent[at(i)] = pj;
      parent_cut[at(i)] = parent_cut[at(j)];
      parent[at(j)] = i;
      parent_cut[at(j)] = cut.value;
    }
    ++out.applied;
    if (run != nullptr) run->note_piece();
  }
  out.status = interrupted && run != nullptr ? run->status() : Status::Ok();
}

}  // namespace

GomoryHuRunResult CutEngine::gomory_hu(const Graph& g) const {
  HT_CHECK(g.finalized());
  const GraphVertexId n = g.num_vertices();
  HT_CHECK(n >= 2);
  // One span per builder run; the nested flow.min_edge_cut spans, one per
  // Gusfield flow, carry the per-flow detail.
  ht::obs::TraceSpan trace("gomory_hu");
  trace.arg("n", n);
  GomoryHuRunResult out;
  run_gusfield(n, out, [&](GraphVertexId i, GraphVertexId j) {
    return min_edge_cut(g, {i}, {j});
  });
  trace.arg("applied", out.applied);
  return out;
}

HypergraphGomoryHuRunResult CutEngine::gomory_hu(const Hypergraph& h) const {
  HT_CHECK(h.finalized());
  const HyperVertexId n = h.num_vertices();
  HT_CHECK(n >= 2);
  // One span per builder run, one nested flow span per Gusfield flow.
  ht::obs::TraceSpan trace("gomory_hu.hypergraph");
  trace.arg("n", n);
  trace.arg("m", h.num_edges());
  HypergraphGomoryHuRunResult out;
  run_gusfield(n, out, [&](HyperVertexId i, HyperVertexId j) {
    return min_hyperedge_cut(h, {i}, {j});
  });
  trace.arg("applied", out.applied);
  return out;
}

// ---------------------------------------------------------------------------
// Witness predicates

bool vertex_cut_separates(const Graph& g,
                          const std::vector<GraphVertexId>& cut,
                          const std::vector<GraphVertexId>& a,
                          const std::vector<GraphVertexId>& b) {
  HT_CHECK(g.finalized());
  std::vector<bool> removed(static_cast<std::size_t>(g.num_vertices()), false);
  for (GraphVertexId v : cut) removed[static_cast<std::size_t>(v)] = true;
  auto [comp, count] = ht::graph::connected_components_excluding(g, removed);
  (void)count;
  std::vector<char> a_comps(static_cast<std::size_t>(
                                std::max<std::int32_t>(count, 1)),
                            0);
  for (GraphVertexId v : a) {
    const auto c = comp[static_cast<std::size_t>(v)];
    if (c >= 0) a_comps[static_cast<std::size_t>(c)] = 1;
  }
  for (GraphVertexId v : b) {
    const auto c = comp[static_cast<std::size_t>(v)];
    if (c >= 0 && a_comps[static_cast<std::size_t>(c)]) return false;
  }
  return true;
}

bool hyperedge_cut_separates(const Hypergraph& h,
                             const std::vector<ht::hypergraph::EdgeId>& cut,
                             const std::vector<HyperVertexId>& a,
                             const std::vector<HyperVertexId>& b) {
  HT_CHECK(h.finalized());
  std::vector<bool> edge_removed(static_cast<std::size_t>(h.num_edges()),
                                 false);
  for (auto e : cut) edge_removed[static_cast<std::size_t>(e)] = true;
  // BFS from A over surviving hyperedges.
  std::vector<bool> visited(static_cast<std::size_t>(h.num_vertices()), false);
  std::vector<bool> edge_done(static_cast<std::size_t>(h.num_edges()), false);
  std::vector<HyperVertexId> stack;
  for (auto v : a) {
    if (!visited[static_cast<std::size_t>(v)]) {
      visited[static_cast<std::size_t>(v)] = true;
      stack.push_back(v);
    }
  }
  while (!stack.empty()) {
    const auto v = stack.back();
    stack.pop_back();
    for (auto e : h.incident_edges(v)) {
      if (edge_removed[static_cast<std::size_t>(e)] ||
          edge_done[static_cast<std::size_t>(e)])
        continue;
      edge_done[static_cast<std::size_t>(e)] = true;
      for (auto u : h.pins(e)) {
        if (!visited[static_cast<std::size_t>(u)]) {
          visited[static_cast<std::size_t>(u)] = true;
          stack.push_back(u);
        }
      }
    }
  }
  for (auto v : b)
    if (visited[static_cast<std::size_t>(v)]) return false;
  return true;
}

}  // namespace ht::flow
