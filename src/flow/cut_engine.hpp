// ht::CutEngine — the unified minimum-cut surface of the flow layer.
//
// One engine object, five queries:
//
//   ht::CutEngine engine;
//   auto cut  = engine.min_edge_cut(g, {s}, {t});     // delta_G(A,B)
//   auto vcut = engine.min_vertex_cut(g, {s}, {t});   // gamma_G(A,B)
//   auto hcut = engine.min_hyperedge_cut(h, {s}, {t});// delta_H(A,B)
//   auto tree = engine.gomory_hu(g);                  // graph cut tree
//   auto htree = engine.gomory_hu(h);                 // hypergraph cut tree
//
// Exactness contract: every query answers with the canonical min cut, the
// side reachable from the sources in the residual network of a Dinic max
// flow (the unique inclusion-minimal min cut). reset() restores exact
// capacities, so the answer is byte-identical whether the network came
// from the thread's engine cache or was freshly built (FlowReuseScope).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "util/status.hpp"

namespace ht::flow {

// ---------------------------------------------------------------------------
// Results

struct EdgeCutResult {
  double value = 0.0;
  std::vector<ht::graph::EdgeId> cut_edges;
  std::vector<bool> source_side;  // indicator over vertices; A-side
  /// False when the ambient RunContext interrupted the max-flow solve: the
  /// witness then need not separate A from B and value is not a min cut.
  /// Anytime callers must check this before trusting the cut.
  bool complete = true;
};

struct VertexCutResult {
  double value = 0.0;
  std::vector<ht::graph::VertexId> cut_vertices;
  /// See EdgeCutResult::complete.
  bool complete = true;
};

struct HyperedgeCutResult {
  double value = 0.0;
  std::vector<ht::hypergraph::EdgeId> cut_edges;
  /// Indicator over vertices; A-side. After a complete flow these are
  /// exactly the vertices still connected to A once cut_edges are removed.
  std::vector<bool> source_side;
  /// See EdgeCutResult::complete.
  bool complete = true;
};

struct GomoryHuTree {
  // parent[v] for v != root (parent[root] == -1), with cut value
  // parent_cut[v] = mincut(v, parent[v]).
  std::vector<ht::graph::VertexId> parent;
  std::vector<double> parent_cut;
  ht::graph::VertexId root = 0;

  /// Value of the minimum s-t cut read off the tree (min edge on the
  /// path). Walks the tree path in place: no allocation, O(depth).
  double min_cut(ht::graph::VertexId s, ht::graph::VertexId t) const;

  /// The tree as a Graph whose edge weights are the cut values.
  ht::graph::Graph as_graph() const;
};

/// gomory_hu with anytime semantics under the ambient RunContext.
struct GomoryHuRunResult {
  GomoryHuTree tree;
  /// Ok when all n-1 cuts were applied; otherwise the run's stop status.
  Status status;
  /// Number of non-root vertices whose parent cut is exact. Vertices
  /// beyond the stop point keep their provisional parent with
  /// parent_cut == 0 — a (pessimistic) lower bound, so tree.min_cut()
  /// never over-reports on a partial tree.
  ht::graph::VertexId applied = 0;
};

struct HypergraphGomoryHuTree {
  std::vector<ht::hypergraph::VertexId> parent;  // -1 at the root
  std::vector<double> parent_cut;
  ht::hypergraph::VertexId root = 0;

  /// Exact min s-t hyperedge cut value read off the tree (the same
  /// allocation-free walk as GomoryHuTree::min_cut).
  double min_cut(ht::hypergraph::VertexId s,
                 ht::hypergraph::VertexId t) const;
};

/// hypergraph_gomory_hu with anytime semantics (see GomoryHuRunResult).
struct HypergraphGomoryHuRunResult {
  HypergraphGomoryHuTree tree;
  Status status;
  /// Vertices with exact parent cuts; beyond this the provisional
  /// parent_cut == 0 is a pessimistic lower bound.
  ht::hypergraph::VertexId applied = 0;
};

// ---------------------------------------------------------------------------
// Engine

class CutEngine {
 public:
  /// Minimum edge cut separating disjoint non-empty A and B.
  EdgeCutResult min_edge_cut(const ht::graph::Graph& g,
                             const std::vector<ht::graph::VertexId>& a,
                             const std::vector<ht::graph::VertexId>& b) const;

  /// Minimum-weight vertex cut gamma_G(A,B): a vertex set X (possibly
  /// intersecting A or B) whose removal disconnects A \ X from B \ X.
  /// A and B must be disjoint and non-empty.
  VertexCutResult min_vertex_cut(
      const ht::graph::Graph& g, const std::vector<ht::graph::VertexId>& a,
      const std::vector<ht::graph::VertexId>& b) const;

  /// Minimum-weight hyperedge cut delta_H(A,B) separating A from B.
  HyperedgeCutResult min_hyperedge_cut(
      const ht::hypergraph::Hypergraph& h,
      const std::vector<ht::hypergraph::VertexId>& a,
      const std::vector<ht::hypergraph::VertexId>& b) const;

  /// Gusfield Gomory–Hu tree with n-1 max-flow computations, stopping
  /// early at the apply boundary under the ambient RunContext. Requires a
  /// finalized connected graph with n >= 2. Edge weights are used; vertex
  /// weights are ignored.
  GomoryHuRunResult gomory_hu(const ht::graph::Graph& g) const;

  /// Gomory–Hu tree for hypergraph s-t cuts (Lawler-expansion oracle).
  HypergraphGomoryHuRunResult gomory_hu(
      const ht::hypergraph::Hypergraph& h) const;
};

/// Drops every flow network cached on the calling thread, so the next
/// query on each structure builds its network again (tests use it to
/// compare cold and warm runs).
void clear_network_cache();

// ---------------------------------------------------------------------------
// Witness predicates (plain combinatorics, no flow involved)

/// True if removing `cut` (vertex set) disconnects every a in A\cut from
/// every b in B\cut — the correctness predicate for vertex cuts, used by
/// tests and by the witness re-evaluation.
bool vertex_cut_separates(const ht::graph::Graph& g,
                          const std::vector<ht::graph::VertexId>& cut,
                          const std::vector<ht::graph::VertexId>& a,
                          const std::vector<ht::graph::VertexId>& b);

/// True if removing hyperedges `cut` disconnects A from B in H.
bool hyperedge_cut_separates(const ht::hypergraph::Hypergraph& h,
                             const std::vector<ht::hypergraph::EdgeId>& cut,
                             const std::vector<ht::hypergraph::VertexId>& a,
                             const std::vector<ht::hypergraph::VertexId>& b);

}  // namespace ht::flow

namespace ht {
// The facade name promised by the public surface: ht::CutEngine.
using flow::CutEngine;
}  // namespace ht
