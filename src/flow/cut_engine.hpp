// ht::CutEngine — the unified minimum-cut surface of the flow layer.
//
// One engine object, one options struct, five queries:
//
//   ht::CutEngine engine({.certificate = true});
//   auto cut  = engine.min_edge_cut(g, {s}, {t});     // delta_G(A,B)
//   auto vcut = engine.min_vertex_cut(g, {s}, {t});   // gamma_G(A,B)
//   auto hcut = engine.min_hyperedge_cut(h, {s}, {t});// delta_H(A,B)
//   auto tree = engine.gomory_hu(g);                  // graph cut tree
//   auto htree = engine.gomory_hu(h);                 // hypergraph cut tree
//
// Every knob — solver choice, certificate sparsification, Gomory–Hu
// ordering, poll cadence — is a FlowOptions field, so benches and
// ht::Solver can A/B them without touching call sites.
//
// Exactness contract: for every FlowOptions combination the engine
// returns byte-identical results to the default configuration, except
// FlowReuse::kArenaAndCuts, which produces a *different but equally
// valid* Gomory–Hu tree (same min-cut values for every pair; the tree
// shape depends on the apply order). Certificates are checked against
// the cut they produce and fall back to the full network on rejection
// (see flow/certificate.hpp); Dinic and push-relabel agree on the
// canonical cut because residual reachability after any max flow yields
// the unique inclusion-minimal min cut.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "util/status.hpp"

namespace ht::flow {

// ---------------------------------------------------------------------------
// Options

/// Which max-flow solver answers the queries.
enum class FlowAlgorithm : std::uint8_t {
  kDinic = 0,        // default; exact augmenting paths, deterministic counts
  kPushRelabel = 1,  // FIFO push-relabel with gap heuristic
};

/// How aggressively the engine reuses work across queries.
enum class FlowReuse : std::uint8_t {
  /// Build a fresh network per query (the pre-arena behaviour); for
  /// equivalence tests and cold-path benches.
  kNone = 0,
  /// Reset-and-reuse cached engines from WorkArena (default). Still
  /// subject to the global FlowReuseScope toggle.
  kArena = 1,
  /// kArena plus Gomory–Hu terminal-pair ordering: vertices are applied
  /// in deterministic virtual batches with pairwise-distinct parents, so
  /// every speculative flow stays valid (no stale recomputes) and the
  /// previous cut's sides steer the batch. Produces a different — equally
  /// valid — tree shape than kArena, which is why it is opt-in.
  kArenaAndCuts = 2,
};

/// The one knob block for every CutEngine query.
struct FlowOptions {
  FlowAlgorithm algorithm = FlowAlgorithm::kDinic;
  /// Build a Nagamochi–Ibaraki / Chekuri–Xu sparse certificate bounded by
  /// the query's degree bound before each edge/hyperedge max flow
  /// (ignored for vertex cuts). Answers stay byte-identical — rejected
  /// certificates fall back to the full network.
  bool certificate = false;
  FlowReuse reuse = FlowReuse::kArena;
  /// Deadline/cancel poll cadence in solver rounds; 0 inherits
  /// RunContext::flow_check_rounds.
  std::uint32_t poll_stride = 0;
};

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
  CutEngine() = default;
  explicit CutEngine(FlowOptions options) : options_(options) {}

  const FlowOptions& options() const { return options_; }

  /// Minimum edge cut separating disjoint non-empty A and B.
  EdgeCutResult min_edge_cut(const ht::graph::Graph& g,
                             const std::vector<ht::graph::VertexId>& a,
                             const std::vector<ht::graph::VertexId>& b) const;

  /// Minimum-weight vertex cut gamma_G(A,B): a vertex set X (possibly
  /// intersecting A or B) whose removal disconnects A \ X from B \ X.
  /// A and B must be disjoint and non-empty. Certificates do not apply.
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

 private:
  FlowOptions options_;
};

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
using flow::FlowAlgorithm;
using flow::FlowOptions;
using flow::FlowReuse;
}  // namespace ht
