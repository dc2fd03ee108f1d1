// Section 3.1: construction of a vertex cut tree of quality
// ~O(sqrt(W)) for a vertex-weighted graph.
//
// Algorithm (Figure 1): repeatedly extract approximate min-ratio vertex
// separators while one of sparsity below alpha * f(W) exists, with
// f(W) = 1 / sqrt(alpha * log(n) * W); collect all separator vertices into
// S. The tree is the root (weight w(S)) with one child per separator
// vertex (weight w(s)) and one infinite-weight child per surviving
// subgraph G_i carrying G_i's vertices as leaves.
//
// Lemma 5 (domination) holds for ANY stopping rule — it only uses the tree
// shape — so the construction is dominating even with our surrogate
// oracle; Lemma 6 ties the quality to the oracle's alpha, which the
// benches measure.
#pragma once

#include <cstdint>
#include <vector>

#include "cuttree/tree.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace ht::cuttree {

struct VertexCutTreeOptions {
  /// Assumed approximation factor of the min-ratio oracle (enters the
  /// stopping threshold alpha * f(W)). <= 0 means sqrt(log2 n).
  double alpha = 0.0;
  std::uint64_t seed = 0x5eedULL;
  /// Overrides the sparsity stopping threshold entirely when > 0
  /// (used by ablation benches).
  double threshold_override = 0.0;
};

struct VertexCutTreeResult {
  Tree tree;
  std::vector<VertexId> separator_vertices;  // the set S
  double separator_weight = 0.0;             // w(S)
  std::int32_t num_pieces = 0;               // surviving subgraphs G_i
  double threshold = 0.0;                    // sparsity threshold used
  /// Ok when peeling ran to the stopping rule; a stop status when the
  /// ambient RunContext ended the run early. Either way `tree` is a valid
  /// dominating cut tree: Lemma 5 holds for ANY stopping rule, so pieces
  /// still queued at the stop simply become final pieces.
  Status status;
};

/// Builds the Section 3.1 vertex cut tree for a finalized graph. Works on
/// disconnected graphs too (components become separate pieces). Pieces are
/// peeled in parallel over the global thread pool; each piece's oracle RNG
/// stream is derived from (seed, piece index), so the result is
/// byte-identical for every thread count.
VertexCutTreeResult build_vertex_cut_tree(
    const ht::graph::Graph& g, const VertexCutTreeOptions& options = {});

}  // namespace ht::cuttree
