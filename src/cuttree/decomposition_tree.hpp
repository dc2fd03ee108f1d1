// Laminar decomposition trees for graph edge cuts — the stand-in for the
// Räcke decomposition trees [17] that the paper's Proposition 1 and the
// graph-bisection black box consume.
//
// Construction: recursively split every cluster with the sparsest edge
// cut (spectral sweep + local search; exact on small clusters), producing
// a laminar family. Tree nodes are clusters, leaves are single vertices,
// and the edge above a cluster C carries weight delta_G(C). The union
// bound makes any such tree a *dominating* edge cut tree:
// delta_T(A,B) >= delta_G(A,B) for all disjoint A, B; its measured quality
// on graphs is polylogarithmic-ish (bench_graph_bisection charts it),
// matching the regime where [17] proves O(log n).
#pragma once

#include <cstdint>

#include "cuttree/tree.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace ht::cuttree {

struct DecompositionOptions {
  std::uint64_t seed = 0x5eedULL;
};

struct DecompositionTreeResult {
  Tree tree;
  /// Ok when every cluster was split down to the stopping rule; a stop
  /// status when the ambient RunContext ended the run early. The partial
  /// tree is still a valid dominating tree: clusters still queued at the
  /// stop expand into stars of leaves carrying their exact singleton cuts
  /// (the union bound needs nothing more).
  Status status;
};

/// Builds the decomposition tree of a finalized graph. Every original
/// vertex is embedded as a leaf; internal nodes have weight
/// kInfiniteNodeWeight (they are clusters, not vertices — only edges
/// matter), and edge weights are the induced cuts delta_G(cluster).
/// Stops early at wavefront piece boundaries under the ambient RunContext.
DecompositionTreeResult build_decomposition_tree_run(
    const ht::graph::Graph& g, const DecompositionOptions& options = {});

}  // namespace ht::cuttree
