#include "cuttree/vertex_cut_tree.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "partition/min_ratio_cut.hpp"
#include "util/wavefront.hpp"

namespace ht::cuttree {

using ht::graph::Graph;

namespace {

/// Pieces of at most this many vertices use the exact min-ratio oracle
/// (exponential in the piece size).
constexpr std::size_t kExactOracleLimit = 10;

/// Outcome of processing one piece: either the piece survives (no cut
/// below threshold) or it is split by a separator into components.
struct PieceOutcome {
  bool is_final = false;
  std::vector<VertexId> separator;                // original ids
  std::vector<std::vector<VertexId>> children;    // original ids
};

}  // namespace

VertexCutTreeResult build_vertex_cut_tree(const Graph& g,
                                          const VertexCutTreeOptions& options) {
  HT_CHECK(g.finalized());
  const VertexId n = g.num_vertices();
  HT_CHECK(n >= 1);
  const double total_weight = std::max(g.total_vertex_weight(), 1.0);

  double alpha = options.alpha;
  if (alpha <= 0.0)
    alpha = std::sqrt(std::max(1.0, std::log2(static_cast<double>(n) + 1.0)));
  // f(W) = 1 / sqrt(alpha * log n * W); the analysis needs alpha*f(W)=o(1),
  // so clamp the threshold below 1/2.
  const double log_n = std::max(1.0, std::log2(static_cast<double>(n) + 1.0));
  double threshold =
      options.threshold_override > 0.0
          ? options.threshold_override
          : std::min(0.45, alpha / std::sqrt(alpha * log_n * total_weight));

  VertexCutTreeResult out;
  out.threshold = threshold;
  ht::obs::TraceSpan trace("vertex_cut_tree");
  trace.arg("n", n);
  trace.arg("threshold", threshold);

  // Independent-piece peeling over the pool. Each piece's oracle draws
  // from a stream derived from the piece index, so any thread count
  // produces the same tree.
  std::vector<std::vector<VertexId>> roots(1);
  roots[0].resize(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v)
    roots[0][static_cast<std::size_t>(v)] = v;

  std::vector<std::vector<VertexId>> final_pieces;
  std::vector<VertexId> separator;

  const auto map = [&](const std::vector<VertexId>& piece,
                       ht::Rng& rng) -> PieceOutcome {
    ht::obs::TraceSpan span("vct.piece_oracle");
    span.arg("piece_size", piece.size());
    PieceOutcome result;
    // A piece mapped after the run stopped skips its oracle: the fold
    // loop will drain it into a final piece anyway (Lemma 5 makes that a
    // valid stopping rule), so the work would be discarded.
    if (piece.size() <= 1 || ht::run_stopped()) {
      result.is_final = true;
      return result;
    }
    // The min-ratio oracle runs on the piece's induced copy; local id i is
    // piece[i].
    const auto sub = ht::graph::induced_subgraph(g, piece);
    ht::partition::VertexSeparator sep;
    if (piece.size() <= kExactOracleLimit) {
      sep = ht::partition::min_ratio_vertex_cut_exact(sub.graph);
    } else {
      sep = ht::partition::min_ratio_vertex_cut(sub.graph, rng);
    }
    if (sep.valid) span.arg("sparsity", sep.sparsity);
    if (!sep.valid || sep.sparsity >= threshold) {
      span.arg("split", 0);
      result.is_final = true;
      return result;
    }
    span.arg("split", 1);
    span.arg("separator_size", sep.x.size());
    for (VertexId local : sep.x)
      result.separator.push_back(piece[static_cast<std::size_t>(local)]);
    // Recurse on the connected components of piece \ X. (A and B are
    // unions of components by construction, but splitting to actual
    // components peels faster and never hurts domination.)
    std::vector<bool> removed(piece.size(), false);
    for (VertexId local : sep.x)
      removed[static_cast<std::size_t>(local)] = true;
    auto [comp, count] =
        ht::graph::connected_components_excluding(sub.graph, removed);
    result.children.resize(static_cast<std::size_t>(count));
    for (std::size_t local = 0; local < piece.size(); ++local) {
      const auto c = comp[local];
      if (c >= 0)
        result.children[static_cast<std::size_t>(c)].push_back(piece[local]);
    }
    return result;
  };
  const auto fold = [&](std::vector<VertexId>&& piece, PieceOutcome&& result,
                        const auto& emit) {
    if (result.is_final) {
      final_pieces.push_back(std::move(piece));
      return;
    }
    separator.insert(separator.end(), result.separator.begin(),
                     result.separator.end());
    for (auto& child : result.children)
      if (!child.empty()) emit(std::move(child));
  };
  // Early stop: every piece still queued becomes a final piece — the tree
  // below stays a valid (coarser) cut tree, just with fewer separators.
  const auto drain = [&](std::vector<VertexId>&& piece) {
    if (!piece.empty()) final_pieces.push_back(std::move(piece));
  };
  out.status = ht::parallel_wavefront<std::vector<VertexId>, PieceOutcome>(
      std::move(roots), options.seed, map, fold, drain);

  // Assemble the Figure 1 tree.
  double separator_weight = 0.0;
  for (VertexId s : separator) separator_weight += g.vertex_weight(s);

  Tree tree;
  tree.reserve_vertices(n);
  const NodeId root = tree.add_node(-1, separator_weight);
  for (VertexId s : separator) {
    const NodeId leaf = tree.add_node(root, g.vertex_weight(s));
    tree.set_vertex_node(s, leaf);
  }
  for (const auto& piece : final_pieces) {
    const NodeId anchor = tree.add_node(root, kInfiniteNodeWeight);
    for (VertexId v : piece) {
      const NodeId leaf = tree.add_node(anchor, g.vertex_weight(v));
      tree.set_vertex_node(v, leaf);
    }
  }
  tree.validate();

  trace.arg("final_pieces", final_pieces.size());
  trace.arg("separator_size", separator.size());
  trace.arg("separator_weight", separator_weight);

  out.tree = std::move(tree);
  out.separator_vertices = std::move(separator);
  out.separator_weight = separator_weight;
  out.num_pieces = static_cast<std::int32_t>(final_pieces.size());
  return out;
}

}  // namespace ht::cuttree
