#include "cuttree/decomposition_tree.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "hypergraph/hypergraph.hpp"
#include "obs/trace.hpp"
#include "partition/sparsest_cut.hpp"
#include "util/wavefront.hpp"

namespace ht::cuttree {

using ht::graph::Graph;

namespace {

/// Clusters of at most this many vertices are split by the exact sparsest
/// cut (exponential in the cluster size).
constexpr std::size_t kExactSplitLimit = 12;

/// One child slot of a cluster: either a single-vertex leaf or a nested
/// cluster (index into the cluster record table).
struct ChildEntry {
  bool is_leaf = false;
  VertexId vertex = -1;        // leaf only
  std::int32_t cluster = -1;   // cluster only
  double cut = 0.0;            // delta_G of the child (leaf or cluster)
};

struct ClusterRec {
  std::vector<VertexId> vertices;
  std::vector<ChildEntry> children;  // filled by fold, in split order
};

/// Parallel-computable outcome of splitting one cluster.
struct SplitOutcome {
  struct Part {
    std::vector<VertexId> vertices;
    double cut = 0.0;
  };
  // True when the whole cluster bottoms out into single-vertex leaves
  // (small cluster, edgeless cluster, or no valid cut).
  bool expand_leaves = false;
  std::vector<double> leaf_cuts;  // parallel to the cluster's vertices
  std::vector<Part> parts;        // otherwise: the sparsest-cut split
};

// The cuts below cost O(volume of the piece * log) instead of an O(m) scan
// of the whole graph. They rely on Graph having no self-loops and on
// neighbors(v) listing v's edges in increasing edge id, so each sums the
// same terms in the same order as g.cut_weight: bit for bit equal.

/// delta_G({v}): the sum of v's adjacency weights.
double singleton_cut(const Graph& g, VertexId v) {
  double sum = 0.0;
  for (const auto& a : g.neighbors(v)) sum += g.edge(a.edge).weight;
  return sum;
}

/// delta_G(part), where part_of[x] == label exactly for the vertices x of
/// `part`: the crossing edges are collected from the part's adjacency and
/// summed in increasing id.
double set_cut(const Graph& g, const std::vector<VertexId>& part,
               const std::vector<std::uint8_t>& part_of, std::uint8_t label) {
  std::vector<ht::graph::EdgeId> crossing;
  for (VertexId v : part)
    for (const auto& a : g.neighbors(v))
      if (part_of[static_cast<std::size_t>(a.to)] != label)
        crossing.push_back(a.edge);
  std::sort(crossing.begin(), crossing.end());
  double sum = 0.0;
  for (const auto e : crossing) sum += g.edge(e).weight;
  return sum;
}

}  // namespace

DecompositionTreeResult build_decomposition_tree_run(
    const Graph& g, const DecompositionOptions& options) {
  HT_CHECK(g.finalized());
  const VertexId n = g.num_vertices();
  HT_CHECK(n >= 1);
  ht::obs::TraceSpan trace("decomposition_tree");
  trace.arg("n", n);

  // Stage 1 — parallel: grow the laminar cluster family over the pool.
  // Splits (spectral sweep + cut evaluations) run concurrently per
  // cluster; each cluster's RNG stream derives from its wavefront index,
  // so the family is identical for every thread count.
  std::vector<ClusterRec> recs(1);
  recs[0].vertices.resize(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v)
    recs[0].vertices[static_cast<std::size_t>(v)] = v;

  const auto map = [&](const std::int32_t& rec_index,
                       ht::Rng& rng) -> SplitOutcome {
    // Safe concurrent read: fold only appends records between waves.
    const std::vector<VertexId>& vertices =
        recs[static_cast<std::size_t>(rec_index)].vertices;
    ht::obs::TraceSpan span("dtree.split_oracle");
    span.arg("cluster_size", vertices.size());
    SplitOutcome result;
    if (ht::run_stopped()) {
      // The run already latched a stop: the fold loop is guaranteed to
      // drain this cluster (the latch never clears), so its oracle work
      // would be discarded — return an empty placeholder instead.
      result.expand_leaves = true;
      return result;
    }
    if (vertices.size() <= 1) {
      result.expand_leaves = true;
      result.leaf_cuts.reserve(vertices.size());
      for (VertexId v : vertices)
        result.leaf_cuts.push_back(singleton_cut(g, v));
      span.arg("expand_leaves", 1);
      return result;
    }

    // Split the cluster with the sparsest cut of its induced subgraph,
    // wrapped 2-uniform so the hypergraph oracle applies. The wrapper gets
    // the cluster's internal edges in increasing id, as a scan of the
    // parent's edge list would add them, but they are collected from the
    // cluster's adjacency (each edge from its u endpoint). local_of maps a
    // vertex to its index in `vertices`, -1 outside the cluster.
    std::vector<VertexId> local_of(static_cast<std::size_t>(n), -1);
    for (std::size_t i = 0; i < vertices.size(); ++i)
      local_of[static_cast<std::size_t>(vertices[i])] =
          static_cast<VertexId>(i);
    std::vector<ht::graph::EdgeId> internal;
    for (VertexId v : vertices)
      for (const auto& a : g.neighbors(v))
        if (local_of[static_cast<std::size_t>(a.to)] != -1 &&
            g.edge(a.edge).u == v)
          internal.push_back(a.edge);
    std::sort(internal.begin(), internal.end());
    ht::hypergraph::Hypergraph wrapper(static_cast<VertexId>(vertices.size()));
    for (const auto id : internal) {
      const auto& e = g.edge(id);
      wrapper.add_edge({local_of[static_cast<std::size_t>(e.u)],
                        local_of[static_cast<std::size_t>(e.v)]},
                       e.weight);
    }
    wrapper.finalize();

    std::vector<std::vector<VertexId>> parts;
    // Part labels for set_cut, filled only by a two-way split: 0 outside
    // the cluster, 1 + the part's index inside.
    std::vector<std::uint8_t> part_of;
    if (wrapper.num_edges() == 0) {
      // Disconnected dust: every vertex its own part.
      for (VertexId v : vertices) parts.push_back({v});
    } else {
      ht::partition::SparsestCutResult cut;
      if (vertices.size() <= kExactSplitLimit) {
        cut = ht::partition::sparsest_hyperedge_cut_exact(wrapper);
      } else {
        cut = ht::partition::sparsest_hyperedge_cut(wrapper, rng);
      }
      if (!cut.valid) {
        // No split available (complete-graph-like): all vertices leaves.
        for (VertexId v : vertices) parts.push_back({v});
      } else {
        std::vector<bool> in_small(vertices.size(), false);
        for (VertexId local : cut.smaller_side)
          in_small[static_cast<std::size_t>(local)] = true;
        part_of.assign(static_cast<std::size_t>(n), 0);
        std::vector<VertexId> small, large;
        for (std::size_t i = 0; i < vertices.size(); ++i) {
          const VertexId v = vertices[i];
          part_of[static_cast<std::size_t>(v)] = in_small[i] ? 1 : 2;
          (in_small[i] ? small : large).push_back(v);
        }
        parts.push_back(std::move(small));
        parts.push_back(std::move(large));
      }
    }
    for (std::size_t p = 0; p < parts.size(); ++p) {
      auto& part = parts[p];
      if (part.empty()) continue;
      SplitOutcome::Part out_part;
      out_part.cut = part.size() == 1
                         ? singleton_cut(g, part[0])
                         : set_cut(g, part, part_of,
                                   static_cast<std::uint8_t>(p + 1));
      out_part.vertices = std::move(part);
      result.parts.push_back(std::move(out_part));
    }
    span.arg("expand_leaves", 0);
    span.arg("parts", result.parts.size());
    return result;
  };
  const auto fold = [&](std::int32_t&& rec_index, SplitOutcome&& result,
                        const auto& emit) {
    // Build the child list locally: appending child records below may
    // reallocate `recs`, so no reference into it can be held across the
    // loop.
    std::vector<ChildEntry> children;
    if (result.expand_leaves) {
      const auto& vertices =
          recs[static_cast<std::size_t>(rec_index)].vertices;
      // A placeholder from a post-stop map can never reach this fold (the
      // wavefront drains once a stop latches), so the cut list is full.
      HT_DCHECK(result.leaf_cuts.size() == vertices.size());
      for (std::size_t i = 0; i < vertices.size(); ++i) {
        ChildEntry leaf;
        leaf.is_leaf = true;
        leaf.vertex = vertices[i];
        leaf.cut = result.leaf_cuts[i];
        children.push_back(leaf);
      }
    } else {
      for (auto& part : result.parts) {
        ChildEntry entry;
        entry.cut = part.cut;
        if (part.vertices.size() == 1) {
          entry.is_leaf = true;
          entry.vertex = part.vertices[0];
        } else {
          entry.cluster = static_cast<std::int32_t>(recs.size());
          ClusterRec child;
          child.vertices = std::move(part.vertices);
          recs.push_back(std::move(child));
          emit(std::int32_t(entry.cluster));
        }
        children.push_back(entry);
      }
    }
    recs[static_cast<std::size_t>(rec_index)].children = std::move(children);
  };
  // Early stop: a cluster still queued expands into a star of leaves with
  // exact singleton cuts — the union-bound domination argument is
  // unaffected, the tree is just coarser below that cluster.
  const auto drain = [&](std::int32_t&& rec_index) {
    ClusterRec& rec = recs[static_cast<std::size_t>(rec_index)];
    std::vector<ChildEntry> children;
    children.reserve(rec.vertices.size());
    for (VertexId v : rec.vertices) {
      ChildEntry leaf;
      leaf.is_leaf = true;
      leaf.vertex = v;
      leaf.cut = singleton_cut(g, v);
      children.push_back(leaf);
    }
    rec.children = std::move(children);
  };
  const ht::Status status =
      ht::parallel_wavefront<std::int32_t, SplitOutcome>(
          {0}, options.seed, map, fold, drain);

  // Stage 2 — serial: emit the Tree in DFS preorder over the cluster
  // family, matching the recursive construction's node numbering.
  Tree tree;
  tree.reserve_vertices(n);
  const NodeId root = tree.add_node(-1, kInfiniteNodeWeight);
  const std::function<void(std::int32_t, NodeId)> assemble =
      [&](std::int32_t rec_index, NodeId node) {
        for (const ChildEntry& child :
             recs[static_cast<std::size_t>(rec_index)].children) {
          if (child.is_leaf) {
            const NodeId leaf = tree.add_node(node, 1.0, child.cut);
            tree.set_vertex_node(child.vertex, leaf);
          } else {
            const NodeId cluster =
                tree.add_node(node, kInfiniteNodeWeight, child.cut);
            assemble(child.cluster, cluster);
          }
        }
      };
  assemble(0, root);
  tree.validate();
  DecompositionTreeResult out;
  out.tree = std::move(tree);
  out.status = status;
  return out;
}

}  // namespace ht::cuttree
