// Rooted trees used as cut sparsifiers.
//
// A Tree carries both node weights (vertex cut trees, Section 3.1) and
// parent-edge weights (edge cut trees, Theorem 6 / Gomory–Hu), plus the
// embedding map from original (hyper)graph vertices to tree nodes
// (V ⊆ V_T). gamma_T and delta_T are computed two independent ways — flow
// on the tree-as-graph and a direct tree DP — which cross-check each other
// in tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/status.hpp"

namespace ht::cuttree {

using NodeId = std::int32_t;
using VertexId = std::int32_t;

/// Stand-in for "infinite" node weight: far above any finite weight sum in
/// our instances but far below the flow solver's own infinity, so infinite
/// nodes are never selected into minimum cuts yet arithmetic stays finite.
inline constexpr double kInfiniteNodeWeight = 1e15;

/// The children of one node, in ascending id: a forward range over the
/// tree's sibling list. It points into the tree, so it must not outlive
/// the tree or be kept across add_node.
class ChildRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = NodeId;

    iterator() = default;
    iterator(const NodeId* next_sibling, NodeId node)
        : next_sibling_(next_sibling), node_(node) {}
    NodeId operator*() const { return node_; }
    iterator& operator++() {
      node_ = next_sibling_[static_cast<std::size_t>(node_)];
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const iterator& other) const {
      return node_ == other.node_;
    }

   private:
    const NodeId* next_sibling_ = nullptr;
    NodeId node_ = -1;
  };

  ChildRange(const NodeId* next_sibling, NodeId first)
      : next_sibling_(next_sibling), first_(first) {}
  iterator begin() const { return {next_sibling_, first_}; }
  iterator end() const { return {next_sibling_, -1}; }
  bool empty() const { return first_ == -1; }
  /// O(number of children).
  std::size_t size() const {
    return static_cast<std::size_t>(std::distance(begin(), end()));
  }

 private:
  const NodeId* next_sibling_;
  NodeId first_;
};

class Tree {
 public:
  Tree() = default;

  /// Adds a node. The first call must pass parent == -1 and creates the
  /// root; all later nodes attach below an existing node.
  NodeId add_node(NodeId parent, double node_weight, double edge_weight = 0.0);

  NodeId num_nodes() const { return static_cast<NodeId>(parent_.size()); }
  NodeId root() const { return root_; }
  NodeId parent(NodeId v) const { return parent_[static_cast<std::size_t>(v)]; }
  /// v's children in ascending id — the order every tree DP folds them
  /// in, which makes that order part of each DP's floating-point result.
  ChildRange children(NodeId v) const {
    return {next_sibling_.data(), first_child_[static_cast<std::size_t>(v)]};
  }

  double node_weight(NodeId v) const {
    return node_weight_[static_cast<std::size_t>(v)];
  }
  void set_node_weight(NodeId v, double w) {
    node_weight_[static_cast<std::size_t>(v)] = w;
  }
  /// Weight of the edge between v and parent(v); unused at the root.
  double edge_weight(NodeId v) const {
    return edge_weight_[static_cast<std::size_t>(v)];
  }
  void set_edge_weight(NodeId v, double w) {
    edge_weight_[static_cast<std::size_t>(v)] = w;
  }

  /// Maps original vertex ids to tree nodes. Must be set by the builder;
  /// node_of_vertex(v) == -1 means v is not embedded.
  void set_vertex_node(VertexId vertex, NodeId node);
  NodeId node_of_vertex(VertexId vertex) const {
    return vertex_node_[static_cast<std::size_t>(vertex)];
  }
  VertexId num_embedded_vertices() const {
    return static_cast<VertexId>(vertex_node_.size());
  }
  void reserve_vertices(VertexId count) {
    vertex_node_.assign(static_cast<std::size_t>(count), -1);
  }

  /// Replaces the vertex embedding by composition: new vertex i maps to
  /// the node of current vertex to_current[i]. This is how a tree built
  /// on a preprocessed (contracted) instance is lifted back to original
  /// vertex ids — every original vertex of a cluster embeds at the
  /// cluster's node, and the tree DPs already aggregate multiple counted
  /// vertices per node. Entries must index the current embedding.
  void lift_vertices(std::span<const VertexId> to_current);

  /// Reconstructs a tree from flat arrays (the snapshot loader's entry
  /// point: the arrays come straight out of an mmap'ed, checksummed but
  /// otherwise untrusted file). Validates every invariant add_node/
  /// set_vertex_node would have enforced — root at node 0, parent[i] < i,
  /// equal array lengths, every vertex embedded at a valid node — plus
  /// the cut DPs' precondition that every node and edge weight is >= +0.0
  /// (negative, -0.0 and NaN weights are refused), and returns
  /// kInvalidArgument instead of crashing on violations. Copies the four
  /// arrays and links the sibling lists in one pass: a constant number of
  /// allocations whatever the tree's size, and the same tree (children
  /// included) as add_node over the same arrays.
  static StatusOr<Tree> from_arrays(std::span<const NodeId> parent,
                                    std::span<const double> node_weight,
                                    std::span<const double> edge_weight,
                                    std::span<const NodeId> vertex_node);

  /// The tree as an undirected Graph (node weights copied; edge weights
  /// from parent-edge weights).
  ht::graph::Graph as_graph() const;

  /// Consistency check: exactly one root, parent links acyclic, every
  /// embedded vertex maps to a valid node.
  void validate() const;

 private:
  /// Appends `child` to the end of `parent`'s sibling list.
  void link_child(NodeId parent, NodeId child);

  // Flat per-node arrays, indexed by node id. Children form an intrusive
  // singly linked list (first_child_ -> next_sibling_ ... -> -1) kept in
  // ascending id: a node's id exceeds every earlier node's, so add_node
  // appends at last_child_ in O(1) and the order holds by construction.
  std::vector<NodeId> parent_;
  std::vector<NodeId> first_child_;
  std::vector<NodeId> last_child_;
  std::vector<NodeId> next_sibling_;
  std::vector<double> node_weight_;
  std::vector<double> edge_weight_;
  std::vector<NodeId> vertex_node_;
  NodeId root_ = 0;
};

/// gamma_T(A, B): minimum node-weight cut separating the tree nodes of A
/// from those of B (nodes of A/B may themselves be chosen). Computed by
/// max-flow on the tree graph. A and B are original vertex ids.
double tree_vertex_cut_flow(const Tree& t, const std::vector<VertexId>& a,
                            const std::vector<VertexId>& b);

/// Same value via an exact tree DP — the independent cross-check. Visits
/// only the root paths of A's and B's nodes, O((U + k) log k) for U nodes
/// on those paths and k = |A| + |B|, and needs node weights >= +0.0
/// (Tree::from_arrays enforces that for loaded trees). Every vertex of A
/// and B must be embedded, and no node may hold vertices of both
/// (HT_CHECK).
double tree_vertex_cut_dp(const Tree& t, const std::vector<VertexId>& a,
                          const std::vector<VertexId>& b);

/// tree_vertex_cut_dp for callers that validate their own terminals
/// (TreeServer::set_cut): a node holding vertices of both A and B comes
/// back as nullopt instead of failing the HT_CHECK. Every vertex must
/// still be embedded (HT_CHECK).
std::optional<double> try_tree_vertex_cut_dp(const Tree& t,
                                             std::span<const VertexId> a,
                                             std::span<const VertexId> b);

/// delta_T(A, B): minimum parent-edge-weight cut separating A from B.
double tree_edge_cut_dp(const Tree& t, const std::vector<VertexId>& a,
                        const std::vector<VertexId>& b);

/// Canonical byte-exact serialization of the full tree state (structure,
/// weights with full precision, vertex embedding). Two trees built by
/// deterministic code paths are interchangeable iff their signatures are
/// equal — the determinism tests compare 1-thread and N-thread builds
/// through this.
std::string tree_signature(const Tree& t);

}  // namespace ht::cuttree
