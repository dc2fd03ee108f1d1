#include "cuttree/tree.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "flow/cut_engine.hpp"
#include "util/check.hpp"

namespace ht::cuttree {

NodeId Tree::add_node(NodeId parent, double node_weight, double edge_weight) {
  if (parent == -1) {
    HT_CHECK_MSG(parent_.empty(), "tree already has a root");
  } else {
    HT_CHECK(0 <= parent && parent < num_nodes());
  }
  const auto id = static_cast<NodeId>(parent_.size());
  parent_.push_back(parent);
  first_child_.push_back(-1);
  last_child_.push_back(-1);
  next_sibling_.push_back(-1);
  node_weight_.push_back(node_weight);
  edge_weight_.push_back(edge_weight);
  if (parent != -1) link_child(parent, id);
  return id;
}

void Tree::link_child(NodeId parent, NodeId child) {
  const auto p = static_cast<std::size_t>(parent);
  if (last_child_[p] == -1) {
    first_child_[p] = child;
  } else {
    next_sibling_[static_cast<std::size_t>(last_child_[p])] = child;
  }
  last_child_[p] = child;
}

void Tree::set_vertex_node(VertexId vertex, NodeId node) {
  HT_CHECK(0 <= vertex &&
           vertex < static_cast<VertexId>(vertex_node_.size()));
  HT_CHECK(0 <= node && node < num_nodes());
  vertex_node_[static_cast<std::size_t>(vertex)] = node;
}

void Tree::lift_vertices(std::span<const VertexId> to_current) {
  std::vector<NodeId> lifted(to_current.size());
  for (std::size_t i = 0; i < to_current.size(); ++i) {
    const VertexId cur = to_current[i];
    HT_CHECK(0 <= cur &&
             cur < static_cast<VertexId>(vertex_node_.size()));
    lifted[i] = vertex_node_[static_cast<std::size_t>(cur)];
  }
  vertex_node_ = std::move(lifted);
}

StatusOr<Tree> Tree::from_arrays(std::span<const NodeId> parent,
                                 std::span<const double> node_weight,
                                 std::span<const double> edge_weight,
                                 std::span<const NodeId> vertex_node) {
  if (parent.empty()) {
    return Status::InvalidArgument("tree arrays empty");
  }
  if (parent.size() != node_weight.size() ||
      parent.size() != edge_weight.size()) {
    return Status::InvalidArgument("tree array lengths disagree");
  }
  // Weights must be >= +0.0: the cut DPs' exactness (and a dominating
  // set_cut) rests on it. signbit also refuses -0.0.
  for (std::size_t i = 0; i < parent.size(); ++i) {
    for (const double w : {node_weight[i], edge_weight[i]}) {
      if (std::isnan(w) || std::signbit(w)) {
        return Status::InvalidArgument(
            "tree weight negative or NaN at node " + std::to_string(i));
      }
    }
  }
  const auto n = static_cast<NodeId>(parent.size());
  if (parent[0] != -1) {
    return Status::InvalidArgument("tree root (node 0) has a parent");
  }
  for (NodeId v = 1; v < n; ++v) {
    const NodeId p = parent[static_cast<std::size_t>(v)];
    if (p < 0 || p >= v) {
      return Status::InvalidArgument("tree parent out of order at node " +
                                     std::to_string(v));
    }
  }
  for (const NodeId node : vertex_node) {
    if (node < 0 || node >= n) {
      return Status::InvalidArgument("tree vertex embedding out of range");
    }
  }
  Tree out;
  out.parent_.assign(parent.begin(), parent.end());
  out.node_weight_.assign(node_weight.begin(), node_weight.end());
  out.edge_weight_.assign(edge_weight.begin(), edge_weight.end());
  out.vertex_node_.assign(vertex_node.begin(), vertex_node.end());
  const auto size = static_cast<std::size_t>(n);
  out.first_child_.assign(size, -1);
  out.last_child_.assign(size, -1);
  out.next_sibling_.assign(size, -1);
  // Ascending v appends each child after its smaller siblings, exactly as
  // add_node would have.
  for (NodeId v = 1; v < n; ++v) {
    out.link_child(parent[static_cast<std::size_t>(v)], v);
  }
  return out;
}

ht::graph::Graph Tree::as_graph() const {
  ht::graph::Graph g(num_nodes());
  for (NodeId v = 0; v < num_nodes(); ++v) {
    g.set_vertex_weight(v, node_weight(v));
    if (parent(v) != -1) g.add_edge(v, parent(v), edge_weight(v));
  }
  g.finalize();
  return g;
}

void Tree::validate() const {
  HT_CHECK(num_nodes() >= 1);
  NodeId roots = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (parent(v) == -1) {
      ++roots;
      HT_CHECK(v == root_);
    } else {
      HT_CHECK_MSG(parent(v) < v, "parents must precede children");
    }
  }
  HT_CHECK(roots == 1);
  for (std::size_t v = 0; v < vertex_node_.size(); ++v) {
    HT_CHECK_MSG(vertex_node_[v] != -1,
                 "vertex " << v << " not embedded in the tree");
  }
}

namespace {

/// Post-order traversal of the tree (children before parents). Because
/// add_node enforces parent < child, a reverse id scan is a post-order.
struct Terminals {
  std::vector<std::int8_t> mark;  // 0 none, 1 A, 2 B
};

Terminals mark_terminals(const Tree& t, const std::vector<VertexId>& a,
                         const std::vector<VertexId>& b) {
  Terminals out;
  out.mark.assign(static_cast<std::size_t>(t.num_nodes()), 0);
  for (VertexId v : a) {
    const NodeId node = t.node_of_vertex(v);
    HT_CHECK(node != -1);
    out.mark[static_cast<std::size_t>(node)] = 1;
  }
  for (VertexId v : b) {
    const NodeId node = t.node_of_vertex(v);
    HT_CHECK(node != -1);
    HT_CHECK_MSG(out.mark[static_cast<std::size_t>(node)] != 1,
                 "A and B map to the same tree node");
    out.mark[static_cast<std::size_t>(node)] = 2;
  }
  return out;
}

constexpr double kUnreachable = 1e200;

}  // namespace

double tree_vertex_cut_flow(const Tree& t, const std::vector<VertexId>& a,
                            const std::vector<VertexId>& b) {
  const ht::graph::Graph g = t.as_graph();
  std::vector<ht::graph::VertexId> na, nb;
  for (VertexId v : a) na.push_back(t.node_of_vertex(v));
  for (VertexId v : b) nb.push_back(t.node_of_vertex(v));
  std::sort(na.begin(), na.end());
  na.erase(std::unique(na.begin(), na.end()), na.end());
  std::sort(nb.begin(), nb.end());
  nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
  return ht::CutEngine().min_vertex_cut(g, na, nb).value;
}

std::optional<double> try_tree_vertex_cut_dp(const Tree& t,
                                             std::span<const VertexId> a,
                                             std::span<const VertexId> b) {
  // States: 0 = node in cut, 1 = exposed to A, 2 = exposed to B,
  // 3 = neutral (component touches neither terminal set).
  //
  // Only the terminals' root paths are visited. With weights >= +0.0 a
  // subtree without terminals has states (w, +0.0, +0.0, +0.0), w >= 0,
  // so it adds exactly +0.0 to every state of its parent (x + 0.0 == x).
  // Skipping the clamp that follows it changes nothing either: only state
  // 0 can exceed kUnreachable, and every read of it is a min against a
  // state that cannot. On-path children are folded in ascending id — the
  // order children() lists them in — so every remaining addition happens
  // in the order of the full bottom-up sweep.
  //
  // The frontier is a tournament (loser) tree with one leaf per terminal,
  // A's first. A leaf's key is where its chain waits: (node, rank), the
  // rank putting the terminal's own mark first and then the child the
  // chain climbed from, smallest id first. Popping the largest key hands
  // out the nodes in descending id — every child before its parent, since
  // parents precede children — and a node's entries in that order, so its
  // on-path children fold as they come out. The first chain out of a
  // node carries its state on to the parent; the others retire. Each pop
  // replays one leaf-to-root path: O((U + k) log k).
  //
  // Scratch is per thread and only resized, so a warm serving thread's
  // set_cut allocates nothing.
  constexpr std::int64_t kRetired = -1;  // below every live key
  constexpr std::uint32_t kMarkRank = 0xFFFFFFFFu;
  const auto key_of = [](NodeId node, std::uint32_t rank) {
    return static_cast<std::int64_t>(node) << 32 |
           static_cast<std::int64_t>(rank);
  };
  const auto node_of_key = [](std::int64_t key) {
    return static_cast<NodeId>(key >> 32);  // kRetired -> -1
  };
  const auto na = static_cast<std::int32_t>(a.size());
  const auto k = static_cast<std::int32_t>(a.size() + b.size());
  if (k == 0) return 0.0;  // no terminals: nothing to separate
  thread_local std::vector<std::int64_t> key_scratch;
  thread_local std::vector<std::array<double, 4>> carried_scratch;
  thread_local std::vector<std::int32_t> match_scratch;
  const auto size = static_cast<std::size_t>(k);
  key_scratch.resize(size);
  carried_scratch.resize(size);
  match_scratch.resize(2 * size);
  std::int64_t* const key = key_scratch.data();
  std::array<double, 4>* const carried = carried_scratch.data();
  // Leaf i sits at position k + i; internal node j in [1, k) plays the
  // match between its children 2j and 2j+1 and keeps the loser. Only the
  // build needs each match's winner.
  std::int32_t* const loser = match_scratch.data();
  std::int32_t* const winner = loser + k;
  for (std::int32_t i = 0; i < k; ++i) {
    const VertexId v = i < na ? a[static_cast<std::size_t>(i)]
                              : b[static_cast<std::size_t>(i - na)];
    const NodeId node = t.node_of_vertex(v);
    HT_CHECK(node != -1);
    key[i] = key_of(node, kMarkRank);
  }
  for (std::int32_t j = k - 1; j >= 1; --j) {
    const std::int32_t l = 2 * j < k ? winner[2 * j] : 2 * j - k;
    const std::int32_t r = 2 * j + 1 < k ? winner[2 * j + 1] : 2 * j + 1 - k;
    const bool left_wins = key[l] >= key[r];
    winner[j] = left_wins ? l : r;
    loser[j] = left_wins ? r : l;
  }
  std::int32_t top = k == 1 ? 0 : winner[1];
  // After the top leaf's key drops, replays its matches up to the root.
  const auto replay = [&](std::int32_t leaf) {
    std::int32_t w = leaf;
    for (std::int32_t j = (k + leaf) >> 1; j >= 1; j >>= 1) {
      if (key[loser[j]] > key[w]) std::swap(loser[j], w);
    }
    top = w;
  };

  std::array<double, 4> d{};
  while (key[top] != kRetired) {
    const NodeId v = node_of_key(key[top]);
    const NodeId p = t.parent(v);
    const std::int64_t onward =
        p == -1 ? kRetired
                : key_of(p, 0x7FFFFFFFu - static_cast<std::uint32_t>(v));
    d = {t.node_weight(v), 0.0, 0.0, 0.0};
    std::int8_t own = 0;
    const std::int32_t carrier = top;  // carries v's state on to p
    do {
      const std::int32_t leaf = top;
      if ((key[leaf] & kMarkRank) == kMarkRank) {
        own |= leaf < na ? 1 : 2;
        if (own == 3) return std::nullopt;  // A and B share node v
        // Marks come out before any child folds in.
        d[1] = own == 2 ? kUnreachable : 0.0;
        d[2] = own == 1 ? kUnreachable : 0.0;
        d[3] = kUnreachable;
      } else {
        const std::array<double, 4>& dc = carried[leaf];
        const double child_any =
            std::min(std::min(dc[0], dc[1]), std::min(dc[2], dc[3]));
        d[0] += child_any;
        // Exposed-A parent: child may be cut, exposed-A or neutral.
        d[1] += std::min(dc[0], std::min(dc[1], dc[3]));
        d[2] += std::min(dc[0], std::min(dc[2], dc[3]));
        d[3] += std::min(dc[0], dc[3]);
        for (double& x : d) x = std::min(x, kUnreachable);
      }
      key[leaf] = leaf == carrier ? onward : kRetired;
      replay(leaf);
    } while (node_of_key(key[top]) == v);
    carried[carrier] = d;
  }
  // The root (node 0) has the smallest id, so it finished last.
  return std::min(std::min(d[0], d[1]), std::min(d[2], d[3]));
}

double tree_vertex_cut_dp(const Tree& t, const std::vector<VertexId>& a,
                          const std::vector<VertexId>& b) {
  const std::optional<double> value = try_tree_vertex_cut_dp(t, a, b);
  HT_CHECK_MSG(value.has_value(), "A and B map to the same tree node");
  return *value;
}

double tree_edge_cut_dp(const Tree& t, const std::vector<VertexId>& a,
                        const std::vector<VertexId>& b) {
  // States: 0 = component of v touches A, 1 = touches B, 2 = neutral.
  const Terminals terminals = mark_terminals(t, a, b);
  const NodeId n = t.num_nodes();
  std::vector<std::array<double, 3>> dp(static_cast<std::size_t>(n));
  for (NodeId v = n - 1; v >= 0; --v) {
    const auto idx = static_cast<std::size_t>(v);
    const std::int8_t own = terminals.mark[idx];
    auto& d = dp[idx];
    d[0] = own == 2 ? kUnreachable : 0.0;
    d[1] = own == 1 ? kUnreachable : 0.0;
    d[2] = own != 0 ? kUnreachable : 0.0;
    for (NodeId c : t.children(v)) {
      const auto& dc = dp[static_cast<std::size_t>(c)];
      const double cut_child =
          t.edge_weight(c) + std::min(std::min(dc[0], dc[1]), dc[2]);
      d[0] += std::min(cut_child, std::min(dc[0], dc[2]));
      d[1] += std::min(cut_child, std::min(dc[1], dc[2]));
      d[2] += std::min(cut_child, dc[2]);
      for (double& x : d) x = std::min(x, kUnreachable);
    }
  }
  const auto& r = dp[static_cast<std::size_t>(t.root())];
  return std::min(std::min(r[0], r[1]), r[2]);
}

std::string tree_signature(const Tree& t) {
  // Doubles are rendered as raw bit patterns: equal signatures mean
  // bit-identical trees, not merely trees that print alike.
  const auto bits = [](double x) {
    std::uint64_t b;
    static_assert(sizeof(b) == sizeof(x));
    std::memcpy(&b, &x, sizeof(b));
    return b;
  };
  std::string out;
  char buf[64];
  const NodeId n = t.num_nodes();
  std::snprintf(buf, sizeof(buf), "nodes=%d;", n);
  out += buf;
  for (NodeId v = 0; v < n; ++v) {
    std::snprintf(buf, sizeof(buf), "%d:%d:%" PRIx64 ":%" PRIx64 ";", v,
                  t.parent(v), bits(t.node_weight(v)),
                  bits(t.edge_weight(v)));
    out += buf;
  }
  const VertexId vertices = t.num_embedded_vertices();
  std::snprintf(buf, sizeof(buf), "vertices=%d;", vertices);
  out += buf;
  for (VertexId v = 0; v < vertices; ++v) {
    std::snprintf(buf, sizeof(buf), "%d->%d;", v, t.node_of_vertex(v));
    out += buf;
  }
  return out;
}

}  // namespace ht::cuttree
