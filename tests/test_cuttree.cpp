#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "cuttree/edge_cut_trees.hpp"
#include "cuttree/quality.hpp"
#include "cuttree/tree.hpp"
#include "cuttree/tree_bisection.hpp"
#include "cuttree/tree_edge_partition.hpp"
#include "cuttree/vertex_cut_tree.hpp"
#include "flow/cut_engine.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "serve/snapshot_build.hpp"
#include "serve/tree_server.hpp"
#include "util/rng.hpp"
#include "util/subsets.hpp"
#include "util/thread_pool.hpp"

namespace {

using ht::cuttree::NodeId;
using ht::cuttree::Tree;
using ht::cuttree::VertexId;

Tree simple_path_tree() {
  // root(w=2) - a(w=1) - b(w=3); vertices 0->a, 1->root, 2->b.
  Tree t;
  t.reserve_vertices(3);
  const NodeId root = t.add_node(-1, 2.0);
  const NodeId a = t.add_node(root, 1.0, 1.0);
  const NodeId b = t.add_node(a, 3.0, 1.0);
  t.set_vertex_node(0, a);
  t.set_vertex_node(1, root);
  t.set_vertex_node(2, b);
  t.validate();
  return t;
}

TEST(Tree, StructureAndValidate) {
  const Tree t = simple_path_tree();
  EXPECT_EQ(t.num_nodes(), 3);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.parent(1), 0);
  EXPECT_EQ(t.children(0).size(), 1u);
  EXPECT_DOUBLE_EQ(t.node_weight(2), 3.0);
}

TEST(Tree, RejectsSecondRoot) {
  Tree t;
  t.add_node(-1, 1.0);
  EXPECT_THROW(t.add_node(-1, 1.0), std::logic_error);
}

TEST(Tree, ValidateCatchesUnmappedVertex) {
  Tree t;
  t.reserve_vertices(1);
  t.add_node(-1, 1.0);
  EXPECT_THROW(t.validate(), std::logic_error);
}

TEST(Tree, VertexCutFlowSimple) {
  const Tree t = simple_path_tree();
  // Separate vertex 0 (node a) from vertex 2 (node b): cheapest cut is a
  // itself (w=1) — the cut may contain A.
  EXPECT_DOUBLE_EQ(ht::cuttree::tree_vertex_cut_flow(t, {0}, {2}), 1.0);
  // Separate root-vertex 1 from 2: b costs 3, a costs 1, root costs 2 -> 1.
  EXPECT_DOUBLE_EQ(ht::cuttree::tree_vertex_cut_flow(t, {1}, {2}), 1.0);
}

TEST(Tree, VertexCutDpMatchesFlowOnHandTree) {
  const Tree t = simple_path_tree();
  for (auto& [a, b] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {0, 2}, {1, 2}}) {
    EXPECT_DOUBLE_EQ(ht::cuttree::tree_vertex_cut_flow(t, {a}, {b}),
                     ht::cuttree::tree_vertex_cut_dp(t, {a}, {b}));
  }
}

TEST(Tree, EdgeCutDpSimple) {
  Tree t;
  t.reserve_vertices(3);
  const NodeId root = t.add_node(-1, 1.0);
  const NodeId a = t.add_node(root, 1.0, 5.0);
  const NodeId b = t.add_node(root, 1.0, 2.0);
  t.set_vertex_node(0, root);
  t.set_vertex_node(1, a);
  t.set_vertex_node(2, b);
  EXPECT_DOUBLE_EQ(ht::cuttree::tree_edge_cut_dp(t, {1}, {2}), 2.0);
  EXPECT_DOUBLE_EQ(ht::cuttree::tree_edge_cut_dp(t, {0}, {1}), 5.0);
  EXPECT_DOUBLE_EQ(ht::cuttree::tree_edge_cut_dp(t, {0, 1}, {2}), 2.0);
}

/// Random tree generator for cross-check properties.
Tree random_tree(VertexId n, ht::Rng& rng) {
  Tree t;
  t.reserve_vertices(n);
  std::vector<NodeId> nodes;
  nodes.push_back(t.add_node(-1, 1.0 + rng.next_double() * 4.0));
  const NodeId total = 2 * n;  // some internal nodes without vertices
  for (NodeId i = 1; i < total; ++i) {
    const NodeId parent =
        nodes[static_cast<std::size_t>(rng.next_below(nodes.size()))];
    nodes.push_back(t.add_node(parent, 1.0 + rng.next_double() * 4.0,
                               0.5 + rng.next_double() * 3.0));
  }
  // Embed the n vertices into distinct random nodes.
  std::vector<NodeId> shuffled = nodes;
  rng.shuffle(shuffled);
  for (VertexId v = 0; v < n; ++v)
    t.set_vertex_node(v, shuffled[static_cast<std::size_t>(v)]);
  t.validate();
  return t;
}

class TreeCutCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeCutCrossCheck, FlowEqualsDpOnRandomTrees) {
  ht::Rng rng(GetParam());
  const VertexId n = 8;
  const Tree t = random_tree(n, rng);
  for (int trial = 0; trial < 12; ++trial) {
    auto pick = rng.sample_without_replacement(n, 4);
    const std::vector<VertexId> a{pick[0], pick[1]}, b{pick[2], pick[3]};
    const double flow = ht::cuttree::tree_vertex_cut_flow(t, a, b);
    const double dp = ht::cuttree::tree_vertex_cut_dp(t, a, b);
    EXPECT_NEAR(flow, dp, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeCutCrossCheck,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- root-path vertex-cut DP vs. the full sweep ----------

/// Reference: the full O(|T|) bottom-up sweep over every node, children
/// folded in ascending id. The root-path DP must match it bit for bit.
double full_sweep_vertex_cut_dp(const Tree& t, const std::vector<VertexId>& a,
                                const std::vector<VertexId>& b) {
  constexpr double kUnreachable = 1e200;
  const NodeId n = t.num_nodes();
  std::vector<std::int8_t> mark(static_cast<std::size_t>(n), 0);
  for (VertexId v : a) mark[static_cast<std::size_t>(t.node_of_vertex(v))] = 1;
  for (VertexId v : b) mark[static_cast<std::size_t>(t.node_of_vertex(v))] = 2;
  std::vector<std::array<double, 4>> dp(static_cast<std::size_t>(n));
  for (NodeId v = n - 1; v >= 0; --v) {
    const auto idx = static_cast<std::size_t>(v);
    const std::int8_t own = mark[idx];
    auto& d = dp[idx];
    d[0] = t.node_weight(v);
    d[1] = own == 2 ? kUnreachable : 0.0;
    d[2] = own == 1 ? kUnreachable : 0.0;
    d[3] = own != 0 ? kUnreachable : 0.0;
    for (NodeId c : t.children(v)) {
      const auto& dc = dp[static_cast<std::size_t>(c)];
      d[0] += std::min(std::min(dc[0], dc[1]), std::min(dc[2], dc[3]));
      d[1] += std::min(dc[0], std::min(dc[1], dc[3]));
      d[2] += std::min(dc[0], std::min(dc[2], dc[3]));
      d[3] += std::min(dc[0], dc[3]);
      for (double& x : d) x = std::min(x, kUnreachable);
    }
  }
  const auto& r = dp[static_cast<std::size_t>(t.root())];
  return std::min(std::min(r[0], r[1]), std::min(r[2], r[3]));
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof x) == 0;
}

/// Random terminal sets of 1..4 vertices in [0, n) each whose tree nodes
/// do not collide (the DP's precondition); false if none was found.
bool random_terminal_sets(const Tree& t, VertexId n, ht::Rng& rng,
                          std::vector<VertexId>& a, std::vector<VertexId>& b) {
  for (int attempt = 0; attempt < 20; ++attempt) {
    a.clear();
    b.clear();
    const auto na = 1 + rng.next_below(4);
    const auto nb = 1 + rng.next_below(4);
    for (std::uint64_t i = 0; i < na; ++i)
      a.push_back(static_cast<VertexId>(rng.next_below(n)));
    bool clash = false;
    for (std::uint64_t i = 0; i < nb && !clash; ++i) {
      const auto v = static_cast<VertexId>(rng.next_below(n));
      for (VertexId x : a) clash |= t.node_of_vertex(x) == t.node_of_vertex(v);
      b.push_back(v);
    }
    if (!clash) return true;
  }
  return false;
}

TEST(TreeVertexCutDp, RootPathDpMatchesFullSweepBitForBit) {
  // Non-integral, zero, "infinite" (1e15) and above-the-clamp weights, on
  // shallow bushy trees and deep chains, with several vertices per node.
  const double kSpecial[] = {0.0, 1e15, 1e15, 3e250};
  ht::Rng rng(2911);
  int compared = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto nodes = static_cast<NodeId>(1 + rng.next_below(300));
    const bool chainy = rng.next_below(2) == 0;
    Tree t;
    const auto weight = [&] {
      return rng.next_below(5) == 0
                 ? kSpecial[rng.next_below(std::size(kSpecial))]
                 : rng.next_double() * 10.0;
    };
    t.add_node(-1, weight());
    for (NodeId v = 1; v < nodes; ++v) {
      const auto span = chainy ? std::min<NodeId>(v, 3) : v;
      t.add_node(v - 1 - static_cast<NodeId>(rng.next_below(span)), weight(),
                 rng.next_double());
    }
    const auto n = static_cast<VertexId>(2 + rng.next_below(40));
    t.reserve_vertices(n);
    for (VertexId v = 0; v < n; ++v)
      t.set_vertex_node(v, static_cast<NodeId>(rng.next_below(nodes)));
    std::vector<VertexId> a, b;
    for (int q = 0; q < 4; ++q) {
      if (!random_terminal_sets(t, n, rng, a, b)) continue;
      ASSERT_TRUE(same_bits(ht::cuttree::tree_vertex_cut_dp(t, a, b),
                            full_sweep_vertex_cut_dp(t, a, b)))
          << "trial " << trial << " query " << q;
      ++compared;
    }
  }
  EXPECT_GT(compared, 5000);
}

TEST(TreeVertexCutDp, RootPathDpMatchesFullSweepOnAServedTree) {
  ht::Rng rng(77);
  const auto unit = ht::hypergraph::random_uniform(120, 360, 4, rng);
  // Non-dyadic hyperedge weights 0.1 * (1 + e mod 17) give the tree's
  // separator nodes weights whose sums round differently in another fold
  // order, so a DP that folds children out of order fails here.
  ht::hypergraph::Hypergraph h(unit.num_vertices());
  for (ht::hypergraph::EdgeId e = 0; e < unit.num_edges(); ++e) {
    const auto pins = unit.pins(e);
    h.add_edge({pins.begin(), pins.end()}, 0.1 * (1 + e % 17));
  }
  h.finalize();
  ASSERT_TRUE(ht::hypergraph::is_connected(h));
  const std::string path = testing::TempDir() + "cuttree_served_vct.htsnap";
  ASSERT_TRUE(ht::snapshot::write(h, path, {}).ok());
  auto server = ht::TreeServer::open(path);
  std::remove(path.c_str());
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  const auto state = server->state();
  const Tree& tree = *state->vertex_cut_tree;
  std::vector<VertexId> a, b;
  int compared = 0;
  for (int q = 0; q < 2000; ++q) {
    if (!random_terminal_sets(tree, h.num_vertices(), rng, a, b)) continue;
    const double reference = full_sweep_vertex_cut_dp(tree, a, b);
    ASSERT_TRUE(same_bits(ht::cuttree::tree_vertex_cut_dp(tree, a, b),
                          reference));
    const auto served = server->set_cut(a, b);
    ASSERT_TRUE(served.ok()) << served.status().to_string();
    ASSERT_TRUE(same_bits(served->value, reference));
    ++compared;
  }
  EXPECT_GT(compared, 1000);
}

TEST(TreeVertexCutDp, LargeTerminalSetsMatchFullSweepBitForBit) {
  // Up to half of the embedded vertices on each side, on bushy trees and
  // on chains a few thousand nodes deep: many chains wait in the frontier
  // at once and merge at every depth.
  ht::Rng rng(4099);
  int compared = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const auto nodes = static_cast<NodeId>(1000 + rng.next_below(3000));
    const bool chainy = trial % 2 == 0;
    Tree t;
    t.add_node(-1, rng.next_double() * 10.0);
    for (NodeId v = 1; v < nodes; ++v) {
      const auto span = chainy ? std::min<NodeId>(v, 3) : v;
      const double w = rng.next_below(8) == 0 ? 0.0 : rng.next_double() * 10.0;
      t.add_node(v - 1 - static_cast<NodeId>(rng.next_below(span)), w,
                 rng.next_double());
    }
    const auto n = static_cast<VertexId>(nodes / 2);
    t.reserve_vertices(n);
    for (VertexId v = 0; v < n; ++v)
      t.set_vertex_node(v, static_cast<NodeId>(rng.next_below(nodes)));
    for (int q = 0; q < 8; ++q) {
      // A and B from one shuffle; B skips vertices on A's nodes.
      std::vector<VertexId> order(static_cast<std::size_t>(n));
      for (VertexId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
      rng.shuffle(order);
      const auto na = static_cast<std::size_t>(1 + rng.next_below(n / 2));
      const auto nb = static_cast<std::size_t>(1 + rng.next_below(n / 2));
      std::vector<bool> a_node(static_cast<std::size_t>(nodes), false);
      std::vector<VertexId> a(order.begin(), order.begin() + na), b;
      for (VertexId v : a)
        a_node[static_cast<std::size_t>(t.node_of_vertex(v))] = true;
      for (std::size_t i = na; i < order.size() && b.size() < nb; ++i) {
        if (!a_node[static_cast<std::size_t>(t.node_of_vertex(order[i]))])
          b.push_back(order[i]);
      }
      ASSERT_FALSE(b.empty());
      ASSERT_TRUE(same_bits(ht::cuttree::tree_vertex_cut_dp(t, a, b),
                            full_sweep_vertex_cut_dp(t, a, b)))
          << "trial " << trial << " query " << q << " |A| " << a.size()
          << " |B| " << b.size();
      ++compared;
    }
  }
  EXPECT_EQ(compared, 24 * 8);
}

TEST(TreeVertexCutDp, KeepsTheTerminalChecks) {
  // A and B on one node, or an unembedded vertex on either side, is a
  // caller error.
  const Tree t = simple_path_tree();
  EXPECT_THROW(ht::cuttree::tree_vertex_cut_dp(t, {0}, {0}), std::logic_error);
  Tree unembedded;
  unembedded.reserve_vertices(2);
  unembedded.set_vertex_node(0, unembedded.add_node(-1, 1.0));
  EXPECT_THROW(ht::cuttree::tree_vertex_cut_dp(unembedded, {0}, {1}),
               std::logic_error);
  EXPECT_THROW(ht::cuttree::tree_vertex_cut_dp(unembedded, {1}, {0}),
               std::logic_error);
}

// ---------- Section 3.1 construction ----------

TEST(VertexCutTree, PathGraphShape) {
  const auto g = ht::graph::path(12);
  const auto result = ht::cuttree::build_vertex_cut_tree(g);
  result.tree.validate();
  // Every vertex embedded.
  for (VertexId v = 0; v < 12; ++v)
    EXPECT_NE(result.tree.node_of_vertex(v), -1);
  EXPECT_GE(result.num_pieces, 1);
}

TEST(VertexCutTree, DominationExhaustiveOnSmallGraphs) {
  ht::Rng rng(11);
  for (int trial = 0; trial < 4; ++trial) {
    const auto g = ht::graph::gnp_connected(9, 0.3, rng);
    const auto result = ht::cuttree::build_vertex_cut_tree(g);
    // All singleton pairs: gamma_G <= gamma_T.
    for (VertexId s = 0; s < 9; ++s) {
      for (VertexId t = s + 1; t < 9; ++t) {
        const double gg = ht::CutEngine().min_vertex_cut(g, {s}, {t}).value;
        const double gt =
            ht::cuttree::tree_vertex_cut_flow(result.tree, {s}, {t});
        EXPECT_GE(gt, gg - 1e-9) << "pair " << s << "," << t;
      }
    }
  }
}

TEST(VertexCutTree, DominationOnSetPairs) {
  ht::Rng rng(13);
  const auto g = ht::graph::grid(5, 5);
  const auto result = ht::cuttree::build_vertex_cut_tree(g);
  const auto pairs = ht::cuttree::random_set_pairs(25, 40, 5, rng);
  const auto report =
      ht::cuttree::vertex_cut_tree_quality(g, result.tree, pairs);
  EXPECT_TRUE(report.dominating) << "min ratio " << report.min_ratio;
  EXPECT_GE(report.max_ratio, 1.0);
}

TEST(VertexCutTree, WeightedGraphDomination) {
  const auto fig = ht::graph::figure3_gh(16);
  const auto result = ht::cuttree::build_vertex_cut_tree(fig.graph);
  ht::Rng rng(17);
  const auto pairs =
      ht::cuttree::random_set_pairs(fig.graph.num_vertices(), 30, 4, rng);
  const auto report =
      ht::cuttree::vertex_cut_tree_quality(fig.graph, result.tree, pairs);
  EXPECT_TRUE(report.dominating);
}

TEST(VertexCutTree, ThresholdOverrideControlsPeeling) {
  const auto g = ht::graph::grid(4, 4);
  ht::cuttree::VertexCutTreeOptions aggressive;
  aggressive.threshold_override = 0.45;  // peel a lot
  ht::cuttree::VertexCutTreeOptions timid;
  timid.threshold_override = 1e-9;  // peel nothing
  const auto many = ht::cuttree::build_vertex_cut_tree(g, aggressive);
  const auto one = ht::cuttree::build_vertex_cut_tree(g, timid);
  EXPECT_GT(many.num_pieces, one.num_pieces);
  EXPECT_EQ(one.num_pieces, 1);
  EXPECT_TRUE(one.separator_vertices.empty());
}

TEST(VertexCutTree, DisconnectedGraphSeparatesForFree) {
  ht::graph::Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(4, 5);
  g.finalize();
  const auto result = ht::cuttree::build_vertex_cut_tree(g);
  // Cross-component pairs have gamma_G = 0; tree must not overcharge
  // much — and with an empty separator the root is free.
  const double tree_cut =
      ht::cuttree::tree_vertex_cut_flow(result.tree, {0}, {2});
  EXPECT_DOUBLE_EQ(tree_cut, 0.0);
}

TEST(VertexCutTree, DeterministicAcrossThreadCounts) {
  // The determinism contract: piece RNG streams derive from
  // (seed, piece index), never from scheduling, so a 1-thread build and a
  // 4-thread build of the same instance are byte-identical.
  ht::Rng rng(20260805);
  const auto g = ht::graph::gnp_connected(96, 4.0 / 96, rng);
  auto build = [&g] { return ht::cuttree::build_vertex_cut_tree(g); };

  ht::ThreadPool::reset_global(1);
  const auto serial = build();
  ht::ThreadPool::reset_global(4);
  const auto parallel = build();
  ht::ThreadPool::reset_global();

  EXPECT_EQ(ht::cuttree::tree_signature(serial.tree),
            ht::cuttree::tree_signature(parallel.tree));
  EXPECT_EQ(serial.separator_vertices, parallel.separator_vertices);
  EXPECT_EQ(serial.num_pieces, parallel.num_pieces);
  EXPECT_DOUBLE_EQ(serial.separator_weight, parallel.separator_weight);
}

// ---------- Corollary 3 DP ----------

TEST(TreeBisection, SimpleStarTree) {
  // Root with 4 vertex leaves; cutting the root (w=1) allows any split.
  Tree t;
  t.reserve_vertices(4);
  const NodeId root = t.add_node(-1, 1.0);
  for (VertexId v = 0; v < 4; ++v)
    t.set_vertex_node(v, t.add_node(root, 10.0));
  const auto result =
      ht::cuttree::balanced_tree_bisection(t, {0, 1, 2, 3});
  ASSERT_TRUE(result.valid);
  EXPECT_DOUBLE_EQ(result.tree_cut, 1.0);
  int on_one = 0;
  for (bool b : result.side) on_one += b ? 1 : 0;
  EXPECT_EQ(on_one, 2);
}

TEST(TreeBisection, PrefersCheapLeaves) {
  // Root(w=100) with leaves w={1,1,50,50}: cutting two cheap leaves (cost 2)
  // beats the root.
  Tree t;
  t.reserve_vertices(4);
  const NodeId root = t.add_node(-1, 100.0);
  t.set_vertex_node(0, t.add_node(root, 1.0));
  t.set_vertex_node(1, t.add_node(root, 1.0));
  t.set_vertex_node(2, t.add_node(root, 50.0));
  t.set_vertex_node(3, t.add_node(root, 50.0));
  const auto result = ht::cuttree::balanced_tree_bisection(t, {0, 1, 2, 3});
  ASSERT_TRUE(result.valid);
  EXPECT_DOUBLE_EQ(result.tree_cut, 2.0);
}

TEST(TreeBisection, CutsLeavesWhenCheaperThanRoot) {
  // Two anchors with two unit leaves each under a root of weight 5.
  // Cutting the root (5) separates the anchors, but cutting two unit
  // leaves (2) and redistributing them as free vertices is cheaper.
  Tree t;
  t.reserve_vertices(4);
  const NodeId root = t.add_node(-1, 5.0);
  const NodeId a1 = t.add_node(root, ht::cuttree::kInfiniteNodeWeight);
  const NodeId a2 = t.add_node(root, ht::cuttree::kInfiniteNodeWeight);
  t.set_vertex_node(0, t.add_node(a1, 1.0));
  t.set_vertex_node(1, t.add_node(a1, 1.0));
  t.set_vertex_node(2, t.add_node(a2, 1.0));
  t.set_vertex_node(3, t.add_node(a2, 1.0));
  const auto result = ht::cuttree::balanced_tree_bisection(t, {0, 1, 2, 3});
  ASSERT_TRUE(result.valid);
  EXPECT_DOUBLE_EQ(result.tree_cut, 2.0);
  int on_one = 0;
  for (bool b : result.side) on_one += b ? 1 : 0;
  EXPECT_EQ(on_one, 2);
}

TEST(TreeBisection, RootCutWhenLeavesAreExpensive) {
  // Same shape but leaves of weight 10: now the root (5) wins and the
  // subtrees become the two sides.
  Tree t;
  t.reserve_vertices(4);
  const NodeId root = t.add_node(-1, 5.0);
  const NodeId a1 = t.add_node(root, ht::cuttree::kInfiniteNodeWeight);
  const NodeId a2 = t.add_node(root, ht::cuttree::kInfiniteNodeWeight);
  t.set_vertex_node(0, t.add_node(a1, 10.0));
  t.set_vertex_node(1, t.add_node(a1, 10.0));
  t.set_vertex_node(2, t.add_node(a2, 10.0));
  t.set_vertex_node(3, t.add_node(a2, 10.0));
  const auto result = ht::cuttree::balanced_tree_bisection(t, {0, 1, 2, 3});
  ASSERT_TRUE(result.valid);
  EXPECT_DOUBLE_EQ(result.tree_cut, 5.0);
  EXPECT_NE(result.side[0], result.side[2]);
  EXPECT_EQ(result.side[0], result.side[1]);
  EXPECT_EQ(result.side[2], result.side[3]);
}

TEST(TreeBisection, BruteForceCrossCheck) {
  // Exhaustive check on random small trees: DP tree_cut equals the best
  // over all (cut set, coloring) combinations.
  ht::Rng rng(23);
  for (int trial = 0; trial < 6; ++trial) {
    const VertexId n = 6;
    const Tree t = random_tree(n, rng);
    const auto dp = ht::cuttree::balanced_tree_bisection(t, {0, 1, 2, 3, 4, 5});
    ASSERT_TRUE(dp.valid);
    // Brute force: enumerate cut subsets of tree nodes; components of the
    // remaining forest must 2-color so counted vertices balance; counted
    // vertices at cut nodes are free.
    const NodeId tn = t.num_nodes();
    double best = 1e300;
    ht::for_each_subset(tn, [&](std::uint32_t mask) {
      double w = 0.0;
      for (NodeId x = 0; x < tn; ++x)
        if (mask & (1u << x)) w += t.node_weight(x);
      if (w >= best) return;
      // Components of the forest.
      std::vector<std::int32_t> comp(static_cast<std::size_t>(tn), -1);
      std::int32_t comps = 0;
      for (NodeId x = 0; x < tn; ++x) {
        if (mask & (1u << x)) continue;
        const NodeId p = t.parent(x);
        if (p != -1 && !(mask & (1u << p))) {
          comp[static_cast<std::size_t>(x)] = comp[static_cast<std::size_t>(p)];
        } else {
          comp[static_cast<std::size_t>(x)] = comps++;
        }
      }
      // Counted vertices per component; free = at cut nodes.
      std::vector<std::int32_t> per_comp(static_cast<std::size_t>(comps), 0);
      std::int32_t free_count = 0;
      for (VertexId v = 0; v < n; ++v) {
        const NodeId node = t.node_of_vertex(v);
        if (mask & (1u << node)) {
          ++free_count;
        } else {
          ++per_comp[static_cast<std::size_t>(
              comp[static_cast<std::size_t>(node)])];
        }
      }
      // Subset-sum over components to hit n/2 (with free vertices flexible).
      std::vector<bool> reachable(static_cast<std::size_t>(n) + 1, false);
      reachable[0] = true;
      for (std::int32_t c = 0; c < comps; ++c) {
        std::vector<bool> next(reachable.size(), false);
        for (std::size_t s = 0; s < reachable.size(); ++s) {
          if (!reachable[s]) continue;
          next[s] = true;
          const std::size_t add =
              s + static_cast<std::size_t>(
                      per_comp[static_cast<std::size_t>(c)]);
          if (add < next.size()) next[add] = true;
        }
        reachable = std::move(next);
      }
      const std::int32_t half = n / 2;
      for (std::int32_t s = 0; s <= half; ++s) {
        if (reachable[static_cast<std::size_t>(s)] && s + free_count >= half) {
          best = std::min(best, w);
          return;
        }
      }
    });
    EXPECT_NEAR(dp.tree_cut, best, 1e-9) << "trial " << trial;
  }
}

// ---------- edge cut tree candidates ----------

TEST(EdgeCutTrees, TopologiesValidate) {
  ht::Rng rng(29);
  ht::cuttree::star_topology(8).validate();
  ht::cuttree::path_topology({0, 1, 2, 3}).validate();
  ht::cuttree::balanced_binary_topology({0, 1, 2, 3, 4, 5}).validate();
  ht::cuttree::random_topology(10, rng).validate();
}

TEST(EdgeCutTrees, GomoryHuTopologyEmbedsAll) {
  ht::Rng rng(31);
  const auto h = ht::hypergraph::random_uniform(10, 16, 3, rng);
  if (!ht::hypergraph::is_connected(h)) GTEST_SKIP();
  const Tree t = ht::cuttree::gomory_hu_topology(h);
  for (VertexId v = 0; v < 10; ++v) EXPECT_NE(t.node_of_vertex(v), -1);
}

TEST(EdgeCutTrees, InducedWeightsDominate) {
  ht::Rng rng(37);
  const auto h = ht::hypergraph::random_uniform(9, 14, 3, rng);
  for (auto make : {+[](VertexId n, ht::Rng& r) {
                      (void)r;
                      return ht::cuttree::star_topology(n);
                    },
                    +[](VertexId n, ht::Rng& r) {
                      return ht::cuttree::random_topology(n, r);
                    }}) {
    Tree t = make(9, rng);
    ht::cuttree::assign_induced_weights(h, t);
    for (int trial = 0; trial < 12; ++trial) {
      auto pick = rng.sample_without_replacement(9, 2);
      const std::vector<VertexId> a{pick[0]}, b{pick[1]};
      const double dh = ht::CutEngine().min_hyperedge_cut(h, a, b).value;
      const double dt = ht::cuttree::tree_edge_cut_dp(t, a, b);
      EXPECT_GE(dt, dh - 1e-9);
    }
  }
}

TEST(EdgeCutTrees, StarQualityOnSpanningEdgeIsLinear) {
  // Theorem 6 intuition made concrete: on the single-spanning-hyperedge
  // instance, the star tree with induced weights has quality Theta(n).
  const VertexId n = 12;
  const auto h = ht::hypergraph::single_spanning_edge(n);
  Tree t = ht::cuttree::star_topology(n);
  ht::cuttree::assign_induced_weights(h, t);
  // Balanced split: tree pays n/2 edges of weight 1, hypergraph pays 1.
  std::vector<VertexId> a, b;
  for (VertexId v = 0; v < n; ++v) (v < n / 2 ? a : b).push_back(v);
  const double dt = ht::cuttree::tree_edge_cut_dp(t, a, b);
  const double dh = ht::CutEngine().min_hyperedge_cut(h, a, b).value;
  EXPECT_DOUBLE_EQ(dh, 1.0);
  EXPECT_DOUBLE_EQ(dt, static_cast<double>(n / 2));
}

// ---------- quality helpers ----------

TEST(Quality, SingletonPairsCount) {
  EXPECT_EQ(ht::cuttree::all_singleton_pairs(5).size(), 10u);
}

TEST(Quality, RandomSetPairsDisjoint) {
  ht::Rng rng(41);
  const auto pairs = ht::cuttree::random_set_pairs(20, 50, 4, rng);
  EXPECT_EQ(pairs.size(), 50u);
  for (const auto& [a, b] : pairs) {
    EXPECT_FALSE(a.empty());
    EXPECT_FALSE(b.empty());
    for (VertexId x : a)
      for (VertexId y : b) EXPECT_NE(x, y);
  }
}


// ---------- from_arrays error paths ----------

TEST(TreeFromArrays, RoundTripsAValidTree) {
  const std::vector<ht::cuttree::NodeId> parent = {-1, 0, 0, 1};
  const std::vector<double> node_weight = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> edge_weight = {0.0, 5.0, 6.0, 7.0};
  const std::vector<ht::cuttree::NodeId> vertex_node = {3, 2, 1};
  const auto tree = Tree::from_arrays(parent, node_weight, edge_weight,
                                      vertex_node);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_nodes(), 4);
  EXPECT_EQ(tree->root(), 0);
  EXPECT_EQ(tree->node_of_vertex(0), 3);
  EXPECT_DOUBLE_EQ(tree->edge_weight(3), 7.0);
}

TEST(TreeFromArrays, RejectsEmptyArrays) {
  const auto tree = Tree::from_arrays({}, {}, {}, {});
  EXPECT_EQ(tree.status().code(), ht::StatusCode::kInvalidArgument);
}

TEST(TreeFromArrays, RejectsLengthMismatch) {
  const std::vector<ht::cuttree::NodeId> parent = {-1, 0};
  const std::vector<double> node_weight = {1.0, 2.0};
  const std::vector<double> edge_weight = {0.0};  // one short
  const std::vector<ht::cuttree::NodeId> vertex_node = {0};
  const auto tree = Tree::from_arrays(parent, node_weight, edge_weight,
                                      vertex_node);
  EXPECT_EQ(tree.status().code(), ht::StatusCode::kInvalidArgument);
}

TEST(TreeFromArrays, RejectsRootWithParent) {
  const std::vector<ht::cuttree::NodeId> parent = {1, -1};
  const std::vector<double> weights = {1.0, 1.0};
  const std::vector<ht::cuttree::NodeId> vertex_node = {0};
  const auto tree = Tree::from_arrays(parent, weights, weights, vertex_node);
  EXPECT_EQ(tree.status().code(), ht::StatusCode::kInvalidArgument);
}

TEST(TreeFromArrays, RejectsParentOutOfTopologicalOrder) {
  // Node 1 claims node 2 as parent: parents must precede children.
  const std::vector<ht::cuttree::NodeId> parent = {-1, 2, 0};
  const std::vector<double> weights = {1.0, 1.0, 1.0};
  const std::vector<ht::cuttree::NodeId> vertex_node = {0};
  const auto tree = Tree::from_arrays(parent, weights, weights, vertex_node);
  EXPECT_EQ(tree.status().code(), ht::StatusCode::kInvalidArgument);
}

TEST(TreeFromArrays, RejectsVertexEmbeddingOutOfRange) {
  const std::vector<ht::cuttree::NodeId> parent = {-1, 0};
  const std::vector<double> weights = {1.0, 1.0};
  const std::vector<ht::cuttree::NodeId> vertex_node = {2};  // only 2 nodes
  const auto tree = Tree::from_arrays(parent, weights, weights, vertex_node);
  EXPECT_EQ(tree.status().code(), ht::StatusCode::kInvalidArgument);
}

TEST(TreeFromArrays, RejectsNegativeOrNanWeights) {
  const std::vector<ht::cuttree::NodeId> parent = {-1, 0, 0};
  const std::vector<ht::cuttree::NodeId> vertex_node = {1, 2};
  const std::vector<double> good = {1.0, 0.0, 1e15};
  for (const double bad : {-1.0, -0.0, std::nan("")}) {
    for (std::size_t i = 0; i < good.size(); ++i) {
      std::vector<double> weights = good;
      weights[i] = bad;
      EXPECT_EQ(Tree::from_arrays(parent, weights, good, vertex_node)
                    .status()
                    .code(),
                ht::StatusCode::kInvalidArgument)
          << "node weight " << bad << " at " << i;
      EXPECT_EQ(Tree::from_arrays(parent, good, weights, vertex_node)
                    .status()
                    .code(),
                ht::StatusCode::kInvalidArgument)
          << "edge weight " << bad << " at " << i;
    }
  }
  EXPECT_TRUE(Tree::from_arrays(parent, good, good, vertex_node).ok());
}

TEST(Tree, FromArraysMatchesAddNode) {
  // The loader links its sibling lists in one pass; the builders append
  // one node at a time. Both must give the same tree, the same ascending
  // children, and so the same DP answers, bit for bit.
  enum class Shape { kStar, kPath, kCaterpillar, kRandom };
  ht::Rng rng(4242);
  for (const Shape shape :
       {Shape::kStar, Shape::kPath, Shape::kCaterpillar, Shape::kRandom}) {
    for (const NodeId nodes : {1, 2, 7, 64, 2000}) {
      std::vector<NodeId> parent(static_cast<std::size_t>(nodes));
      std::vector<double> node_weight(parent.size());
      std::vector<double> edge_weight(parent.size());
      for (NodeId v = 0; v < nodes; ++v) {
        NodeId p = -1;
        if (v > 0) {
          switch (shape) {
            case Shape::kStar: p = 0; break;
            case Shape::kPath: p = v - 1; break;
            case Shape::kCaterpillar:  // even spine, one odd leg each
              p = v % 2 == 0 ? v - 2 : v - 1;
              break;
            case Shape::kRandom:
              p = static_cast<NodeId>(rng.next_below(
                  static_cast<std::uint64_t>(v)));
              break;
          }
        }
        const auto idx = static_cast<std::size_t>(v);
        parent[idx] = p;
        node_weight[idx] = rng.next_double() * 10.0;
        edge_weight[idx] = v == 0 ? 0.0 : rng.next_double() * 10.0;
      }
      // An even number of vertices, several per node on larger trees.
      const auto vertices = static_cast<VertexId>(2 * (1 + nodes / 4));
      std::vector<NodeId> vertex_node(static_cast<std::size_t>(vertices));
      for (NodeId& node : vertex_node) {
        node = static_cast<NodeId>(rng.next_below(
            static_cast<std::uint64_t>(nodes)));
      }

      Tree added;
      for (NodeId v = 0; v < nodes; ++v) {
        const auto idx = static_cast<std::size_t>(v);
        added.add_node(parent[idx], node_weight[idx], edge_weight[idx]);
      }
      added.reserve_vertices(vertices);
      for (VertexId v = 0; v < vertices; ++v) {
        added.set_vertex_node(v, vertex_node[static_cast<std::size_t>(v)]);
      }
      const auto loaded =
          Tree::from_arrays(parent, node_weight, edge_weight, vertex_node);
      ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
      const std::string where = "shape " +
                                std::to_string(static_cast<int>(shape)) +
                                ", " + std::to_string(nodes) + " nodes";
      ASSERT_EQ(ht::cuttree::tree_signature(*loaded),
                ht::cuttree::tree_signature(added))
          << where;

      // Children: ascending, and exactly the nodes naming v as parent.
      std::vector<std::vector<NodeId>> expected(parent.size());
      for (NodeId v = 1; v < nodes; ++v) {
        expected[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])]
            .push_back(v);
      }
      for (NodeId v = 0; v < nodes; ++v) {
        const auto& want = expected[static_cast<std::size_t>(v)];
        for (const Tree* t : std::array<const Tree*, 2>{&added, &*loaded}) {
          const auto range = t->children(v);
          ASSERT_EQ(std::vector<NodeId>(range.begin(), range.end()), want)
              << where << ", node " << v;
          ASSERT_EQ(range.size(), want.size());
          ASSERT_EQ(range.empty(), want.empty());
        }
      }

      std::vector<VertexId> a, b;
      for (int q = 0; q < 8; ++q) {
        if (!random_terminal_sets(*loaded, vertices, rng, a, b)) continue;
        EXPECT_TRUE(same_bits(ht::cuttree::tree_vertex_cut_dp(*loaded, a, b),
                              ht::cuttree::tree_vertex_cut_dp(added, a, b)))
            << where << ", vertex cut query " << q;
        EXPECT_TRUE(same_bits(ht::cuttree::tree_edge_cut_dp(*loaded, a, b),
                              ht::cuttree::tree_edge_cut_dp(added, a, b)))
            << where << ", edge cut query " << q;
      }
      std::vector<VertexId> counted(static_cast<std::size_t>(vertices));
      for (VertexId v = 0; v < vertices; ++v) {
        counted[static_cast<std::size_t>(v)] = v;
      }
      const auto bisect_loaded =
          ht::cuttree::balanced_tree_bisection(*loaded, counted);
      const auto bisect_added =
          ht::cuttree::balanced_tree_bisection(added, counted);
      ASSERT_TRUE(bisect_loaded.valid) << where;
      EXPECT_EQ(bisect_loaded.side, bisect_added.side) << where;
      EXPECT_TRUE(same_bits(bisect_loaded.tree_cut, bisect_added.tree_cut))
          << where;
      const std::int64_t target = vertices / 3;
      const auto part_loaded =
          ht::cuttree::tree_edge_partition(*loaded, counted, target);
      const auto part_added =
          ht::cuttree::tree_edge_partition(added, counted, target);
      ASSERT_TRUE(part_loaded.valid) << where;
      EXPECT_EQ(part_loaded.side, part_added.side) << where;
      EXPECT_TRUE(same_bits(part_loaded.tree_cut, part_added.tree_cut))
          << where;
    }
  }
}

TEST(TreeFromArrays, LiftVerticesReembedsThroughAContractionMap) {
  const std::vector<ht::cuttree::NodeId> parent = {-1, 0, 0};
  const std::vector<double> weights = {1.0, 1.0, 1.0};
  const std::vector<ht::cuttree::NodeId> vertex_node = {1, 2};
  auto tree = Tree::from_arrays(parent, weights, weights, vertex_node);
  ASSERT_TRUE(tree.ok());
  // Four original vertices contracted 2:1 onto the embedded pair.
  const std::vector<ht::cuttree::VertexId> to_current = {0, 0, 1, 1};
  tree->lift_vertices(to_current);
  EXPECT_EQ(tree->num_embedded_vertices(), 4);
  EXPECT_EQ(tree->node_of_vertex(0), 1);
  EXPECT_EQ(tree->node_of_vertex(1), 1);
  EXPECT_EQ(tree->node_of_vertex(2), 2);
  EXPECT_EQ(tree->node_of_vertex(3), 2);
  tree->validate();
}

}  // namespace
