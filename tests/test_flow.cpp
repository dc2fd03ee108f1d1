#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "dinic.hpp"
#include "flow/cut_engine.hpp"
#include "flow/flow_network.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "util/rng.hpp"
#include "util/subsets.hpp"

namespace {

using ht::flow::Dinic;
using ht::graph::Graph;
using ht::graph::VertexId;
using ht::hypergraph::Hypergraph;

// ---------- brute-force references ----------

double brute_edge_cut(const Graph& g, const std::vector<VertexId>& a,
                      const std::vector<VertexId>& b) {
  const int n = g.num_vertices();
  std::vector<int> free_vertices;
  std::vector<bool> base(static_cast<std::size_t>(n), false);
  std::vector<bool> fixed(static_cast<std::size_t>(n), false);
  for (VertexId v : a) {
    base[static_cast<std::size_t>(v)] = true;
    fixed[static_cast<std::size_t>(v)] = true;
  }
  for (VertexId v : b) fixed[static_cast<std::size_t>(v)] = true;
  for (int v = 0; v < n; ++v)
    if (!fixed[static_cast<std::size_t>(v)]) free_vertices.push_back(v);
  double best = std::numeric_limits<double>::infinity();
  ht::for_each_subset(static_cast<int>(free_vertices.size()),
                      [&](std::uint32_t mask) {
                        auto side = base;
                        for (std::size_t i = 0; i < free_vertices.size(); ++i)
                          if (mask & (1u << i))
                            side[static_cast<std::size_t>(free_vertices[i])] =
                                true;
                        best = std::min(best, g.cut_weight(side));
                      });
  return best;
}

double brute_vertex_cut(const Graph& g, const std::vector<VertexId>& a,
                        const std::vector<VertexId>& b) {
  const int n = g.num_vertices();
  double best = std::numeric_limits<double>::infinity();
  ht::for_each_subset(n, [&](std::uint32_t mask) {
    const auto cut = ht::mask_to_vertices(mask, n);
    if (!ht::flow::vertex_cut_separates(g, cut, a, b)) return;
    double w = 0.0;
    for (VertexId v : cut) w += g.vertex_weight(v);
    best = std::min(best, w);
  });
  return best;
}

double brute_hyperedge_cut(const Hypergraph& h,
                           const std::vector<VertexId>& a,
                           const std::vector<VertexId>& b) {
  const int n = h.num_vertices();
  std::vector<int> free_vertices;
  std::vector<bool> base(static_cast<std::size_t>(n), false);
  std::vector<bool> fixed(static_cast<std::size_t>(n), false);
  for (VertexId v : a) {
    base[static_cast<std::size_t>(v)] = true;
    fixed[static_cast<std::size_t>(v)] = true;
  }
  for (VertexId v : b) fixed[static_cast<std::size_t>(v)] = true;
  for (int v = 0; v < n; ++v)
    if (!fixed[static_cast<std::size_t>(v)]) free_vertices.push_back(v);
  double best = std::numeric_limits<double>::infinity();
  ht::for_each_subset(static_cast<int>(free_vertices.size()),
                      [&](std::uint32_t mask) {
                        auto side = base;
                        for (std::size_t i = 0; i < free_vertices.size(); ++i)
                          if (mask & (1u << i))
                            side[static_cast<std::size_t>(free_vertices[i])] =
                                true;
                        best = std::min(best, h.cut_weight(side));
                      });
  return best;
}

// ---------- Dinic on hand-built networks ----------

TEST(Dinic, TextbookNetwork) {
  Dinic<double> d(4);
  d.add_arc(0, 1, 3.0);
  d.add_arc(0, 2, 2.0);
  d.add_arc(1, 2, 5.0);
  d.add_arc(1, 3, 2.0);
  d.add_arc(2, 3, 3.0);
  EXPECT_DOUBLE_EQ(d.max_flow(0, 3), 5.0);
}

TEST(Dinic, DisconnectedSinkZeroFlow) {
  Dinic<double> d(3);
  d.add_arc(0, 1, 4.0);
  EXPECT_DOUBLE_EQ(d.max_flow(0, 2), 0.0);
  const auto side = d.min_cut_source_side();
  EXPECT_TRUE(side[0]);
  EXPECT_TRUE(side[1]);
  EXPECT_FALSE(side[2]);
}

TEST(Dinic, IntegerCapacities) {
  Dinic<std::int64_t> d(4);
  d.add_arc(0, 1, 10);
  d.add_arc(1, 3, 7);
  d.add_arc(0, 2, 5);
  d.add_arc(2, 3, 5);
  EXPECT_EQ(d.max_flow(0, 3), 12);
}

TEST(Dinic, UndirectedEdgeCarriesBothWays) {
  Dinic<double> d(3);
  d.add_undirected(0, 1, 2.0);
  d.add_undirected(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(d.max_flow(0, 2), 2.0);
  Dinic<double> d2(3);
  d2.add_undirected(0, 1, 2.0);
  d2.add_undirected(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(d2.max_flow(2, 0), 2.0);
}

TEST(Dinic, FractionalCapacities) {
  // Clique-expansion-style weights 1/(|h|-1).
  Dinic<double> d(3);
  d.add_undirected(0, 1, 1.0 / 3.0);
  d.add_undirected(1, 2, 1.0 / 3.0);
  d.add_undirected(0, 2, 1.0 / 3.0);
  EXPECT_NEAR(d.max_flow(0, 2), 2.0 / 3.0, 1e-9);
}

// ---------- min_edge_cut ----------

TEST(MinEdgeCut, PathGraph) {
  const Graph g = ht::graph::path(5);
  const auto cut = ht::CutEngine().min_edge_cut(g, {0}, {4});
  EXPECT_DOUBLE_EQ(cut.value, 1.0);
  EXPECT_EQ(cut.cut_edges.size(), 1u);
}

TEST(MinEdgeCut, WeightedChoice) {
  Graph g(4);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 10.0);
  g.finalize();
  const auto cut = ht::CutEngine().min_edge_cut(g, {0}, {3});
  EXPECT_DOUBLE_EQ(cut.value, 1.0);
  EXPECT_EQ(cut.cut_edges, (std::vector<ht::graph::EdgeId>{1}));
}

TEST(MinEdgeCut, MultiTerminalSets) {
  const Graph g = ht::graph::grid(3, 3);
  const auto cut = ht::CutEngine().min_edge_cut(g, {0, 1, 2}, {6, 7, 8});
  // Separating top row from bottom row of a 3x3 grid costs 3.
  EXPECT_DOUBLE_EQ(cut.value, 3.0);
}

TEST(MinEdgeCut, RejectsOverlap) {
  const Graph g = ht::graph::path(3);
  EXPECT_THROW(ht::CutEngine().min_edge_cut(g, {0, 1}, {1, 2}), std::logic_error);
  EXPECT_THROW(ht::CutEngine().min_edge_cut(g, {}, {1}), std::logic_error);
}

// ---------- min_vertex_cut ----------

TEST(MinVertexCut, PathMiddleVertex) {
  // Path 0-1-2: every single vertex is an optimal cut (the cut may use A or
  // B itself); the value must be 1 and the witness must separate.
  const Graph g = ht::graph::path(3);
  const auto cut = ht::CutEngine().min_vertex_cut(g, {0}, {2});
  EXPECT_DOUBLE_EQ(cut.value, 1.0);
  EXPECT_EQ(cut.cut_vertices.size(), 1u);
  EXPECT_TRUE(ht::flow::vertex_cut_separates(g, cut.cut_vertices, {0}, {2}));
}

TEST(MinVertexCut, MiddleForcedWhenTerminalsHeavy) {
  Graph g = ht::graph::path(3);
  g.set_vertex_weight(0, 10.0);
  g.set_vertex_weight(2, 10.0);
  const auto cut = ht::CutEngine().min_vertex_cut(g, {0}, {2});
  EXPECT_DOUBLE_EQ(cut.value, 1.0);
  EXPECT_EQ(cut.cut_vertices, (std::vector<VertexId>{1}));
}

TEST(MinVertexCut, AdjacentTerminalsUseTerminal) {
  // 0-1 edge: the only vertex cuts are {0} or {1} (cut may include A/B).
  const Graph g = ht::graph::path(2);
  const auto cut = ht::CutEngine().min_vertex_cut(g, {0}, {1});
  EXPECT_DOUBLE_EQ(cut.value, 1.0);
  EXPECT_EQ(cut.cut_vertices.size(), 1u);
}

TEST(MinVertexCut, WeightsSteerTheCut) {
  // 0 - 1 - 3 and 0 - 2 - 3 with w(1) = 5, w(2) = 1: cutting both middles
  // costs 6; cutting 0 costs w(0)=1? Set w(0)=w(3)=10 to force middles.
  Graph g(4);
  g.set_vertex_weight(0, 10.0);
  g.set_vertex_weight(3, 10.0);
  g.set_vertex_weight(1, 5.0);
  g.set_vertex_weight(2, 1.0);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.finalize();
  const auto cut = ht::CutEngine().min_vertex_cut(g, {0}, {3});
  EXPECT_DOUBLE_EQ(cut.value, 6.0);
}

TEST(MinVertexCut, SeparatesPredicate) {
  const Graph g = ht::graph::grid(3, 3);
  EXPECT_TRUE(ht::flow::vertex_cut_separates(g, {1, 4, 7}, {0}, {2}));
  EXPECT_FALSE(ht::flow::vertex_cut_separates(g, {4}, {0}, {2}));
  EXPECT_TRUE(ht::flow::vertex_cut_separates(g, {0}, {0}, {2}));  // A in cut
}

// ---------- min_hyperedge_cut ----------

TEST(MinHyperedgeCut, SingleSpanningEdge) {
  const Hypergraph h = ht::hypergraph::single_spanning_edge(6, 2.5);
  const auto cut = ht::CutEngine().min_hyperedge_cut(h, {0}, {5});
  EXPECT_DOUBLE_EQ(cut.value, 2.5);
  EXPECT_EQ(cut.cut_edges, (std::vector<ht::hypergraph::EdgeId>{0}));
}

TEST(MinHyperedgeCut, ChoosesCheapSeparator) {
  Hypergraph h(5);
  h.add_edge({0, 1, 2}, 5.0);
  h.add_edge({2, 3}, 1.0);
  h.add_edge({3, 4}, 5.0);
  h.finalize();
  const auto cut = ht::CutEngine().min_hyperedge_cut(h, {0}, {4});
  EXPECT_DOUBLE_EQ(cut.value, 1.0);
  EXPECT_EQ(cut.cut_edges, (std::vector<ht::hypergraph::EdgeId>{1}));
}

TEST(MinHyperedgeCut, SeparatesPredicate) {
  Hypergraph h(4);
  h.add_edge({0, 1});
  h.add_edge({1, 2});
  h.add_edge({2, 3});
  h.finalize();
  EXPECT_TRUE(ht::flow::hyperedge_cut_separates(h, {1}, {0}, {3}));
  // Removing edge {0,1} isolates 0 — that DOES separate {0} from {3}.
  EXPECT_TRUE(ht::flow::hyperedge_cut_separates(h, {0}, {0}, {3}));
  // But it does not separate {1} from {3}.
  EXPECT_FALSE(ht::flow::hyperedge_cut_separates(h, {0}, {1}, {3}));
  EXPECT_FALSE(ht::flow::hyperedge_cut_separates(h, {}, {0}, {3}));
}

/// Vertices connected to `a` over the hyperedges not in `cut`, by a search
/// over pins: the oracle for min_hyperedge_cut's source side, which the
/// hypergraph Gomory–Hu builder applies.
std::vector<bool> component_without(
    const Hypergraph& h, const std::vector<ht::hypergraph::EdgeId>& cut,
    const std::vector<VertexId>& a) {
  std::vector<bool> removed(static_cast<std::size_t>(h.num_edges()), false);
  for (auto e : cut) removed[static_cast<std::size_t>(e)] = true;
  std::vector<bool> reached(static_cast<std::size_t>(h.num_vertices()), false);
  std::vector<VertexId> stack;
  for (VertexId v : a) {
    reached[static_cast<std::size_t>(v)] = true;
    stack.push_back(v);
  }
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    for (auto e : h.incident_edges(v)) {
      if (removed[static_cast<std::size_t>(e)]) continue;
      removed[static_cast<std::size_t>(e)] = true;  // expand each edge once
      for (VertexId u : h.pins(e)) {
        if (!reached[static_cast<std::size_t>(u)]) {
          reached[static_cast<std::size_t>(u)] = true;
          stack.push_back(u);
        }
      }
    }
  }
  return reached;
}

TEST(MinHyperedgeCut, SourceSideIsTheComponentOfAWithoutTheCut) {
  ht::Rng rng(2607);
  for (int round = 0; round < 40; ++round) {
    const auto n = static_cast<VertexId>(6 + rng.next_below(35));
    Hypergraph h(n);
    for (VertexId e = 0; e < 2 * n; ++e) {
      const auto size = static_cast<VertexId>(2 + rng.next_below(4));
      // Weights 0, 0.3, ..., 3.6: zero-weight and non-dyadic edges too.
      h.add_edge(rng.sample_without_replacement(n, size),
                 0.3 * static_cast<double>(rng.next_below(13)));
    }
    h.finalize();
    for (int trial = 0; trial < 8; ++trial) {
      const auto terminals = static_cast<VertexId>(2 + rng.next_below(5));
      auto pick = rng.sample_without_replacement(n, terminals);
      const auto split = static_cast<std::ptrdiff_t>(1 + rng.next_below(
                             static_cast<std::uint64_t>(terminals - 1)));
      const std::vector<VertexId> a(pick.begin(), pick.begin() + split);
      const std::vector<VertexId> b(pick.begin() + split, pick.end());
      const auto cut = ht::CutEngine().min_hyperedge_cut(h, a, b);
      ASSERT_TRUE(cut.complete);
      EXPECT_EQ(cut.source_side, component_without(h, cut.cut_edges, a))
          << "round " << round << " trial " << trial;
    }
  }
}

TEST(MinHyperedgeCut, Figure2CutValues) {
  const auto fig = ht::hypergraph::figure2(9);
  // gamma between two u's: the heavy hyperedge and... between u_0 and u_1:
  // cut star edge of u_0 (1) + heavy edge (3) = 4, or both star edges = 2 +
  // heavy 3 = ... minimum separating {u0},{u1}: cut heavy edge + u0's star
  // edge = 3+1 = 4; or heavy + u1's star = 4. delta = 4.
  const auto cut =
      ht::CutEngine().min_hyperedge_cut(fig.hypergraph, {fig.u[0]}, {fig.u[1]});
  EXPECT_DOUBLE_EQ(cut.value, 4.0);
}

// ---------- randomized property suites ----------

// ctest names each case after the printed bytes of its parameter, so
// `name_bytes` spells out the four bytes alignment puts between `n` and `p`
// and holds the values the cases are registered under. Left as padding they
// are uninitialised, and the names would change from build to build.
struct FlowParam {
  int n;
  std::uint32_t name_bytes;
  double p;
  std::uint64_t seed;
};

class EdgeCutProperty : public ::testing::TestWithParam<FlowParam> {};

TEST_P(EdgeCutProperty, MatchesBruteForce) {
  const auto param = GetParam();
  ht::Rng rng(param.seed);
  const Graph g = ht::graph::gnp(param.n, param.p, rng);
  for (int trial = 0; trial < 8; ++trial) {
    auto pick = rng.sample_without_replacement(param.n, 2);
    const std::vector<VertexId> a{pick[0]}, b{pick[1]};
    const auto flow_cut = ht::CutEngine().min_edge_cut(g, a, b);
    EXPECT_NEAR(flow_cut.value, brute_edge_cut(g, a, b), 1e-9);
  }
}

class VertexCutProperty : public ::testing::TestWithParam<FlowParam> {};

TEST_P(VertexCutProperty, MatchesBruteForce) {
  const auto param = GetParam();
  ht::Rng rng(param.seed * 31 + 1);
  Graph g = ht::graph::gnp(param.n, param.p, rng);
  // Random integer vertex weights.
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    g.set_vertex_weight(v, static_cast<double>(1 + rng.next_below(4)));
  for (int trial = 0; trial < 6; ++trial) {
    auto pick = rng.sample_without_replacement(param.n, 2);
    const std::vector<VertexId> a{pick[0]}, b{pick[1]};
    const auto flow_cut = ht::CutEngine().min_vertex_cut(g, a, b);
    EXPECT_NEAR(flow_cut.value, brute_vertex_cut(g, a, b), 1e-9);
    EXPECT_TRUE(ht::flow::vertex_cut_separates(g, flow_cut.cut_vertices, a, b));
  }
}

class HyperedgeCutProperty : public ::testing::TestWithParam<FlowParam> {};

TEST_P(HyperedgeCutProperty, MatchesBruteForce) {
  const auto param = GetParam();
  ht::Rng rng(param.seed * 77 + 3);
  const Hypergraph h = ht::hypergraph::random_uniform(
      param.n, param.n * 2, 3, rng);
  for (int trial = 0; trial < 6; ++trial) {
    auto pick = rng.sample_without_replacement(param.n, 2);
    const std::vector<VertexId> a{pick[0]}, b{pick[1]};
    const auto flow_cut = ht::CutEngine().min_hyperedge_cut(h, a, b);
    EXPECT_NEAR(flow_cut.value, brute_hyperedge_cut(h, a, b), 1e-9);
    EXPECT_TRUE(
        ht::flow::hyperedge_cut_separates(h, flow_cut.cut_edges, a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, EdgeCutProperty,
    ::testing::Values(FlowParam{6, 0x002C3B03, 0.5, 1},
                      FlowParam{8, 0xEFE00000, 0.4, 2},
                      FlowParam{10, 0, 0.3, 3},
                      FlowParam{12, 0xCAC00000, 0.35, 4},
                      FlowParam{9, 0, 0.6, 5}));

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, VertexCutProperty,
    ::testing::Values(FlowParam{6, 0, 0.5, 1},
                      FlowParam{8, 0x211E8651, 0.4, 2},
                      FlowParam{10, 0, 0.3, 3},
                      FlowParam{11, 0x0000562A, 0.35, 4},
                      FlowParam{9, 0x00007FFF, 0.6, 5}));

INSTANTIATE_TEST_SUITE_P(
    RandomHypergraphs, HyperedgeCutProperty,
    ::testing::Values(FlowParam{6, 0, 0, 1}, FlowParam{8, 0xFFFFFFFF, 0, 2},
                      FlowParam{10, 0, 0, 3},
                      FlowParam{12, 0x00007FBE, 0, 4}));

// ---------- Gomory–Hu ----------

TEST(GomoryHu, PathGraphTreeValues) {
  Graph g(4);
  g.add_edge(0, 1, 3.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 2.0);
  g.finalize();
  const auto tree = ht::CutEngine().gomory_hu(g).tree;
  EXPECT_DOUBLE_EQ(tree.min_cut(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(tree.min_cut(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(tree.min_cut(2, 3), 2.0);
}

class GomoryHuProperty : public ::testing::TestWithParam<FlowParam> {};

TEST_P(GomoryHuProperty, AllPairsMatchDirectFlow) {
  const auto param = GetParam();
  ht::Rng rng(param.seed * 131 + 7);
  Graph g = ht::graph::gnp_connected(param.n, param.p, rng);
  // Integer edge weights keep comparisons exact.
  Graph weighted(g.num_vertices());
  for (const auto& e : g.edges())
    weighted.add_edge(e.u, e.v, static_cast<double>(1 + rng.next_below(5)));
  weighted.finalize();
  const auto tree = ht::CutEngine().gomory_hu(weighted).tree;
  for (VertexId s = 0; s < weighted.num_vertices(); ++s) {
    for (VertexId t = s + 1; t < weighted.num_vertices(); ++t) {
      const double direct = ht::CutEngine().min_edge_cut(weighted, {s}, {t}).value;
      EXPECT_NEAR(tree.min_cut(s, t), direct, 1e-9)
          << "pair (" << s << ", " << t << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, GomoryHuProperty,
    ::testing::Values(FlowParam{6, 0, 0.5, 1},
                      FlowParam{8, 0xFFFFFFFF, 0.45, 2},
                      FlowParam{10, 0, 0.35, 3},
                      FlowParam{12, 0x00007FBE, 0.3, 4}));

/// Reference walk: store both root paths, strip the common ancestors,
/// then fold std::min over the s-side edges followed by the t-side edges.
double path_vector_min_cut(const std::vector<VertexId>& parent,
                           const std::vector<double>& parent_cut,
                           VertexId s, VertexId t) {
  const auto path_to_root = [&](VertexId v) {
    std::vector<VertexId> path{v};
    while (parent[static_cast<std::size_t>(path.back())] != -1)
      path.push_back(parent[static_cast<std::size_t>(path.back())]);
    return path;
  };
  const std::vector<VertexId> ps = path_to_root(s);
  const std::vector<VertexId> pt = path_to_root(t);
  std::size_t is = ps.size(), it = pt.size();
  while (is > 0 && it > 0 && ps[is - 1] == pt[it - 1]) {
    --is;
    --it;
  }
  double best = ht::flow::kInfiniteCapacity;
  for (std::size_t i = 0; i < is; ++i)
    best = std::min(best, parent_cut[static_cast<std::size_t>(ps[i])]);
  for (std::size_t i = 0; i < it; ++i)
    best = std::min(best, parent_cut[static_cast<std::size_t>(pt[i])]);
  return best;
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof x) == 0;
}

TEST(GomoryHu, WalkEqualsPathVectorReferenceOnCorpusTrees) {
  ht::Rng rng(41);
  const auto h = ht::hypergraph::random_uniform(60, 180, 4, rng);
  ASSERT_TRUE(ht::hypergraph::is_connected(h));
  const auto htree = ht::CutEngine().gomory_hu(h).tree;
  const Graph g = ht::graph::gnp_connected(40, 0.15, rng);
  const auto gtree = ht::CutEngine().gomory_hu(g).tree;
  for (VertexId s = 0; s < h.num_vertices(); ++s) {
    for (VertexId t = 0; t < h.num_vertices(); ++t) {
      if (s == t) continue;
      ASSERT_TRUE(same_bits(
          htree.min_cut(s, t),
          path_vector_min_cut(htree.parent, htree.parent_cut, s, t)))
          << "hypergraph pair (" << s << ", " << t << ")";
    }
  }
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      if (s == t) continue;
      ASSERT_TRUE(same_bits(
          gtree.min_cut(s, t),
          path_vector_min_cut(gtree.parent, gtree.parent_cut, s, t)))
          << "graph pair (" << s << ", " << t << ")";
    }
  }
}

TEST(GomoryHu, WalkKeepsTheReferenceTieOrderOnSignedZeros) {
  // Random rooted trees whose cuts are mostly tied zeros of both signs:
  // the walk must pick the same zero the reference fold picks.
  const double kValues[] = {0.0, -0.0, 0.0, -0.0, 1.5, 2.0};
  ht::Rng rng(43);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<VertexId>(2 + rng.next_below(30));
    ht::flow::HypergraphGomoryHuTree tree;
    tree.root = static_cast<VertexId>(rng.next_below(n));
    tree.parent.assign(static_cast<std::size_t>(n), -1);
    tree.parent_cut.assign(static_cast<std::size_t>(n), 0.0);
    // Attach the vertices in a random order below already-attached ones.
    std::vector<VertexId> order(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
    rng.shuffle(order);
    std::swap(*std::find(order.begin(), order.end(), tree.root), order[0]);
    for (std::size_t i = 1; i < order.size(); ++i) {
      const auto v = static_cast<std::size_t>(order[i]);
      tree.parent[v] = order[rng.next_below(i)];
      tree.parent_cut[v] = kValues[rng.next_below(std::size(kValues))];
    }
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        if (s == t) continue;
        ASSERT_TRUE(same_bits(
            tree.min_cut(s, t),
            path_vector_min_cut(tree.parent, tree.parent_cut, s, t)));
      }
    }
  }
}

TEST(GomoryHu, AsGraphIsTree) {
  ht::Rng rng(9);
  const Graph g = ht::graph::gnp_connected(10, 0.4, rng);
  const auto tree = ht::CutEngine().gomory_hu(g).tree;
  const Graph tg = tree.as_graph();
  EXPECT_EQ(tg.num_edges(), g.num_vertices() - 1);
  EXPECT_TRUE(ht::graph::is_connected(tg));
}

}  // namespace
