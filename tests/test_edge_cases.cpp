// Degenerate-input and failure-injection coverage across the public API:
// minimal sizes, parallel/zero/huge weights, malformed IO, contract
// corner cases, empty hypergraphs, adversarial parameter values.
#include <gtest/gtest.h>


#include "core/bisection.hpp"
#include "cuttree/vertex_cut_tree.hpp"
#include "flow/cut_engine.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/io.hpp"
#include "partition/exact.hpp"
#include "partition/fm.hpp"
#include "partition/min_ratio_cut.hpp"
#include "reduction/clique_expansion.hpp"
#include "reduction/star_expansion.hpp"
#include "util/rng.hpp"

namespace {

using ht::graph::Graph;
using ht::hypergraph::Hypergraph;

// ---------- minimal sizes ----------

TEST(EdgeCases, TwoVertexGraphEverything) {
  Graph g(2);
  g.add_edge(0, 1, 5.0);
  g.finalize();
  EXPECT_DOUBLE_EQ(ht::CutEngine().min_edge_cut(g, {0}, {1}).value, 5.0);
  EXPECT_DOUBLE_EQ(ht::CutEngine().min_vertex_cut(g, {0}, {1}).value, 1.0);
  const auto tree = ht::CutEngine().gomory_hu(g).tree;
  EXPECT_DOUBLE_EQ(tree.min_cut(0, 1), 5.0);
  const auto built = ht::cuttree::build_vertex_cut_tree(g);
  built.tree.validate();
}

TEST(EdgeCases, TwoVertexHypergraphBisection) {
  Hypergraph h(2);
  h.add_edge({0, 1}, 3.0);
  h.finalize();
  const auto t1 = ht::core::bisect_theorem1(h);
  EXPECT_DOUBLE_EQ(t1.solution.cut, 3.0);  // any bisection cuts the edge
  const auto c3 = ht::core::bisect_via_cut_tree(h);
  EXPECT_DOUBLE_EQ(c3.solution.cut, 3.0);
}

TEST(EdgeCases, SingleVertexGraphTree) {
  Graph g(1);
  g.finalize();
  const auto built = ht::cuttree::build_vertex_cut_tree(g);
  built.tree.validate();
  EXPECT_EQ(built.num_pieces, 1);
}

TEST(EdgeCases, IsolatedVerticesInHypergraph) {
  Hypergraph h(6);
  h.add_edge({0, 1});
  h.finalize();
  EXPECT_EQ(h.degree(5), 0);
  const auto report = ht::core::bisect_theorem1(h);
  ht::partition::validate_bisection(h, report.solution);
  EXPECT_LE(report.solution.cut, 1.0);
}

// ---------- weights ----------

TEST(EdgeCases, ParallelEdgesBehaveAdditively) {
  Graph g(2);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 1, 3.0);
  g.finalize();
  EXPECT_DOUBLE_EQ(ht::CutEngine().min_edge_cut(g, {0}, {1}).value, 5.0);
  EXPECT_DOUBLE_EQ(g.cut_weight({true, false}), 5.0);
}

TEST(EdgeCases, ZeroWeightEdgesAreFreeToCut) {
  Graph g(3);
  g.add_edge(0, 1, 0.0);
  g.add_edge(1, 2, 4.0);
  g.finalize();
  EXPECT_DOUBLE_EQ(ht::CutEngine().min_edge_cut(g, {0}, {2}).value, 0.0);
}

TEST(EdgeCases, ParallelHyperedges) {
  Hypergraph h(3);
  h.add_edge({0, 1, 2}, 1.0);
  h.add_edge({0, 1, 2}, 2.0);
  h.finalize();
  EXPECT_DOUBLE_EQ(h.cut_weight(std::vector<ht::hypergraph::VertexId>{0}),
                   3.0);
  const auto cut = ht::CutEngine().min_hyperedge_cut(h, {0}, {2});
  EXPECT_DOUBLE_EQ(cut.value, 3.0);
}

TEST(EdgeCases, LargeWeightsStayFinite) {
  Graph g(3);
  g.add_edge(0, 1, 1e12);
  g.add_edge(1, 2, 1e12);
  g.finalize();
  EXPECT_DOUBLE_EQ(ht::CutEngine().min_edge_cut(g, {0}, {2}).value, 1e12);
  // Vertex cuts with huge vertex weights.
  g.set_vertex_weight(1, 1e12);
  EXPECT_DOUBLE_EQ(ht::CutEngine().min_vertex_cut(g, {0}, {2}).value, 1.0);
}

TEST(EdgeCases, CliqueExpansionOfTwoPinEdgeIsIdentity) {
  Hypergraph h(2);
  h.add_edge({0, 1}, 7.0);
  h.finalize();
  const Graph g = ht::reduction::clique_expansion(h);
  ASSERT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.edge(0).weight, 7.0);  // 7 / (2-1)
}

TEST(EdgeCases, StarExpansionOfEmptyHypergraph) {
  Hypergraph h(3);
  h.finalize();
  const auto star = ht::reduction::star_expansion(h);
  EXPECT_EQ(star.graph.num_vertices(), 3);
  EXPECT_EQ(star.graph.num_edges(), 0);
  for (ht::graph::VertexId v = 0; v < 3; ++v)
    EXPECT_DOUBLE_EQ(star.graph.vertex_weight(v), 1.0);  // degree 0 + 1
}

// ---------- IO robustness ----------

TEST(EdgeCases, HmetisRejectsTruncatedInput) {
  // Promises 3 edges, has 1.
  EXPECT_FALSE(ht::hypergraph::try_read_hmetis("3 4\n1 2\n").ok());
}

TEST(EdgeCases, HmetisRejectsPinOutOfRange) {
  EXPECT_FALSE(ht::hypergraph::try_read_hmetis("1 3\n1 9\n").ok());
}

// ---------- oracle degenerate inputs ----------

TEST(EdgeCases, MinRatioCutOnCliqueHasNoSeparator) {
  // In a complete graph any two surviving vertices stay adjacent, so NO
  // vertex separator exists; both oracles must report invalid and the
  // cut-tree builder then treats the clique as a final piece.
  const Graph g = ht::graph::clique(8);
  ht::Rng rng(2);
  const auto sep = ht::partition::min_ratio_vertex_cut(g, rng);
  EXPECT_FALSE(sep.valid);
  const auto exact = ht::partition::min_ratio_vertex_cut_exact(g);
  EXPECT_FALSE(exact.valid);
  const auto built = ht::cuttree::build_vertex_cut_tree(g);
  built.tree.validate();
  EXPECT_EQ(built.num_pieces, 1);
  EXPECT_TRUE(built.separator_vertices.empty());
}

TEST(EdgeCases, FmOnCompleteHypergraphAllCutsEqual) {
  const Hypergraph h = ht::hypergraph::single_spanning_edge(6);
  ht::Rng rng(3);
  const auto sol = ht::partition::fm_bisection(h, rng, 2);
  ht::partition::validate_bisection(h, sol);
  EXPECT_DOUBLE_EQ(sol.cut, 1.0);
}

TEST(EdgeCases, ExactBisectionOfSpanningEdge) {
  const Hypergraph h = ht::hypergraph::single_spanning_edge(8, 5.0);
  const auto sol = ht::partition::exact_hypergraph_bisection(h);
  EXPECT_DOUBLE_EQ(sol.cut, 5.0);
}

TEST(EdgeCases, VertexCutTreeOnStarGraph) {
  // Star: removing the centre splits everything; Section 3.1 should find
  // it at a permissive threshold.
  const Graph g = ht::graph::star(12);
  ht::cuttree::VertexCutTreeOptions options;
  options.threshold_override = 0.45;
  const auto built = ht::cuttree::build_vertex_cut_tree(g, options);
  built.tree.validate();
  EXPECT_GE(built.num_pieces, 2);
  ASSERT_EQ(built.separator_vertices.size(), 1u);
  EXPECT_EQ(built.separator_vertices[0], 0);  // the centre
}

TEST(EdgeCases, GomoryHuOnTreeInputIsExactTrivially) {
  const Graph g = ht::graph::path(6);
  const auto tree = ht::CutEngine().gomory_hu(g).tree;
  for (ht::graph::VertexId s = 0; s < 6; ++s)
    for (ht::graph::VertexId t = s + 1; t < 6; ++t)
      EXPECT_DOUBLE_EQ(tree.min_cut(s, t), 1.0);
}

TEST(EdgeCases, Theorem1OnUniformWeightsTiesHandled) {
  // All hyperedges identical weight: guess ladder collapses; still valid.
  Hypergraph h(8);
  for (int i = 0; i < 8; ++i)
    h.add_edge({static_cast<ht::hypergraph::VertexId>(i),
                static_cast<ht::hypergraph::VertexId>((i + 1) % 8)},
               2.0);
  h.finalize();
  const auto report = ht::core::bisect_theorem1(h);
  ht::partition::validate_bisection(h, report.solution);
  EXPECT_DOUBLE_EQ(report.solution.cut, 4.0);  // ring of 8: best cut 2 edges*2
}

}  // namespace
