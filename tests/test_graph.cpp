#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace {

using ht::graph::Graph;
using ht::graph::VertexId;

TEST(Graph, BasicConstruction) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2);
  g.finalize();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.edge(0).weight, 2.0);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(0), 1);
}

TEST(Graph, RejectsSelfLoopAndBadIds) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0), std::logic_error);
  EXPECT_THROW(g.add_edge(0, 5), std::logic_error);
  EXPECT_THROW(g.add_edge(-1, 1), std::logic_error);
}

TEST(Graph, NeighborsMatchEdges) {
  // neighbors(v) lists v's edges in increasing edge id, parallel edges
  // included — the order the spectral and decomposition kernels sum in.
  Graph g(4);
  g.add_edge(2, 0);
  g.add_edge(0, 1);
  g.add_edge(3, 0);
  g.add_edge(1, 0);  // parallel to edge 1
  g.add_edge(2, 3);
  g.finalize();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::vector<ht::graph::EdgeId> listed, incident;
    for (const auto& a : g.neighbors(v)) {
      const auto& e = g.edge(a.edge);
      EXPECT_TRUE((e.u == v && e.v == a.to) || (e.v == v && e.u == a.to));
      listed.push_back(a.edge);
    }
    for (ht::graph::EdgeId id = 0; id < g.num_edges(); ++id)
      if (g.edge(id).u == v || g.edge(id).v == v) incident.push_back(id);
    EXPECT_EQ(listed, incident) << "vertex " << v;
  }
  std::vector<VertexId> around_zero;
  for (const auto& a : g.neighbors(0)) around_zero.push_back(a.to);
  EXPECT_EQ(around_zero, (std::vector<VertexId>{2, 1, 3, 1}));
}

TEST(Graph, VertexWeightsDefaultAndTotal) {
  Graph g(3);
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 3.0);
  g.set_vertex_weight(1, 5.5);
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 7.5);
  EXPECT_THROW(g.set_vertex_weight(0, -1.0), std::logic_error);
}

TEST(Graph, CutWeight) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 4.0);
  g.add_edge(0, 3, 8.0);
  g.finalize();
  // S = {0, 1}: cut edges (1,2) and (0,3).
  EXPECT_DOUBLE_EQ(g.cut_weight({true, true, false, false}), 10.0);
  EXPECT_DOUBLE_EQ(g.cut_weight({true, true, true, true}), 0.0);
}

TEST(Graph, ConnectedComponents) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(3, 4);
  g.finalize();
  auto [comp, count] = ht::graph::connected_components(g);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[0], comp[3]);
}

TEST(Graph, ComponentsExcludingSeparator) {
  // Path 0-1-2; removing 1 separates 0 and 2.
  Graph g = ht::graph::path(3);
  auto [comp, count] = ht::graph::connected_components_excluding(
      g, {false, true, false});
  EXPECT_EQ(count, 2);
  EXPECT_EQ(comp[1], -1);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(Graph, InducedSubgraph) {
  Graph g(5);
  g.set_vertex_weight(2, 7.0);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.finalize();
  const auto sub = ht::graph::induced_subgraph(g, {1, 2, 3});
  EXPECT_EQ(sub.graph.num_vertices(), 3);
  EXPECT_EQ(sub.graph.num_edges(), 2);  // (1,2) and (2,3)
  EXPECT_DOUBLE_EQ(sub.graph.vertex_weight(1), 7.0);  // old vertex 2
  EXPECT_EQ(sub.old_of_new[0], 1);
}

TEST(Graph, InducedSubgraphRejectsDuplicates) {
  Graph g = ht::graph::path(4);
  EXPECT_THROW(ht::graph::induced_subgraph(g, {1, 1}), std::logic_error);
}

TEST(Generators, GridShape) {
  const Graph g = ht::graph::grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12);
  // Edges: 3*3 horizontal + 2*4 vertical = 17.
  EXPECT_EQ(g.num_edges(), 17);
  EXPECT_TRUE(ht::graph::is_connected(g));
}

TEST(Generators, CliqueAndStarAndPath) {
  EXPECT_EQ(ht::graph::clique(5).num_edges(), 10);
  EXPECT_EQ(ht::graph::star(6).num_edges(), 6);
  EXPECT_EQ(ht::graph::path(6).num_edges(), 5);
  EXPECT_TRUE(ht::graph::is_connected(ht::graph::clique(4)));
}

TEST(Generators, GnpEdgeCountPlausible) {
  ht::Rng rng(3);
  const Graph g = ht::graph::gnp(60, 0.5, rng);
  const int max_edges = 60 * 59 / 2;
  EXPECT_GT(g.num_edges(), max_edges / 3);
  EXPECT_LT(g.num_edges(), 2 * max_edges / 3);
}

TEST(Generators, GnpConnectedIsConnected) {
  ht::Rng rng(4);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = ht::graph::gnp_connected(40, 0.02, rng);
    EXPECT_TRUE(ht::graph::is_connected(g));
  }
}

TEST(Generators, RandomRegularDegreesBounded) {
  ht::Rng rng(5);
  const Graph g = ht::graph::random_regular(30, 4, rng);
  for (VertexId v = 0; v < 30; ++v) EXPECT_LE(g.degree(v), 4);
}

TEST(Generators, PlantedBisectionHasCheapPlantedCut) {
  ht::Rng rng(6);
  const Graph g = ht::graph::planted_bisection(20, 0.4, 3, rng);
  EXPECT_EQ(g.num_vertices(), 40);
  std::vector<bool> planted(40, false);
  for (VertexId v = 20; v < 40; ++v) planted[static_cast<std::size_t>(v)] = true;
  EXPECT_LE(g.cut_weight(planted), 3.0);
}

TEST(Generators, Figure3Shape) {
  const auto fig = ht::graph::figure3_gh(9);
  const Graph& g = fig.graph;
  EXPECT_EQ(g.num_vertices(), 20);  // 2n + 2
  EXPECT_EQ(g.num_edges(), 27);     // 3n
  EXPECT_DOUBLE_EQ(g.vertex_weight(fig.t), 3.0);        // sqrt(9)
  EXPECT_DOUBLE_EQ(g.vertex_weight(fig.v), 9.0);        // n
  EXPECT_DOUBLE_EQ(g.vertex_weight(fig.u[0]), 4.0);     // sqrt(9)+1
  EXPECT_DOUBLE_EQ(g.vertex_weight(fig.w[0]), 1.0);
  EXPECT_TRUE(ht::graph::is_connected(g));
  // Total weight Theta(N sqrt N).
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 3.0 + 9.0 * 4.0 + 9.0 + 9.0);
}

TEST(Generators, Figure3BlowupShape) {
  const auto blow = ht::graph::figure3_blowup(9);  // s = 3
  // Blocks: T(3) + 9 U_i(3 each) + 9 W_i(1) + V(9) = 3+27+9+9 = 48.
  EXPECT_EQ(blow.graph.num_vertices(), 48);
  EXPECT_EQ(blow.core.size(), 9u);
  for (const auto& clique : blow.core) EXPECT_EQ(clique.size(), 3u);
  EXPECT_TRUE(ht::graph::is_connected(blow.graph));
  for (VertexId v = 0; v < blow.graph.num_vertices(); ++v)
    EXPECT_DOUBLE_EQ(blow.graph.vertex_weight(v), 1.0);
}

}  // namespace
