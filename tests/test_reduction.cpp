#include <gtest/gtest.h>

#include <cmath>

#include "flow/cut_engine.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "reduction/clique_expansion.hpp"
#include "reduction/dks_mku.hpp"
#include "reduction/mku_bisection.hpp"
#include "reduction/star_expansion.hpp"
#include "util/rng.hpp"
#include "util/subsets.hpp"

namespace {

using ht::graph::Graph;
using ht::hypergraph::Hypergraph;
using ht::hypergraph::VertexId;

// ---------- Lemma 1: clique expansion ----------

TEST(CliqueExpansion, TriangleFromThreeEdge) {
  Hypergraph h(3);
  h.add_edge({0, 1, 2}, 2.0);
  h.finalize();
  const Graph g = ht::reduction::clique_expansion(h);
  EXPECT_EQ(g.num_edges(), 3);
  for (const auto& e : g.edges()) EXPECT_DOUBLE_EQ(e.weight, 1.0);  // 2/(3-1)
}

TEST(CliqueExpansion, PreservesVertexWeights) {
  Hypergraph h(3);
  h.set_vertex_weight(1, 9.0);
  h.add_edge({0, 1, 2});
  h.finalize();
  const Graph g = ht::reduction::clique_expansion(h);
  EXPECT_DOUBLE_EQ(g.vertex_weight(1), 9.0);
}

TEST(CliqueExpansion, Lemma1BoundFormula) {
  EXPECT_DOUBLE_EQ(ht::reduction::lemma1_bound(3, 10), 3.0);
  EXPECT_DOUBLE_EQ(ht::reduction::lemma1_bound(10, 6), 3.0);
  EXPECT_DOUBLE_EQ(ht::reduction::lemma1_bound(1, 2), 1.0);
}

// ctest names each case after the printed bytes of its parameter, so
// `name_bytes` spells out the four bytes alignment puts after `r` and holds
// the values the cases are registered under. Left as padding they are
// uninitialised, and the names would change from build to build.
struct Lemma1Param {
  int n;
  int m;
  int r;
  std::uint32_t name_bytes;
  std::uint64_t seed;
};

class Lemma1Property : public ::testing::TestWithParam<Lemma1Param> {};

TEST_P(Lemma1Property, SandwichHolds) {
  const auto p = GetParam();
  ht::Rng rng(p.seed);
  const Hypergraph h = ht::hypergraph::random_uniform(p.n, p.m, p.r, rng);
  const Graph g = ht::reduction::clique_expansion(h);
  for (int trial = 0; trial < 24; ++trial) {
    const auto k = static_cast<std::int32_t>(
        1 + rng.next_below(static_cast<std::uint64_t>(p.n - 1)));
    const auto set = rng.sample_without_replacement(p.n, k);
    std::vector<bool> side(static_cast<std::size_t>(p.n), false);
    for (auto v : set) side[static_cast<std::size_t>(v)] = true;
    const double dh = h.cut_weight(side);
    const double dg = g.cut_weight(side);
    const double bound = ht::reduction::lemma1_bound(k, h.max_edge_size());
    EXPECT_LE(dh, dg + 1e-9);
    EXPECT_LE(dg, bound * dh + 1e-9)
        << "k=" << k << " hmax=" << h.max_edge_size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomHypergraphs, Lemma1Property,
    ::testing::Values(Lemma1Param{10, 15, 3, 0, 1},
                      Lemma1Param{12, 20, 4, 0, 2},
                      Lemma1Param{14, 18, 5, 0, 3},
                      Lemma1Param{16, 25, 6, 0, 4},
                      Lemma1Param{12, 30, 8, 0, 5}));

// ---------- Lemma 7: star expansion ----------

TEST(StarExpansion, Structure) {
  Hypergraph h(3);
  h.add_edge({0, 1}, 1.0);
  h.add_edge({0, 1, 2}, 1.0);
  h.finalize();
  const auto star = ht::reduction::star_expansion(h);
  EXPECT_EQ(star.graph.num_vertices(), 5);       // 3 vertices + 2 edges
  EXPECT_EQ(star.graph.num_edges(), 5);          // total pin count
  EXPECT_DOUBLE_EQ(star.graph.vertex_weight(0), 3.0);  // deg 2 + 1
  EXPECT_DOUBLE_EQ(star.graph.vertex_weight(2), 2.0);  // deg 1 + 1
  EXPECT_DOUBLE_EQ(star.graph.vertex_weight(star.node_of_edge(0)), 1.0);
}

// ctest names each case after the printed bytes of its parameter, so
// `name_bytes` spells out the four bytes alignment puts after `r` and holds
// the values the cases are registered under. Left as padding they are
// uninitialised, and the names would change from build to build.
struct Lemma7Param {
  int n;
  int m;
  int r;
  std::uint32_t name_bytes;
  std::uint64_t seed;
};

class Lemma7Property : public ::testing::TestWithParam<Lemma7Param> {};

TEST_P(Lemma7Property, VertexCutEqualsHyperedgeCut) {
  const auto p = GetParam();
  ht::Rng rng(p.seed * 17 + 5);
  const Hypergraph h = ht::hypergraph::random_uniform(p.n, p.m, p.r, rng);
  const auto star = ht::reduction::star_expansion(h);
  for (int trial = 0; trial < 10; ++trial) {
    auto pick = rng.sample_without_replacement(p.n, 2);
    const std::vector<VertexId> a{pick[0]}, b{pick[1]};
    const double delta = ht::CutEngine().min_hyperedge_cut(h, a, b).value;
    const double gamma = ht::CutEngine().min_vertex_cut(star.graph, a, b).value;
    EXPECT_NEAR(delta, gamma, 1e-9);
  }
}

TEST_P(Lemma7Property, SetPairsToo) {
  const auto p = GetParam();
  ht::Rng rng(p.seed * 23 + 11);
  const Hypergraph h = ht::hypergraph::random_uniform(p.n, p.m, p.r, rng);
  const auto star = ht::reduction::star_expansion(h);
  for (int trial = 0; trial < 6; ++trial) {
    auto pick = rng.sample_without_replacement(p.n, 4);
    const std::vector<VertexId> a{pick[0], pick[1]}, b{pick[2], pick[3]};
    const double delta = ht::CutEngine().min_hyperedge_cut(h, a, b).value;
    const double gamma = ht::CutEngine().min_vertex_cut(star.graph, a, b).value;
    EXPECT_NEAR(delta, gamma, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomHypergraphs, Lemma7Property,
    ::testing::Values(Lemma7Param{8, 10, 3, 0x21, 1},
                      Lemma7Param{10, 14, 4, 0, 2},
                      Lemma7Param{12, 16, 3, 0x88, 3},
                      Lemma7Param{14, 12, 5, 0xFD, 4}));

// ---------- Theorem 3: MkU -> Bisection ----------

Hypergraph small_mku_instance() {
  // 5 items, 4 sets: {0,1}, {1,2}, {2,3,4}, {0,4}.
  Hypergraph h(5);
  h.add_edge({0, 1});
  h.add_edge({1, 2});
  h.add_edge({2, 3, 4});
  h.add_edge({0, 4});
  h.finalize();
  return h;
}

TEST(MkuBisection, SmallKRegimeStructure) {
  ht::reduction::MkuInstance inst{small_mku_instance(), 2};  // k=2 < (4+1)/2
  const auto red = ht::reduction::mku_to_bisection(inst);
  // m=4 sets, p = m+1-2k = 1, total = 4+1+1 = 6 vertices.
  EXPECT_EQ(red.bisection_instance.num_vertices(), 6);
  EXPECT_EQ(red.num_padding, 1);
  EXPECT_FALSE(red.padding_glued);
  // One hyperedge per item.
  EXPECT_EQ(red.bisection_instance.num_edges(), 5);
  // Every hyperedge contains the supervertex.
  for (ht::hypergraph::EdgeId e = 0; e < 5; ++e) {
    bool has_super = false;
    for (VertexId v : red.bisection_instance.pins(e))
      has_super |= v == red.supervertex;
    EXPECT_TRUE(has_super);
  }
}

TEST(MkuBisection, LargeKRegimeGluesPadding) {
  ht::reduction::MkuInstance inst{small_mku_instance(), 3};  // k=3 > (4+1)/2
  const auto red = ht::reduction::mku_to_bisection(inst);
  // p = 2k - m - 1 = 1; total = 6.
  EXPECT_EQ(red.bisection_instance.num_vertices(), 6);
  EXPECT_TRUE(red.padding_glued);
  // Extra glue edges beyond the 5 item edges.
  EXPECT_EQ(red.bisection_instance.num_edges(), 6);
}

TEST(MkuBisection, OptimalCostsMatch) {
  // Exhaustively: min bisection cost of the reduced instance equals the
  // optimal MkU union size, in both k regimes.
  for (std::int32_t k : {1, 2, 3, 4}) {
    ht::reduction::MkuInstance inst{small_mku_instance(), k};
    const auto red = ht::reduction::mku_to_bisection(inst);
    const Hypergraph& bis = red.bisection_instance;
    const int nb = bis.num_vertices();
    // Brute-force optimal bisection.
    double best_bisection = 1e300;
    ht::for_each_subset(nb - 1, [&](std::uint32_t mask) {
      if (ht::popcount32(mask) != nb / 2) return;
      std::vector<bool> side(static_cast<std::size_t>(nb), false);
      for (int v = 0; v + 1 < nb; ++v)
        side[static_cast<std::size_t>(v)] = (mask >> v) & 1u;
      // vertex nb-1 stays on side 0
      best_bisection = std::min(best_bisection, bis.cut_weight(side));
    });
    // Brute-force optimal MkU.
    double best_union = 1e300;
    ht::for_each_combination(
        inst.hypergraph.num_edges(), k, [&](const std::vector<int>& idx) {
          std::vector<ht::hypergraph::EdgeId> sets(idx.begin(), idx.end());
          best_union = std::min(
              best_union,
              ht::reduction::mku_union_weight(inst.hypergraph, sets));
        });
    EXPECT_NEAR(best_bisection, best_union, 1e-9) << "k=" << k;
  }
}

TEST(MkuBisection, ExtractRecoversFeasibleSolution) {
  ht::reduction::MkuInstance inst{small_mku_instance(), 2};
  const auto red = ht::reduction::mku_to_bisection(inst);
  const Hypergraph& bis = red.bisection_instance;
  // Hand-build a bisection: supervertex + sets {2,3} on one side.
  std::vector<bool> with_super(static_cast<std::size_t>(bis.num_vertices()),
                               false);
  with_super[static_cast<std::size_t>(red.supervertex)] = true;
  with_super[2] = true;
  with_super[3] = true;  // sets 2,3 with supervertex; sets 0,1 + padding across
  const auto chosen = red.extract_mku_solution(with_super, 2);
  EXPECT_EQ(chosen.size(), 2u);
  // Chosen sets are 0 and 1; union = {0,1,2} -> weight 3 == bisection cost.
  const double union_w =
      ht::reduction::mku_union_weight(inst.hypergraph, chosen);
  EXPECT_DOUBLE_EQ(union_w, bis.cut_weight(with_super));
}

TEST(MkuBisection, SkipsUncoveredItems) {
  // Item 2 belongs to no set: it can never appear in a union, so the
  // reduction simply emits no hyperedge for it.
  Hypergraph h(3);
  h.add_edge({0, 1});
  h.finalize();
  ht::reduction::MkuInstance inst{std::move(h), 1};
  const auto red = ht::reduction::mku_to_bisection(inst);
  // Items 0 and 1 each produce a {w, set0} hyperedge; item 2 none.
  EXPECT_EQ(red.bisection_instance.num_edges(), 2);
  // Optimal bisection: v0 vs w cuts both item edges = union weight 2.
  EXPECT_EQ(red.bisection_instance.num_vertices(), 2);
}

// ---------- Theorem 4: DkS -> MkU ----------

TEST(DksMku, InstanceShape) {
  const Graph g = ht::graph::clique(4);
  const auto inst = ht::reduction::dks_to_mku(g, 3);
  EXPECT_EQ(inst.hypergraph.num_vertices(), 4);
  EXPECT_EQ(inst.hypergraph.num_edges(), 6);
  EXPECT_EQ(inst.k, 3);
  for (ht::hypergraph::EdgeId e = 0; e < 6; ++e)
    EXPECT_EQ(inst.hypergraph.edge_size(e), 2);
}

TEST(DksMku, InducedEdges) {
  const Graph g = ht::graph::clique(5);
  EXPECT_EQ(ht::reduction::induced_edges(g, {0, 1, 2}), 3);
  EXPECT_EQ(ht::reduction::induced_edges(g, {4}), 0);
}

TEST(DksMku, PruneKeepsDensePart) {
  // Triangle {0,1,2} plus pendant path 3-4: pruning 5 -> 3 keeps the
  // triangle.
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  g.finalize();
  const auto pruned = ht::reduction::prune_to_k(g, {0, 1, 2, 3, 4}, 3);
  EXPECT_EQ(ht::reduction::induced_edges(g, pruned), 3);
}

TEST(DksMku, SolutionMappingCountsEdges) {
  const Graph g = ht::graph::clique(4);
  // Choose MkU edges 0=(0,1), 1=(0,2), 2=(0,3): union {0,1,2,3}; prune to 3.
  const auto s = ht::reduction::mku_solution_to_dks(g, {0, 1, 2}, 3);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(ht::reduction::induced_edges(g, s), 3);
}

TEST(DksMku, PadsWhenUnionTooSmall) {
  const Graph g = ht::graph::path(6);
  // One chosen edge covers 2 vertices; k = 4 forces padding.
  const auto s = ht::reduction::mku_solution_to_dks(g, {0}, 4);
  EXPECT_EQ(s.size(), 4u);
}

}  // namespace
