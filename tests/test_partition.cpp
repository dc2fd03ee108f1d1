#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "partition/exact.hpp"
#include "partition/fm.hpp"
#include "partition/min_ratio_cut.hpp"
#include "partition/mku.hpp"
#include "partition/sparsest_cut.hpp"
#include "partition/unbalanced_kcut.hpp"
#include "reduction/clique_expansion.hpp"
#include "util/rng.hpp"

namespace {

using ht::graph::Graph;
using ht::hypergraph::Hypergraph;
using ht::hypergraph::VertexId;

// ---------- min-ratio vertex cut ----------

TEST(MinRatioCut, ExactOnPath) {
  // Path of 5: best separator is the middle vertex; sparsity
  // 1 / (2 + 1) = 1/3.
  const Graph g = ht::graph::path(5);
  const auto sep = ht::partition::min_ratio_vertex_cut_exact(g);
  ASSERT_TRUE(sep.valid);
  EXPECT_NEAR(sep.sparsity, 1.0 / 3.0, 1e-9);
  EXPECT_EQ(sep.x.size(), 1u);
}

TEST(MinRatioCut, ExactOnDisconnected) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  const auto sep = ht::partition::min_ratio_vertex_cut_exact(g);
  ASSERT_TRUE(sep.valid);
  EXPECT_DOUBLE_EQ(sep.sparsity, 0.0);
  EXPECT_TRUE(sep.x.empty());
}

TEST(MinRatioCut, SparsityValidatorRejectsCrossingEdges) {
  const Graph g = ht::graph::path(3);
  ht::partition::VertexSeparator bad;
  bad.a = {0};
  bad.b = {1};
  bad.x = {2};
  EXPECT_THROW(ht::partition::separator_sparsity(g, bad), std::logic_error);
}

TEST(MinRatioCut, HeuristicValidAndMeasuredAlpha) {
  // On small instances the heuristic's sparsity should be within a modest
  // factor of the exact optimum (this pins the measured alpha).
  ht::Rng rng(3);
  double worst_alpha = 1.0;
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = ht::graph::gnp_connected(12, 0.25, rng);
    const auto exact = ht::partition::min_ratio_vertex_cut_exact(g);
    ht::Rng heuristic_rng(trial);
    const auto heur = ht::partition::min_ratio_vertex_cut(g, heuristic_rng);
    if (!exact.valid) continue;
    ASSERT_TRUE(heur.valid);
    const double check = ht::partition::separator_sparsity(g, heur);
    EXPECT_NEAR(check, heur.sparsity, 1e-9);
    if (exact.sparsity > 0)
      worst_alpha = std::max(worst_alpha, heur.sparsity / exact.sparsity);
  }
  EXPECT_LE(worst_alpha, 4.0) << "heuristic min-ratio cut strayed too far";
}

TEST(MinRatioCut, HeuristicOnWeightedFigure3) {
  const auto fig = ht::graph::figure3_gh(16);
  ht::Rng rng(5);
  const auto sep = ht::partition::min_ratio_vertex_cut(fig.graph, rng);
  ASSERT_TRUE(sep.valid);
  // Sanity: a valid separator with sparsity < 1.
  EXPECT_LT(sep.sparsity, 1.0);
}

// ---------- sparsest hyperedge cut ----------

TEST(SparsestCut, ExactOnTwoClusters) {
  // Two triangles joined by one 2-pin edge: the optimum is the joint.
  Hypergraph h(6);
  h.add_edge({0, 1, 2});
  h.add_edge({0, 1});
  h.add_edge({3, 4, 5});
  h.add_edge({4, 5});
  h.add_edge({2, 3});
  h.finalize();
  const auto cut = ht::partition::sparsest_hyperedge_cut_exact(h);
  ASSERT_TRUE(cut.valid);
  EXPECT_DOUBLE_EQ(cut.cut, 1.0);
  EXPECT_EQ(cut.smaller_side.size(), 3u);
  EXPECT_NEAR(cut.sparsity, 1.0 / 3.0, 1e-9);
}

// The exact oracle's original enumeration, kept as its reference: per
// subset a std::vector<bool> side, Hypergraph::cut_weight and a full
// result, the first strict minimum kept.
ht::partition::SparsestCutResult reference_sparsest_cut_exact(
    const Hypergraph& h) {
  const int n = h.num_vertices();
  ht::partition::SparsestCutResult best;
  if (n < 2) return best;
  std::vector<bool> side(static_cast<std::size_t>(n), false);
  for (std::uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
    for (int v = 0; v + 1 < n; ++v)
      side[static_cast<std::size_t>(v)] = (mask >> v) & 1u;
    ht::partition::SparsestCutResult cand;
    std::int64_t count = 0;
    for (bool b : side) count += b ? 1 : 0;
    const bool smaller_is_side = 2 * count <= n;
    for (VertexId v = 0; v < n; ++v)
      if (side[static_cast<std::size_t>(v)] == smaller_is_side)
        cand.smaller_side.push_back(v);
    cand.cut = h.cut_weight(side);
    cand.sparsity = cand.cut / static_cast<double>(cand.smaller_side.size());
    cand.valid = !cand.smaller_side.empty() &&
                 cand.smaller_side.size() < static_cast<std::size_t>(n);
    if (cand.valid && (!best.valid || cand.sparsity < best.sparsity))
      best = std::move(cand);
  }
  return best;
}

TEST(SparsestCut, ExactMatchesReferenceEnumerationBitForBit) {
  // Random hypergraphs with n <= 14 and fractional weights, whose crossing
  // sums round differently in another order; every third instance uses
  // one weight throughout, and the cycles below, so that many subsets tie
  // and the first minimum in mask order must win.
  const double weights[] = {0.1, 0.25, 1.0 / 3.0, 0.7, 1.0, 2.5};
  std::vector<Hypergraph> instances;
  ht::Rng rng(2024);
  for (int trial = 0; trial < 120; ++trial) {
    const int n = 2 + trial % 13;
    Hypergraph h(n);
    const auto m = 1 + rng.next_below(static_cast<std::uint64_t>(3 * n));
    const bool one_weight = trial % 3 == 0;
    for (std::uint64_t e = 0; e < m; ++e) {
      const auto size = 2 + rng.next_below(
                                static_cast<std::uint64_t>(std::min(3, n - 1)));
      std::vector<VertexId> pins;
      for (std::uint64_t k = 0; k < size; ++k)
        pins.push_back(static_cast<VertexId>(
            rng.next_below(static_cast<std::uint64_t>(n))));
      if (std::count(pins.begin(), pins.end(), pins[0]) ==
          static_cast<std::ptrdiff_t>(pins.size()))
        pins.push_back((pins[0] + 1) % n);
      h.add_edge(pins, one_weight ? 0.1 : weights[rng.next_below(6)]);
    }
    h.finalize();
    instances.push_back(std::move(h));
  }
  for (int n = 3; n <= 14; ++n) {
    Hypergraph cycle(n);
    for (VertexId v = 0; v < n; ++v) cycle.add_edge({v, (v + 1) % n}, 0.1);
    cycle.finalize();
    instances.push_back(std::move(cycle));
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Hypergraph& h = instances[i];
    const auto want = reference_sparsest_cut_exact(h);
    const auto got = ht::partition::sparsest_hyperedge_cut_exact(h);
    ASSERT_TRUE(want.valid) << "instance " << i;
    EXPECT_EQ(got.valid, want.valid) << "instance " << i;
    EXPECT_EQ(got.smaller_side, want.smaller_side) << "instance " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cut),
              std::bit_cast<std::uint64_t>(want.cut))
        << "instance " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sparsity),
              std::bit_cast<std::uint64_t>(want.sparsity))
        << "instance " << i;
  }
}

TEST(SparsestCut, HeuristicNearExactOnSmall) {
  ht::Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const Hypergraph h = ht::hypergraph::random_uniform(12, 18, 3, rng);
    const auto exact = ht::partition::sparsest_hyperedge_cut_exact(h);
    ht::Rng hrng(trial + 100);
    const auto heur = ht::partition::sparsest_hyperedge_cut(h, hrng);
    if (!exact.valid || !heur.valid) continue;
    EXPECT_LE(exact.sparsity, heur.sparsity + 1e-9);
    EXPECT_LE(heur.sparsity, 5.0 * exact.sparsity + 1e-9) << "trial " << trial;
  }
}

TEST(SparsestCut, DisconnectedIsFree) {
  Hypergraph h(5);
  h.add_edge({0, 1});
  h.add_edge({3, 4});
  h.finalize();
  ht::Rng rng(9);
  const auto cut = ht::partition::sparsest_hyperedge_cut(h, rng);
  ASSERT_TRUE(cut.valid);
  EXPECT_DOUBLE_EQ(cut.cut, 0.0);
  EXPECT_DOUBLE_EQ(cut.sparsity, 0.0);
}

// ---------- unbalanced k-cut ----------

TEST(KCut, ExactSimple) {
  // Path hypergraph 0-1-2-3-4: removing {0} cuts 1 edge; removing {0,1}
  // cuts 1 edge.
  Hypergraph h(5);
  for (VertexId v = 0; v + 1 < 5; ++v) h.add_edge({v, v + 1});
  h.finalize();
  const auto one = ht::partition::unbalanced_kcut_exact(h, 1);
  ASSERT_TRUE(one.valid);
  EXPECT_DOUBLE_EQ(one.cut, 1.0);
  const auto two = ht::partition::unbalanced_kcut_exact(h, 2);
  ASSERT_TRUE(two.valid);
  EXPECT_DOUBLE_EQ(two.cut, 1.0);
}

TEST(KCut, HeuristicNearExact) {
  ht::Rng rng(19);
  for (int trial = 0; trial < 5; ++trial) {
    const Hypergraph h = ht::hypergraph::random_uniform(14, 22, 3, rng);
    for (std::int32_t k : {2, 4, 7}) {
      const auto exact = ht::partition::unbalanced_kcut_exact(h, k);
      ht::Rng hrng(trial * 10 + k);
      const auto heur = ht::partition::unbalanced_kcut(h, k, hrng);
      ASSERT_TRUE(heur.valid);
      EXPECT_EQ(static_cast<std::int32_t>(heur.set.size()), k);
      EXPECT_GE(heur.cut, exact.cut - 1e-9);
      EXPECT_LE(heur.cut, 3.0 * exact.cut + 3.0) << "k=" << k;
      // Witness re-evaluation agrees.
      EXPECT_NEAR(heur.cut, h.cut_weight(heur.set), 1e-9);
    }
  }
}

TEST(KCut, ProfileIsConsistent) {
  ht::Rng rng(23);
  const Hypergraph h = ht::hypergraph::random_uniform(20, 30, 4, rng);
  const auto profile = ht::partition::unbalanced_kcut_profile(h, 10, rng);
  ASSERT_EQ(profile.cost.size(), 11u);
  EXPECT_DOUBLE_EQ(profile.cost[0], 0.0);
  for (std::size_t k = 1; k <= 10; ++k) {
    ASSERT_EQ(profile.sets[k].size(), k) << "k=" << k;
    EXPECT_NEAR(profile.cost[k], h.cut_weight(profile.sets[k]), 1e-9);
  }
}

TEST(KCut, CliqueExpansionPathMatchesPropositionOne) {
  ht::Rng rng(29);
  const Hypergraph h = ht::hypergraph::random_uniform(14, 20, 4, rng);
  for (std::int32_t k : {3, 6}) {
    const auto exact = ht::partition::unbalanced_kcut_exact(h, k);
    ht::Rng hrng(k);
    const auto viaclique =
        ht::partition::unbalanced_kcut_via_clique_expansion(h, k, hrng);
    ASSERT_TRUE(viaclique.valid);
    // Proposition 1 bound (with our heuristic in place of the O(log n)
    // black box): within min(k, hmax/2) * small factor of optimum.
    const double bound = ht::reduction::lemma1_bound(k, h.max_edge_size());
    EXPECT_LE(viaclique.cut, bound * 4.0 * std::max(exact.cut, 1.0))
        << "k=" << k;
  }
}

TEST(KCut, GraphVariant) {
  ht::Rng rng(31);
  const Graph g = ht::graph::grid(4, 5);
  const auto cut = ht::partition::unbalanced_kcut_graph(g, 4, rng);
  ASSERT_TRUE(cut.valid);
  EXPECT_EQ(cut.set.size(), 4u);
  // A 2x2 corner block of the grid cuts 4 edges.
  EXPECT_LE(cut.cut, 4.0 + 1e-9);
}

// ---------- MkU ----------

TEST(Mku, GreedyOnDisjointSets) {
  Hypergraph h(9);
  h.add_edge({0, 1});           // size 2
  h.add_edge({2, 3, 4});        // size 3
  h.add_edge({5, 6, 7, 8});     // size 4
  h.finalize();
  const auto sol = ht::partition::mku_greedy(h, 2);
  ASSERT_TRUE(sol.valid);
  EXPECT_DOUBLE_EQ(sol.union_weight, 5.0);  // sizes 2 + 3
}

TEST(Mku, GreedyExploitsOverlap) {
  Hypergraph h(6);
  h.add_edge({0, 1, 2});
  h.add_edge({0, 1, 3});  // overlaps the first
  h.add_edge({4, 5});
  h.finalize();
  const auto sol = ht::partition::mku_greedy(h, 2);
  // Greedy takes {4,5} first (size 2) then one triple: union 5. The true
  // optimum is the two overlapping triples: union 4. Local search fixes it.
  const auto improved = ht::partition::mku_local_search(h, 2);
  EXPECT_DOUBLE_EQ(improved.union_weight, 4.0);
  EXPECT_GE(sol.union_weight, improved.union_weight);
}

TEST(Mku, ExactMatchesEnumeration) {
  ht::Rng rng(37);
  const Hypergraph h = ht::hypergraph::random_uniform(12, 10, 3, rng);
  for (std::int32_t k : {2, 3, 5}) {
    const auto exact = ht::partition::mku_exact(h, k);
    const auto greedy = ht::partition::mku_local_search(h, k);
    ASSERT_TRUE(exact.valid);
    EXPECT_GE(greedy.union_weight, exact.union_weight - 1e-9);
    EXPECT_LE(greedy.union_weight, 2.0 * exact.union_weight + 1e-9)
        << "k=" << k;
  }
}

// ---------- exact bisection ----------

TEST(ExactBisection, KnownOptimum) {
  // Two triangles plus one cross edge: optimum = 1.
  Hypergraph h(6);
  h.add_edge({0, 1, 2});
  h.add_edge({3, 4, 5});
  h.add_edge({2, 3});
  h.finalize();
  const auto sol = ht::partition::exact_hypergraph_bisection(h);
  ASSERT_TRUE(sol.valid);
  EXPECT_DOUBLE_EQ(sol.cut, 1.0);
}

TEST(ExactBisection, GraphWrapper) {
  const Graph g = ht::graph::grid(2, 4);
  const auto sol = ht::partition::exact_graph_bisection(g);
  ASSERT_TRUE(sol.valid);
  EXPECT_DOUBLE_EQ(sol.cut, 2.0);  // split the 2x4 grid down the middle
}

TEST(ExactBisection, RejectsOddVertexCount) {
  Hypergraph h(3);
  h.add_edge({0, 1});
  h.finalize();
  EXPECT_THROW(ht::partition::exact_hypergraph_bisection(h),
               std::logic_error);
}

}  // namespace
