#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "hypergraph/generators.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/io.hpp"
#include "util/rng.hpp"

namespace {

using ht::hypergraph::EdgeId;
using ht::hypergraph::Hypergraph;
using ht::hypergraph::VertexId;

TEST(Hypergraph, BasicConstruction) {
  Hypergraph h(5);
  h.add_edge({0, 1, 2}, 2.0);
  h.add_edge({2, 3});
  h.finalize();
  EXPECT_EQ(h.num_vertices(), 5);
  EXPECT_EQ(h.num_edges(), 2);
  EXPECT_EQ(h.edge_size(0), 3);
  EXPECT_DOUBLE_EQ(h.edge_weight(0), 2.0);
  EXPECT_EQ(h.degree(2), 2);
  EXPECT_EQ(h.degree(4), 0);
  EXPECT_EQ(h.max_edge_size(), 3);
}

TEST(Hypergraph, PinsDeduplicatedAndSorted) {
  Hypergraph h(4);
  h.add_edge({3, 1, 3, 1, 2});
  h.finalize();
  const auto pins = h.pins(0);
  EXPECT_EQ(std::vector<VertexId>(pins.begin(), pins.end()),
            (std::vector<VertexId>{1, 2, 3}));
}

// Repeat finalize() must be a cheap no-op, not a rebuild: the uid (which
// keys the flow engine's cached networks) must not be reassigned, and the
// CSR storage must not be touched — spans handed out before the second
// call stay valid. The sharded build and the serving layer both
// re-finalize defensively, so a regressing rebuild here would silently
// invalidate every cached engine.
TEST(Hypergraph, RepeatFinalizeIsNoOp) {
  Hypergraph h(4);
  h.add_edge({0, 1, 2}, 2.0);
  h.add_edge({2, 3});
  h.finalize();
  const std::uint64_t uid = h.uid();
  const auto* pin_data = h.pins(0).data();
  const auto* inc_data = h.incident_edges(2).data();
  EXPECT_NE(uid, 0u);

  h.finalize();
  h.finalize();
  EXPECT_EQ(h.uid(), uid);
  EXPECT_EQ(h.pins(0).data(), pin_data);
  EXPECT_EQ(h.incident_edges(2).data(), inc_data);
  EXPECT_EQ(h.degree(2), 2);

  // Mutation after finalize() re-opens the builder: the next finalize
  // must assign a FRESH uid (stale caches keyed on the old uid would
  // otherwise be served for the changed structure).
  h.add_edge({0, 3});
  EXPECT_EQ(h.uid(), 0u);  // un-finalized: uncacheable
  h.finalize();
  EXPECT_NE(h.uid(), 0u);
  EXPECT_NE(h.uid(), uid);
}

TEST(Hypergraph, RejectsTinyEdges) {
  Hypergraph h(3);
  EXPECT_THROW(h.add_edge({1}), std::logic_error);
  EXPECT_THROW(h.add_edge({2, 2}), std::logic_error);  // dedups to size 1
}

TEST(Hypergraph, CutWeight) {
  Hypergraph h(4);
  h.add_edge({0, 1, 2}, 1.0);
  h.add_edge({2, 3}, 2.0);
  h.add_edge({0, 1}, 4.0);
  h.finalize();
  // S = {0,1}: edge 0 spans (cut), edge 1 untouched by S... edge 1 = {2,3}
  // entirely outside; edge 2 inside. Cut = 1.
  EXPECT_DOUBLE_EQ(h.cut_weight(std::vector<bool>{true, true, false, false}),
                   1.0);
  // S = {2}: edge0 cut, edge1 cut -> 3.
  EXPECT_DOUBLE_EQ(h.cut_weight(std::vector<bool>{false, false, true, false}),
                   3.0);
  EXPECT_DOUBLE_EQ(h.cut_weight(std::vector<VertexId>{2}), 3.0);
}

TEST(Hypergraph, TouchingWeight) {
  Hypergraph h(4);
  h.add_edge({0, 1}, 1.0);
  h.add_edge({1, 2}, 2.0);
  h.add_edge({2, 3}, 4.0);
  h.finalize();
  EXPECT_DOUBLE_EQ(h.touching_weight({true, false, false, false}), 1.0);
  EXPECT_DOUBLE_EQ(h.touching_weight({false, true, false, false}), 3.0);
  EXPECT_DOUBLE_EQ(h.touching_weight({false, false, false, false}), 0.0);
}

TEST(Hypergraph, InducedSubhypergraphDropsSmallEdges) {
  Hypergraph h(5);
  h.add_edge({0, 1, 2});
  h.add_edge({2, 3});
  h.add_edge({3, 4});
  h.finalize();
  const auto sub = ht::hypergraph::induced_subhypergraph(h, {0, 1, 2});
  EXPECT_EQ(sub.hypergraph.num_vertices(), 3);
  // {0,1,2} survives fully; {2,3} restricts to {2} -> dropped.
  EXPECT_EQ(sub.hypergraph.num_edges(), 1);
  EXPECT_EQ(sub.hypergraph.edge_size(0), 3);
}

TEST(Hypergraph, ConnectedComponents) {
  Hypergraph h(6);
  h.add_edge({0, 1, 2});
  h.add_edge({4, 5});
  h.finalize();
  auto [comp, count] = ht::hypergraph::connected_components(h);
  EXPECT_EQ(count, 3);  // {0,1,2}, {3}, {4,5}
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_EQ(comp[4], comp[5]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_FALSE(ht::hypergraph::is_connected(h));
}

TEST(HypergraphIo, RoundTripUnweighted) {
  Hypergraph h(4);
  h.add_edge({0, 1, 2});
  h.add_edge({1, 3});
  h.finalize();
  std::stringstream ss;
  ht::hypergraph::write_hmetis(h, ss);
  auto parsed = ht::hypergraph::try_read_hmetis(ss.str());
  ASSERT_TRUE(parsed.ok());
  const Hypergraph& r = *parsed;
  ASSERT_EQ(r.num_vertices(), 4);
  ASSERT_EQ(r.num_edges(), 2);
  EXPECT_EQ(r.edge_size(0), 3);
  const auto pins = r.pins(1);
  EXPECT_EQ(std::vector<VertexId>(pins.begin(), pins.end()),
            (std::vector<VertexId>{1, 3}));
}

TEST(HypergraphIo, RoundTripWeighted) {
  // Weights read back bit for bit, including ones that 6 significant
  // digits would round (1234567.891 -> 1234570, 1/3 -> 0.333333,
  // 0.1 + 0.2 -> 0.3).
  const double awkward[] = {1234567.891, 1.0 / 3.0, 0.1 + 0.2};
  Hypergraph h(3);
  h.add_edge({0, 1}, 2.5);
  h.add_edge({1, 2}, 1.0);
  for (const double w : awkward) h.add_edge({0, 2}, w);
  h.set_vertex_weight(2, 4.0);
  h.set_vertex_weight(1, awkward[1]);
  h.finalize();
  std::stringstream ss;
  ht::hypergraph::write_hmetis(h, ss);
  auto parsed = ht::hypergraph::try_read_hmetis(ss.str());
  ASSERT_TRUE(parsed.ok());
  const Hypergraph& r = *parsed;
  ASSERT_EQ(r.num_edges(), h.num_edges());
  for (EdgeId e = 0; e < h.num_edges(); ++e)
    EXPECT_EQ(r.edge_weight(e), h.edge_weight(e)) << "edge " << e;
  for (VertexId v = 0; v < h.num_vertices(); ++v)
    EXPECT_EQ(r.vertex_weight(v), h.vertex_weight(v)) << "vertex " << v;
}

TEST(HypergraphIo, SkipsComments) {
  auto parsed = ht::hypergraph::try_read_hmetis(
      "% comment\n2 3\n1 2\n% another\n2 3\n");
  ASSERT_TRUE(parsed.ok());
  const Hypergraph& h = *parsed;
  EXPECT_EQ(h.num_edges(), 2);
  EXPECT_EQ(h.num_vertices(), 3);
}

TEST(Generators, RandomUniformShape) {
  ht::Rng rng(1);
  const Hypergraph h = ht::hypergraph::random_uniform(30, 50, 4, rng);
  EXPECT_EQ(h.num_vertices(), 30);
  EXPECT_EQ(h.num_edges(), 50);
  for (EdgeId e = 0; e < 50; ++e) EXPECT_EQ(h.edge_size(e), 4);
}

TEST(Generators, GnprLogDensityTracksAlpha) {
  // p = n^{1+alpha-r} should give average degree ~ n^alpha.
  ht::Rng rng(2);
  const VertexId n = 200;
  const std::int32_t r = 3;
  const double alpha = 0.7;
  const double p = std::pow(static_cast<double>(n), 1.0 + alpha - r);
  const Hypergraph h = ht::hypergraph::gnpr(n, p, r, rng);
  const double target = std::pow(static_cast<double>(n), alpha);
  EXPECT_GT(h.avg_degree(), target / 4.0);
  EXPECT_LT(h.avg_degree(), target * 4.0);
}

TEST(Generators, PlantedDenseContainsPlantedEdges) {
  ht::Rng rng(3);
  const auto inst = ht::hypergraph::planted_dense(
      100, std::pow(100.0, 1.0 + 0.5 - 3), 3, 20, 0.5, rng);
  EXPECT_EQ(static_cast<int>(inst.planted_vertices.size()), 20);
  EXPECT_GT(inst.hypergraph.num_edges(), inst.first_planted_edge);
  std::set<VertexId> planted(inst.planted_vertices.begin(),
                             inst.planted_vertices.end());
  for (EdgeId e = inst.first_planted_edge; e < inst.hypergraph.num_edges();
       ++e) {
    for (VertexId v : inst.hypergraph.pins(e)) EXPECT_TRUE(planted.count(v));
  }
}

TEST(Generators, SingleSpanningEdge) {
  const Hypergraph h = ht::hypergraph::single_spanning_edge(10, 3.0);
  EXPECT_EQ(h.num_edges(), 1);
  EXPECT_EQ(h.edge_size(0), 10);
  EXPECT_DOUBLE_EQ(h.edge_weight(0), 3.0);
  // Every non-trivial cut costs exactly 3.
  std::vector<bool> side(10, false);
  side[0] = side[3] = true;
  EXPECT_DOUBLE_EQ(h.cut_weight(side), 3.0);
}

TEST(Generators, Figure2WeightedShape) {
  const auto fig = ht::hypergraph::figure2(16);
  const Hypergraph& h = fig.hypergraph;
  EXPECT_EQ(h.num_vertices(), 17);
  EXPECT_EQ(h.num_edges(), 17);  // 16 star edges + 1 heavy hyperedge
  EXPECT_DOUBLE_EQ(h.edge_weight(16), 4.0);  // sqrt(16)
  EXPECT_EQ(h.edge_size(16), 16);
  // Cut of S subset of U: sqrt(n) + |S| (paper's computation).
  std::vector<VertexId> s{fig.u[0], fig.u[1], fig.u[2]};
  EXPECT_DOUBLE_EQ(h.cut_weight(s), 4.0 + 3.0);
}

TEST(Generators, Figure2UnweightedParallelCopies) {
  const auto fig = ht::hypergraph::figure2(16, /*unweighted=*/true);
  EXPECT_EQ(fig.hypergraph.num_edges(), 16 + 4);  // floor(sqrt(16)) copies
  for (EdgeId e = 16; e < fig.hypergraph.num_edges(); ++e)
    EXPECT_DOUBLE_EQ(fig.hypergraph.edge_weight(e), 1.0);
}

TEST(Generators, QuasiUniformDegreesConcentrated) {
  ht::Rng rng(4);
  const Hypergraph h = ht::hypergraph::quasi_uniform(100, 0.5, 3, rng);
  const double target = std::pow(100.0, 0.5) * 3.0 / 3.0;
  double min_d = 1e9, max_d = 0;
  for (VertexId v = 0; v < 100; ++v) {
    min_d = std::min<double>(min_d, h.degree(v));
    max_d = std::max<double>(max_d, h.degree(v));
  }
  EXPECT_GT(min_d, target / 8.0);
  EXPECT_LT(max_d, target * 8.0);
}

TEST(Generators, PlantedBisectionCrossBound) {
  ht::Rng rng(5);
  const Hypergraph h =
      ht::hypergraph::planted_bisection(20, 3, 40, 5, rng);
  EXPECT_EQ(h.num_vertices(), 40);
  std::vector<bool> planted(40, false);
  for (VertexId v = 20; v < 40; ++v) planted[static_cast<std::size_t>(v)] = true;
  EXPECT_LE(h.cut_weight(planted), 5.0);
}

TEST(Generators, NetlistSmallNetsDominate) {
  ht::Rng rng(6);
  const Hypergraph h = ht::hypergraph::netlist_like(256, 400, 3, rng);
  EXPECT_EQ(h.num_edges() >= 400, true);
  int small = 0;
  for (EdgeId e = 0; e < 400; ++e) small += h.edge_size(e) <= 8 ? 1 : 0;
  EXPECT_EQ(small, 400);
  // High-fanout nets exist and are large.
  EXPECT_GE(h.max_edge_size(), 256 / 8);
}

TEST(Generators, SpmvRowNetBanded) {
  ht::Rng rng(7);
  const Hypergraph h = ht::hypergraph::spmv_row_net(64, 64, 4, 0.01, rng);
  EXPECT_GT(h.num_edges(), 32);
  for (EdgeId e = 0; e < h.num_edges(); ++e) EXPECT_GE(h.edge_size(e), 2);
}

}  // namespace
