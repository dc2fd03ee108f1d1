#include <gtest/gtest.h>

#include "flow/dinic.hpp"
#include "flow/push_relabel.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace {

using ht::flow::Dinic;
using ht::flow::PushRelabel;

TEST(PushRelabel, TextbookNetwork) {
  PushRelabel<double> pr(4);
  pr.add_arc(0, 1, 3.0);
  pr.add_arc(0, 2, 2.0);
  pr.add_arc(1, 2, 5.0);
  pr.add_arc(1, 3, 2.0);
  pr.add_arc(2, 3, 3.0);
  EXPECT_DOUBLE_EQ(pr.max_flow(0, 3), 5.0);
}

TEST(PushRelabel, DisconnectedSink) {
  PushRelabel<double> pr(3);
  pr.add_arc(0, 1, 4.0);
  EXPECT_DOUBLE_EQ(pr.max_flow(0, 2), 0.0);
  const auto side = pr.min_cut_source_side();
  EXPECT_TRUE(side[0]);
  EXPECT_FALSE(side[2]);
}

TEST(PushRelabel, IntegerCapacities) {
  PushRelabel<std::int64_t> pr(4);
  pr.add_arc(0, 1, 10);
  pr.add_arc(1, 3, 7);
  pr.add_arc(0, 2, 5);
  pr.add_arc(2, 3, 5);
  EXPECT_EQ(pr.max_flow(0, 3), 12);
}

TEST(PushRelabel, UndirectedEdges) {
  PushRelabel<double> pr(3);
  pr.add_undirected(0, 1, 2.0);
  pr.add_undirected(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(pr.max_flow(0, 2), 2.0);
}

// ctest names each case after the printed bytes of its parameter, so
// `name_bytes` spells out the four bytes alignment puts between `n` and `p`
// and holds the values the cases are registered under. Left as padding they
// are uninitialised, and the names would change from build to build.
struct CrossCheckParam {
  int n;
  std::uint32_t name_bytes;
  double p;
  std::uint64_t seed;
};

class FlowCrossCheck : public ::testing::TestWithParam<CrossCheckParam> {};

TEST_P(FlowCrossCheck, PushRelabelAgreesWithDinic) {
  const auto param = GetParam();
  ht::Rng rng(param.seed);
  const auto g = ht::graph::gnp(param.n, param.p, rng);
  for (int trial = 0; trial < 6; ++trial) {
    auto pick = rng.sample_without_replacement(param.n, 2);
    Dinic<double> dinic(param.n);
    PushRelabel<double> pr(param.n);
    for (const auto& e : g.edges()) {
      const double w = 1.0 + static_cast<double>(rng.next_below(5));
      dinic.add_undirected(e.u, e.v, w);
      pr.add_undirected(e.u, e.v, w);
    }
    const double df = dinic.max_flow(pick[0], pick[1]);
    const double pf = pr.max_flow(pick[0], pick[1]);
    EXPECT_NEAR(df, pf, 1e-8) << "terminals " << pick[0] << "," << pick[1];
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, FlowCrossCheck,
    ::testing::Values(CrossCheckParam{8, 0x002C3B03, 0.5, 1},
                      CrossCheckParam{12, 0xEFE00000, 0.4, 2},
                      CrossCheckParam{16, 0, 0.3, 3},
                      CrossCheckParam{24, 0xCAC00000, 0.25, 4},
                      CrossCheckParam{32, 0, 0.2, 5},
                      CrossCheckParam{48, 0, 0.15, 6}));

TEST(PushRelabel, MinCutSideConsistentWithValue) {
  ht::Rng rng(9);
  const auto g = ht::graph::gnp_connected(20, 0.3, rng);
  PushRelabel<double> pr(20);
  std::vector<double> weights;
  for (const auto& e : g.edges()) {
    const double w = 1.0 + static_cast<double>(rng.next_below(4));
    weights.push_back(w);
    pr.add_undirected(e.u, e.v, w);
  }
  const double flow = pr.max_flow(0, 19);
  const auto side = pr.min_cut_source_side();
  EXPECT_TRUE(side[0]);
  EXPECT_FALSE(side[19]);
  double cut = 0.0;
  for (std::size_t i = 0; i < g.edges().size(); ++i) {
    const auto& e = g.edges()[i];
    if (side[static_cast<std::size_t>(e.u)] !=
        side[static_cast<std::size_t>(e.v)])
      cut += weights[i];
  }
  EXPECT_NEAR(cut, flow, 1e-8);
}

}  // namespace
