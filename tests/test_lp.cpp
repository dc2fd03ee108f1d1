#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "flow/cut_engine.hpp"
#include "graph/generators.hpp"
#include "hypergraph/hypergraph.hpp"
#include "lp/fractional_cut.hpp"
#include "lp/simplex.hpp"
#include "lp/spectral.hpp"
#include "reduction/clique_expansion.hpp"
#include "util/rng.hpp"

namespace {

using ht::lp::Constraint;
using ht::lp::LpStatus;
using ht::lp::Relation;
using ht::lp::SimplexSolver;

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> opt 36 at (2, 6).
  SimplexSolver solver(2);
  solver.add_constraint({{1, 0}, Relation::kLessEqual, 4});
  solver.add_constraint({{0, 2}, Relation::kLessEqual, 12});
  solver.add_constraint({{3, 2}, Relation::kLessEqual, 18});
  const auto r = solver.maximize({3, 5});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 36.0, 1e-7);
  EXPECT_NEAR(r.solution[0], 2.0, 1e-7);
  EXPECT_NEAR(r.solution[1], 6.0, 1e-7);
}

TEST(Simplex, Minimization) {
  // min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> opt at intersection
  // (8/5, 6/5), value 14/5.
  SimplexSolver solver(2);
  solver.add_constraint({{1, 2}, Relation::kGreaterEqual, 4});
  solver.add_constraint({{3, 1}, Relation::kGreaterEqual, 6});
  const auto r = solver.minimize({1, 1});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 14.0 / 5.0, 1e-7);
}

TEST(Simplex, EqualityConstraints) {
  // max x + 2y s.t. x + y = 3, x <= 2 -> (1...) best y: x=0,y=3 obj 6?
  // x + y = 3, x <= 2, x,y >= 0; max x + 2y -> x=0, y=3 -> 6.
  SimplexSolver solver(2);
  solver.add_constraint({{1, 1}, Relation::kEqual, 3});
  solver.add_constraint({{1, 0}, Relation::kLessEqual, 2});
  const auto r = solver.maximize({1, 2});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 6.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  SimplexSolver solver(1);
  solver.add_constraint({{1}, Relation::kLessEqual, 1});
  solver.add_constraint({{1}, Relation::kGreaterEqual, 2});
  EXPECT_EQ(solver.maximize({1}).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  SimplexSolver solver(2);
  solver.add_constraint({{1, -1}, Relation::kLessEqual, 1});
  EXPECT_EQ(solver.maximize({1, 1}).status, LpStatus::kUnbounded);
}

TEST(Simplex, UnconstrainedCases) {
  SimplexSolver solver(2);
  EXPECT_EQ(solver.maximize({1, 0}).status, LpStatus::kUnbounded);
  const auto r = solver.maximize({-1, -1});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(Simplex, NegativeRhsNormalization) {
  // x - y <= -1 means y >= x + 1; max x s.t. x <= 3, x - y <= -1, y <= 5.
  SimplexSolver solver(2);
  solver.add_constraint({{1, 0}, Relation::kLessEqual, 3});
  solver.add_constraint({{1, -1}, Relation::kLessEqual, -1});
  solver.add_constraint({{0, 1}, Relation::kLessEqual, 5});
  const auto r = solver.maximize({1, 0});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-7);
}

TEST(Simplex, DegenerateTerminates) {
  // Degenerate vertex; Bland's rule must still terminate.
  SimplexSolver solver(2);
  solver.add_constraint({{1, 1}, Relation::kLessEqual, 1});
  solver.add_constraint({{1, 1}, Relation::kLessEqual, 1});
  solver.add_constraint({{1, 0}, Relation::kLessEqual, 1});
  const auto r = solver.maximize({1, 1});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-7);
}

TEST(Spectral, FiedlerSeparatesTwoCliques) {
  // Two K5's joined by one edge: Fiedler vector signs split the cliques.
  ht::graph::Graph g(10);
  for (int a = 0; a < 5; ++a)
    for (int b = a + 1; b < 5; ++b) {
      g.add_edge(a, b);
      g.add_edge(5 + a, 5 + b);
    }
  g.add_edge(0, 5);
  g.finalize();
  ht::Rng rng(1);
  const auto f = ht::lp::fiedler_vector(g, {}, rng);
  for (int v = 1; v < 5; ++v)
    EXPECT_GT(f.vector[0] * f.vector[static_cast<std::size_t>(v)], 0.0);
  for (int v = 6; v < 10; ++v)
    EXPECT_GT(f.vector[5] * f.vector[static_cast<std::size_t>(v)], 0.0);
  EXPECT_LT(f.vector[0] * f.vector[5], 0.0);
}

TEST(Spectral, PathEigenvalueMatchesClosedForm) {
  // Path P_n Laplacian: lambda_2 = 2(1 - cos(pi/n)).
  const int n = 12;
  const ht::graph::Graph g = ht::graph::path(n);
  ht::Rng rng(2);
  const auto f = ht::lp::fiedler_vector(g, {}, rng, 20000, 1e-12);
  const double expected = 2.0 * (1.0 - std::cos(M_PI / n));
  EXPECT_NEAR(f.eigenvalue, expected, 1e-4);
}

TEST(Spectral, VectorIsMassOrthogonalAndUnit) {
  ht::Rng rng(3);
  const ht::graph::Graph g = ht::graph::grid(4, 4);
  std::vector<double> mass(16, 1.0);
  mass[3] = 5.0;
  const auto f = ht::lp::fiedler_vector(g, mass, rng);
  double dot = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < 16; ++i) {
    dot += mass[i] * f.vector[i];
    norm += f.vector[i] * f.vector[i];
  }
  EXPECT_NEAR(dot, 0.0, 1e-5);
  EXPECT_NEAR(norm, 1.0, 1e-6);
}

// The scatter-form power iteration that fiedler_vector replaced, kept as
// the reference its output must match bit for bit: y = (shift I - L) x
// scattered edge by edge, then separate passes to deflate and normalize.
ht::lp::FiedlerResult scatter_fiedler(const ht::graph::Graph& g,
                                      std::vector<double> mass,
                                      ht::Rng& rng) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  if (mass.empty()) mass.assign(n, 1.0);
  const auto deflate = [&](std::vector<double>& x) {
    double dot = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot += mass[i] * x[i];
      norm += mass[i] * mass[i];
    }
    if (norm <= 0.0) return;
    const double coeff = dot / norm;
    for (std::size_t i = 0; i < n; ++i) x[i] -= coeff * mass[i];
  };
  const auto normalize = [](std::vector<double>& x) {
    double norm = 0.0;
    for (double v : x) norm += v * v;
    norm = std::sqrt(norm);
    if (norm > 0.0)
      for (double& v : x) v /= norm;
    return norm;
  };
  std::vector<double> wdeg(n, 0.0);
  for (const auto& e : g.edges()) {
    wdeg[static_cast<std::size_t>(e.u)] += e.weight;
    wdeg[static_cast<std::size_t>(e.v)] += e.weight;
  }
  double shift = 0.0;
  for (double d : wdeg) shift = std::max(shift, 2.0 * d);
  shift += 1.0;
  ht::lp::FiedlerResult out;
  std::vector<double> x(n), y(n);
  for (double& v : x) v = rng.next_double() - 0.5;
  deflate(x);
  normalize(x);
  double prev_eig = 0.0;
  for (int it = 0; it < 3000; ++it) {
    for (std::size_t v = 0; v < n; ++v) y[v] = shift * x[v];
    for (const auto& e : g.edges()) {
      const auto u = static_cast<std::size_t>(e.u);
      const auto v = static_cast<std::size_t>(e.v);
      y[u] -= e.weight * (x[u] - x[v]);
      y[v] -= e.weight * (x[v] - x[u]);
    }
    deflate(y);
    const double norm = normalize(y);
    x.swap(y);
    out.iterations = it + 1;
    const double eig = shift - norm;
    if (it > 8 && std::fabs(eig - prev_eig) < 1e-8) {
      prev_eig = eig;
      break;
    }
    prev_eig = eig;
  }
  out.vector = std::move(x);
  out.eigenvalue = prev_eig;
  return out;
}

void expect_bitwise_equal_fiedler(const ht::graph::Graph& g,
                                  const std::vector<double>& mass,
                                  std::uint64_t seed) {
  ht::Rng a(seed), b(seed);
  const auto got = ht::lp::fiedler_vector(g, mass, a);
  const auto want = scatter_fiedler(g, mass, b);
  ASSERT_EQ(got.vector.size(), want.vector.size());
  EXPECT_EQ(std::memcmp(got.vector.data(), want.vector.data(),
                        got.vector.size() * sizeof(double)),
            0)
      << "n=" << g.num_vertices() << " seed=" << seed;
  EXPECT_EQ(got.eigenvalue, want.eigenvalue) << "seed=" << seed;
  EXPECT_EQ(got.iterations, want.iterations) << "seed=" << seed;
}

TEST(Spectral, MatchesScatterIterationBitForBit) {
  ht::Rng rng(17);
  // Small paths and random graphs with fractional weights; parallel edges
  // repeat a pair, and vertex n-1 of the random graphs stays isolated.
  for (const ht::graph::VertexId n : {2, 3, 5, 7}) {
    ht::graph::Graph path(n);
    for (ht::graph::VertexId v = 0; v + 1 < n; ++v)
      path.add_edge(v, v + 1, 0.1 + rng.next_double());
    path.finalize();
    expect_bitwise_equal_fiedler(path, {}, 100 + n);
  }
  for (const ht::graph::VertexId n : {5, 7, 30, 101}) {
    ht::graph::Graph g(n);
    for (ht::graph::VertexId v = 0; v + 2 < n; ++v)
      g.add_edge(v, v + 1, 0.1 + 3.0 * rng.next_double());
    for (int e = 0; e < 3 * n; ++e) {
      const auto u = static_cast<ht::graph::VertexId>(
          rng.next_below(static_cast<std::uint64_t>(n - 1)));
      const auto v = static_cast<ht::graph::VertexId>(
          rng.next_below(static_cast<std::uint64_t>(n - 1)));
      if (u == v) continue;
      g.add_edge(u, v, 0.1 + 3.0 * rng.next_double());
      if (e % 4 == 0) g.add_edge(v, u, 0.7);  // a parallel edge
    }
    g.finalize();
    std::vector<double> mass(static_cast<std::size_t>(n));
    for (double& m : mass) m = rng.next_below(3) == 0 ? 0.0 : rng.next_double();
    expect_bitwise_equal_fiedler(g, {}, 200 + n);
    expect_bitwise_equal_fiedler(g, mass, 300 + n);
    expect_bitwise_equal_fiedler(
        g, std::vector<double>(static_cast<std::size_t>(n), 0.0), 400 + n);
  }
  // The clique expansion of a mixed 3/4-uniform hypergraph: weights 1/2
  // and 1/3, about 20 neighbours per vertex.
  ht::hypergraph::Hypergraph h(60);
  for (int e = 0; e < 150; ++e)
    h.add_edge(rng.sample_without_replacement(
        60, static_cast<std::int32_t>(3 + rng.next_below(2))));
  h.finalize();
  const auto expansion = ht::reduction::clique_expansion(h);
  expect_bitwise_equal_fiedler(expansion, {}, 500);
  expect_bitwise_equal_fiedler(expansion, expansion.vertex_weights(), 501);
}

TEST(FractionalCut, MatchesFlowOnPath) {
  const ht::graph::Graph g = ht::graph::path(5);
  const auto lp = ht::lp::fractional_vertex_cut(g, {0}, {4});
  EXPECT_TRUE(lp.converged);
  EXPECT_NEAR(lp.value, 1.0, 1e-6);
}

TEST(FractionalCut, DisconnectedTerminalsCostZero) {
  ht::graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  const auto lp = ht::lp::fractional_vertex_cut(g, {0}, {3});
  EXPECT_TRUE(lp.converged);
  EXPECT_NEAR(lp.value, 0.0, 1e-9);
}

TEST(FractionalCut, LpEqualsIntegralVertexCut) {
  // The vertex-cut LP is integral: LP value == gamma from the flow solver.
  ht::Rng rng(4);
  for (int trial = 0; trial < 6; ++trial) {
    ht::graph::Graph g = ht::graph::gnp_connected(9, 0.35, rng);
    for (ht::graph::VertexId v = 0; v < g.num_vertices(); ++v)
      g.set_vertex_weight(v, static_cast<double>(1 + rng.next_below(3)));
    auto pick = rng.sample_without_replacement(9, 2);
    const std::vector<ht::graph::VertexId> a{pick[0]}, b{pick[1]};
    const auto lp = ht::lp::fractional_vertex_cut(g, a, b);
    const auto flow = ht::CutEngine().min_vertex_cut(g, a, b);
    ASSERT_TRUE(lp.converged);
    EXPECT_NEAR(lp.value, flow.value, 1e-5)
        << "trial " << trial << " terminals " << pick[0] << "," << pick[1];
  }
}

}  // namespace
