#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "graph/generators.hpp"
#include "hypergraph/hypergraph.hpp"
#include "lp/spectral.hpp"
#include "reduction/clique_expansion.hpp"
#include "util/rng.hpp"

namespace {

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

}  // namespace
