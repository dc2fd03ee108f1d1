#include "lp/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/check.hpp"

namespace ht::lp {

using ht::graph::Graph;
using ht::graph::VertexId;

namespace {

/// One entry of the iteration's packed adjacency.
struct Neighbor {
  double weight;
  VertexId to;
};

/// The graph's adjacency as (neighbour, weight) pairs, each vertex's
/// entries in increasing edge id (Graph::neighbors order).
struct PackedAdjacency {
  std::vector<std::size_t> offsets;
  std::vector<Neighbor> entries;
};

/// y = (c*I - L) x, where L is the weighted Laplacian, and returns
/// <mass, y>. With c >= lambda_max, the smallest Laplacian eigenvalues
/// become the largest of the shifted operator, so power iteration
/// converges to them. Each y[v] subtracts w*(x_v - x_u) over v's edges in
/// increasing edge id, the order of a scan of the edge list, and the dot
/// product adds in index order. Four vertices run side by side:
/// their accumulators are independent, so their subtraction chains overlap
/// instead of queueing on one FP-add latency each.
double apply_shifted(const PackedAdjacency& adj, double shift,
                     const std::vector<double>& x,
                     const std::vector<double>& mass, std::vector<double>& y) {
  const std::size_t n = x.size();
  const Neighbor* entries = adj.entries.data();
  const std::size_t* offsets = adj.offsets.data();
  const auto term = [&](const Neighbor& nb, double xv) {
    return nb.weight * (xv - x[static_cast<std::size_t>(nb.to)]);
  };
  double dot = 0.0;
  std::size_t v = 0;
  for (; v + 4 <= n; v += 4) {
    const Neighbor* p0 = entries + offsets[v];
    const Neighbor* p1 = entries + offsets[v + 1];
    const Neighbor* p2 = entries + offsets[v + 2];
    const Neighbor* p3 = entries + offsets[v + 3];
    const Neighbor* e0 = p1;
    const Neighbor* e1 = p2;
    const Neighbor* e2 = p3;
    const Neighbor* e3 = entries + offsets[v + 4];
    const double x0 = x[v], x1 = x[v + 1], x2 = x[v + 2], x3 = x[v + 3];
    double y0 = shift * x0, y1 = shift * x1, y2 = shift * x2,
           y3 = shift * x3;
    const std::ptrdiff_t common =
        std::min(std::min(e0 - p0, e1 - p1), std::min(e2 - p2, e3 - p3));
    for (std::ptrdiff_t k = 0; k < common; ++k) {
      y0 -= term(p0[k], x0);
      y1 -= term(p1[k], x1);
      y2 -= term(p2[k], x2);
      y3 -= term(p3[k], x3);
    }
    for (const Neighbor* p = p0 + common; p < e0; ++p) y0 -= term(*p, x0);
    for (const Neighbor* p = p1 + common; p < e1; ++p) y1 -= term(*p, x1);
    for (const Neighbor* p = p2 + common; p < e2; ++p) y2 -= term(*p, x2);
    for (const Neighbor* p = p3 + common; p < e3; ++p) y3 -= term(*p, x3);
    y[v] = y0;
    y[v + 1] = y1;
    y[v + 2] = y2;
    y[v + 3] = y3;
    dot += mass[v] * y0;
    dot += mass[v + 1] * y1;
    dot += mass[v + 2] * y2;
    dot += mass[v + 3] * y3;
  }
  for (; v < n; ++v) {
    const double xv = x[v];
    double yv = shift * xv;
    for (std::size_t k = offsets[v]; k < offsets[v + 1]; ++k)
      yv -= term(entries[k], xv);
    y[v] = yv;
    dot += mass[v] * yv;
  }
  return dot;
}

/// Removes x's mass component (dot = <mass, x>, mass_sq = <mass, mass>;
/// skipped when mass_sq <= 0), scales x to unit norm, and returns the norm
/// before scaling. The sum of squares rides on the subtraction pass; it
/// still adds the deflated entries in index order.
double deflate_and_normalize(std::vector<double>& x,
                             const std::vector<double>& mass, double dot,
                             double mass_sq) {
  double ss = 0.0;
  if (mass_sq <= 0.0) {
    for (double v : x) ss += v * v;
  } else {
    const double coeff = dot / mass_sq;
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] -= coeff * mass[i];
      ss += x[i] * x[i];
    }
  }
  const double norm = std::sqrt(ss);
  if (norm > 0.0)
    for (double& v : x) v /= norm;
  return norm;
}

}  // namespace

FiedlerResult fiedler_vector(const Graph& g,
                             const std::vector<double>& vertex_mass,
                             ht::Rng& rng, int max_iterations,
                             double tolerance) {
  HT_CHECK(g.finalized());
  const auto n = static_cast<std::size_t>(g.num_vertices());
  HT_CHECK(n >= 2);
  std::vector<double> mass = vertex_mass;
  if (mass.empty()) mass.assign(n, 1.0);
  HT_CHECK(mass.size() == n);
  double mass_sq = 0.0;
  for (double m : mass) mass_sq += m * m;

  // Pack the adjacency once; the Gershgorin bound lambda_max(L) <= 2 * max
  // weighted degree falls out of the same pass.
  PackedAdjacency adj;
  adj.offsets.reserve(n + 1);
  adj.entries.reserve(2 * static_cast<std::size_t>(g.num_edges()));
  adj.offsets.push_back(0);
  double shift = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    double wdeg = 0.0;
    for (const auto& a : g.neighbors(v)) {
      const double w = g.edge(a.edge).weight;
      wdeg += w;
      adj.entries.push_back(Neighbor{w, a.to});
    }
    adj.offsets.push_back(adj.entries.size());
    shift = std::max(shift, 2.0 * wdeg);
  }
  shift += 1.0;  // keep the operator strictly positive definite

  FiedlerResult out;
  std::vector<double> x(n), y(n);
  for (double& v : x) v = rng.next_double() - 0.5;
  double dot = 0.0;
  for (std::size_t i = 0; i < n; ++i) dot += mass[i] * x[i];
  deflate_and_normalize(x, mass, dot, mass_sq);

  double prev_eig = 0.0;
  for (int it = 0; it < max_iterations; ++it) {
    dot = apply_shifted(adj, shift, x, mass, y);
    const double norm = deflate_and_normalize(y, mass, dot, mass_sq);
    x.swap(y);
    out.iterations = it + 1;
    const double eig = shift - norm;  // Laplacian eigenvalue estimate
    if (it > 8 && std::fabs(eig - prev_eig) < tolerance) {
      prev_eig = eig;
      break;
    }
    prev_eig = eig;
  }
  out.vector = std::move(x);
  out.eigenvalue = prev_eig;
  return out;
}

}  // namespace ht::lp
