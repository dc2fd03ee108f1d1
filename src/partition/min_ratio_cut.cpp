#include "partition/min_ratio_cut.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "flow/cut_engine.hpp"
#include "lp/spectral.hpp"
#include "util/subsets.hpp"
#include "util/thread_pool.hpp"

namespace ht::partition {

using ht::graph::Graph;
using ht::graph::VertexId;

namespace {

/// Groups the connected components of G - X into two sides (A, B), trying
/// to maximize min(w(A), w(B)) — exhaustively for few components, greedily
/// (heaviest-first into the lighter side) otherwise. Returns false if there
/// are fewer than two non-empty groups.
bool group_components(const Graph& g, const std::vector<bool>& removed,
                      VertexSeparator& out) {
  auto [comp, count] = ht::graph::connected_components_excluding(g, removed);
  if (count < 2) return false;
  std::vector<double> comp_weight(static_cast<std::size_t>(count), 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto c = comp[static_cast<std::size_t>(v)];
    if (c >= 0) comp_weight[static_cast<std::size_t>(c)] += g.vertex_weight(v);
  }
  std::vector<bool> side_b(static_cast<std::size_t>(count), false);
  if (count <= 16) {
    double best = -1.0;
    std::uint32_t best_mask = 1;
    ht::for_each_subset(count, [&](std::uint32_t mask) {
      if (mask == 0 || mask == (1u << count) - 1) return;
      double wa = 0.0, wb = 0.0;
      for (std::int32_t c = 0; c < count; ++c)
        ((mask >> c) & 1u ? wb : wa) += comp_weight[static_cast<std::size_t>(c)];
      const double score = std::min(wa, wb);
      if (score > best) {
        best = score;
        best_mask = mask;
      }
    });
    for (std::int32_t c = 0; c < count; ++c)
      side_b[static_cast<std::size_t>(c)] = (best_mask >> c) & 1u;
  } else {
    std::vector<std::int32_t> order(static_cast<std::size_t>(count));
    for (std::int32_t c = 0; c < count; ++c)
      order[static_cast<std::size_t>(c)] = c;
    std::sort(order.begin(), order.end(), [&](std::int32_t l, std::int32_t r) {
      return comp_weight[static_cast<std::size_t>(l)] >
             comp_weight[static_cast<std::size_t>(r)];
    });
    double wa = 0.0, wb = 0.0;
    for (std::int32_t c : order) {
      if (wa <= wb) {
        wa += comp_weight[static_cast<std::size_t>(c)];
      } else {
        wb += comp_weight[static_cast<std::size_t>(c)];
        side_b[static_cast<std::size_t>(c)] = true;
      }
    }
  }
  out.a.clear();
  out.b.clear();
  out.x.clear();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (removed[static_cast<std::size_t>(v)]) {
      out.x.push_back(v);
    } else if (side_b[static_cast<std::size_t>(
                   comp[static_cast<std::size_t>(v)])]) {
      out.b.push_back(v);
    } else {
      out.a.push_back(v);
    }
  }
  return !out.a.empty() && !out.b.empty();
}

double raw_sparsity(const Graph& g, const VertexSeparator& sep) {
  double wa = 0.0, wb = 0.0, wx = 0.0;
  for (VertexId v : sep.a) wa += g.vertex_weight(v);
  for (VertexId v : sep.b) wb += g.vertex_weight(v);
  for (VertexId v : sep.x) wx += g.vertex_weight(v);
  const double denom = std::min(wa, wb) + wx;
  return denom > 0.0 ? wx / denom : 0.0;
}

/// Moves separator vertices that touch only one side into that side;
/// strictly reduces w(X) while preserving separation.
void absorb_redundant(const Graph& g, VertexSeparator& sep) {
  std::vector<std::int8_t> role(static_cast<std::size_t>(g.num_vertices()),
                                0);  // 0=A, 1=B, 2=X
  for (VertexId v : sep.b) role[static_cast<std::size_t>(v)] = 1;
  for (VertexId v : sep.x) role[static_cast<std::size_t>(v)] = 2;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < sep.x.size(); ++i) {
      const VertexId v = sep.x[i];
      bool touches_a = false, touches_b = false;
      for (const auto& adj : g.neighbors(v)) {
        const auto r = role[static_cast<std::size_t>(adj.to)];
        touches_a |= (r == 0);
        touches_b |= (r == 1);
      }
      if (touches_a && touches_b) continue;
      // Move v into the (unique or arbitrary) side it touches.
      if (touches_b) {
        role[static_cast<std::size_t>(v)] = 1;
        sep.b.push_back(v);
      } else {
        role[static_cast<std::size_t>(v)] = 0;
        sep.a.push_back(v);
      }
      sep.x[i] = sep.x.back();
      sep.x.pop_back();
      changed = true;
      break;
    }
  }
}

}  // namespace

double separator_sparsity(const Graph& g, const VertexSeparator& sep) {
  // Validate partition & separation.
  std::vector<std::int8_t> seen(static_cast<std::size_t>(g.num_vertices()), 0);
  for (VertexId v : sep.a) ++seen[static_cast<std::size_t>(v)];
  for (VertexId v : sep.b) ++seen[static_cast<std::size_t>(v)];
  for (VertexId v : sep.x) ++seen[static_cast<std::size_t>(v)];
  for (std::size_t v = 0; v < seen.size(); ++v)
    HT_CHECK_MSG(seen[v] == 1, "separator does not partition V at vertex " << v);
  HT_CHECK(!sep.a.empty() && !sep.b.empty());
  std::vector<std::int8_t> role(static_cast<std::size_t>(g.num_vertices()), 0);
  for (VertexId v : sep.b) role[static_cast<std::size_t>(v)] = 1;
  for (VertexId v : sep.x) role[static_cast<std::size_t>(v)] = 2;
  for (const auto& e : g.edges()) {
    const auto ru = role[static_cast<std::size_t>(e.u)];
    const auto rv = role[static_cast<std::size_t>(e.v)];
    HT_CHECK_MSG(!((ru == 0 && rv == 1) || (ru == 1 && rv == 0)),
                 "edge " << e.u << "-" << e.v << " crosses the separator");
  }
  return raw_sparsity(g, sep);
}

VertexSeparator min_ratio_vertex_cut_exact(const Graph& g) {
  HT_CHECK(g.finalized());
  const int n = g.num_vertices();
  HT_CHECK_MSG(n <= 20, "exact min-ratio cut limited to n <= 20");
  VertexSeparator best;
  if (n < 2) return best;
  ht::for_each_subset(n, [&](std::uint32_t mask) {
    if (ht::popcount32(mask) > n - 2) return;
    std::vector<bool> removed(static_cast<std::size_t>(n), false);
    for (int v = 0; v < n; ++v)
      if (mask & (1u << v)) removed[static_cast<std::size_t>(v)] = true;
    VertexSeparator cand;
    if (!group_components(g, removed, cand)) return;
    cand.sparsity = raw_sparsity(g, cand);
    cand.valid = true;
    if (!best.valid || cand.sparsity < best.sparsity) best = cand;
  });
  return best;
}

VertexSeparator min_ratio_vertex_cut(const Graph& g, ht::Rng& rng) {
  HT_CHECK(g.finalized());
  const VertexId n = g.num_vertices();
  VertexSeparator best;
  if (n < 2) return best;

  // Disconnected graphs separate for free.
  {
    std::vector<bool> removed(static_cast<std::size_t>(n), false);
    VertexSeparator cand;
    if (group_components(g, removed, cand)) {
      cand.sparsity = 0.0;
      cand.valid = true;
      return cand;
    }
  }

  const auto fiedler = ht::lp::fiedler_vector(g, g.vertex_weights(), rng);
  std::vector<VertexId> order(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&](VertexId l, VertexId r) {
    return fiedler.vector[static_cast<std::size_t>(l)] <
           fiedler.vector[static_cast<std::size_t>(r)];
  });

  // Cheap proxy per sweep position: separator = boundary of the lighter
  // prefix (the cheaper of "A-boundary inside B" / "B-boundary inside A").
  // The sweep keeps the edges crossing the prefix as a bitset over edge
  // ids; moving a vertex into the prefix toggles its incident edges. Each
  // position walks the set bits in increasing id, the order of a scan of
  // the edge list, and counts each boundary vertex once by stamping it
  // with the position, so both sums add the same terms in the same order
  // for any weights. O(m/64 + |crossing|) per position.
  struct SweepCandidate {
    VertexId position;
    double proxy;
  };
  const auto un = static_cast<std::size_t>(n);
  std::vector<std::uint64_t> crossing(
      (static_cast<std::size_t>(g.num_edges()) + 63) / 64, 0);
  std::vector<char> in_prefix(un, 0);
  std::vector<VertexId> counted_a(un, 0), counted_b(un, 0);
  const double total = g.total_vertex_weight();
  double prefix_weight = 0.0;
  std::vector<SweepCandidate> candidates;
  candidates.reserve(un - 1);
  for (VertexId i = 1; i < n; ++i) {
    const VertexId moved = order[static_cast<std::size_t>(i) - 1];
    in_prefix[static_cast<std::size_t>(moved)] = 1;
    prefix_weight += g.vertex_weight(moved);
    for (const auto& adj : g.neighbors(moved))
      crossing[static_cast<std::size_t>(adj.edge) / 64] ^=
          std::uint64_t{1} << (adj.edge % 64);
    double boundary_in_b = 0.0, boundary_in_a = 0.0;
    for (std::size_t word = 0; word < crossing.size(); ++word) {
      for (std::uint64_t bits = crossing[word]; bits != 0; bits &= bits - 1) {
        const auto& e = g.edge(static_cast<ht::graph::EdgeId>(
            word * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
        const bool pu = in_prefix[static_cast<std::size_t>(e.u)] != 0;
        const VertexId b_side = pu ? e.v : e.u;
        const VertexId a_side = pu ? e.u : e.v;
        if (counted_b[static_cast<std::size_t>(b_side)] != i) {
          counted_b[static_cast<std::size_t>(b_side)] = i;
          boundary_in_b += g.vertex_weight(b_side);
        }
        if (counted_a[static_cast<std::size_t>(a_side)] != i) {
          counted_a[static_cast<std::size_t>(a_side)] = i;
          boundary_in_a += g.vertex_weight(a_side);
        }
      }
    }
    const double small_side = std::min(prefix_weight, total - prefix_weight);
    const double wx = std::min(boundary_in_a, boundary_in_b);
    const double denom = small_side + wx;
    candidates.push_back({i, denom > 0.0 ? wx / denom : 1e100});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const SweepCandidate& l, const SweepCandidate& r) {
              if (l.proxy != r.proxy) return l.proxy < r.proxy;
              return l.position < r.position;
            });

  // Exact vertex-cut flow on the most promising sweep positions — each
  // flow is independent; the winner is reduced serially in candidate
  // order, so the pick never depends on the schedule.
  const std::size_t flows = std::min<std::size_t>(candidates.size(), 8);
  std::vector<VertexSeparator> evaluated(flows);
  ht::parallel_for(flows, [&](std::size_t c) {
    const VertexId i = candidates[c].position;
    std::vector<VertexId> a(order.begin(), order.begin() + i);
    std::vector<VertexId> b(order.begin() + i, order.end());
    const auto cut = ht::CutEngine().min_vertex_cut(g, a, b);
    std::vector<bool> removed(static_cast<std::size_t>(n), false);
    for (VertexId v : cut.cut_vertices)
      removed[static_cast<std::size_t>(v)] = true;
    VertexSeparator cand;
    if (!group_components(g, removed, cand)) return;
    absorb_redundant(g, cand);
    cand.sparsity = raw_sparsity(g, cand);
    cand.valid = true;
    evaluated[c] = std::move(cand);
  });
  for (auto& cand : evaluated) {
    if (!cand.valid) continue;
    if (!best.valid || cand.sparsity < best.sparsity) best = std::move(cand);
  }

  // Fallback for graphs where every sweep cut was degenerate (e.g. cliques):
  // single-vertex sides A = {v}, B = rest, X = N(v).
  if (!best.valid) {
    for (VertexId v = 0; v < std::min<VertexId>(n, 32); ++v) {
      std::vector<bool> removed(static_cast<std::size_t>(n), false);
      bool all_neighbors = true;
      for (const auto& adj : g.neighbors(v)) {
        removed[static_cast<std::size_t>(adj.to)] = true;
      }
      removed[static_cast<std::size_t>(v)] = false;
      std::size_t removed_count = 0;
      for (bool r : removed) removed_count += r ? 1 : 0;
      if (removed_count + 2 > static_cast<std::size_t>(n)) all_neighbors = false;
      if (!all_neighbors) continue;
      VertexSeparator cand;
      if (!group_components(g, removed, cand)) continue;
      absorb_redundant(g, cand);
      cand.sparsity = raw_sparsity(g, cand);
      cand.valid = true;
      if (!best.valid || cand.sparsity < best.sparsity) best = cand;
    }
  }
  return best;
}

}  // namespace ht::partition
