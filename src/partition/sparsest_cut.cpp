#include "partition/sparsest_cut.hpp"

#include <algorithm>

#include "lp/spectral.hpp"
#include "partition/cut_tracker.hpp"
#include "reduction/clique_expansion.hpp"
#include "util/subsets.hpp"

namespace ht::partition {

using ht::hypergraph::EdgeId;
using ht::hypergraph::Hypergraph;
using ht::hypergraph::VertexId;

namespace {

double sparsity_of(double cut, std::int64_t smaller) {
  return smaller > 0 ? cut / static_cast<double>(smaller) : 1e300;
}

SparsestCutResult from_side(const Hypergraph& h,
                            const std::vector<bool>& side, double cut) {
  SparsestCutResult out;
  std::int64_t count = 0;
  for (bool b : side) count += b ? 1 : 0;
  const bool smaller_is_side = 2 * count <= h.num_vertices();
  for (VertexId v = 0; v < h.num_vertices(); ++v)
    if (side[static_cast<std::size_t>(v)] == smaller_is_side)
      out.smaller_side.push_back(v);
  out.cut = cut;
  out.sparsity = sparsity_of(
      cut, static_cast<std::int64_t>(out.smaller_side.size()));
  out.valid = !out.smaller_side.empty() &&
              out.smaller_side.size() < static_cast<std::size_t>(
                                            h.num_vertices());
  return out;
}

}  // namespace

SparsestCutResult sparsest_hyperedge_cut_exact(const Hypergraph& h) {
  HT_CHECK(h.finalized());
  const int n = h.num_vertices();
  HT_CHECK_MSG(n <= 20, "exact sparsest cut limited to n <= 20");
  if (n < 2) return {};
  // One pin mask per edge: e crosses S exactly when it has pins both in
  // and out of S.
  const EdgeId m = h.num_edges();
  std::vector<std::uint32_t> pin_mask(static_cast<std::size_t>(m), 0);
  for (EdgeId e = 0; e < m; ++e)
    for (VertexId v : h.pins(e))
      pin_mask[static_cast<std::size_t>(e)] |= 1u << v;
  // S ranges over the nonempty subsets of the first n-1 vertices (vertex
  // n-1 fixed outside halves the enumeration by symmetry), so both sides
  // are nonempty. Crossing weights are summed in edge-id order, as
  // Hypergraph::cut_weight adds them, and the first strict minimum in
  // mask order wins.
  std::uint32_t best_mask = 0;
  double best_cut = 0.0;
  double best_sparsity = 0.0;
  for (std::uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
    double cut = 0.0;
    for (EdgeId e = 0; e < m; ++e) {
      const std::uint32_t pins = pin_mask[static_cast<std::size_t>(e)];
      if ((pins & mask) != 0 && (pins & ~mask) != 0) cut += h.edge_weight(e);
    }
    const int count = ht::popcount32(mask);
    const double sparsity = sparsity_of(cut, std::min(count, n - count));
    if (best_mask == 0 || sparsity < best_sparsity) {
      best_mask = mask;
      best_cut = cut;
      best_sparsity = sparsity;
    }
  }
  std::vector<bool> side(static_cast<std::size_t>(n), false);
  for (int v = 0; v + 1 < n; ++v)
    side[static_cast<std::size_t>(v)] = (best_mask >> v) & 1u;
  return from_side(h, side, best_cut);
}

SparsestCutResult sparsest_hyperedge_cut(const Hypergraph& h, ht::Rng& rng) {
  HT_CHECK(h.finalized());
  const VertexId n = h.num_vertices();
  SparsestCutResult best;
  if (n < 2) return best;

  // Disconnected hypergraphs have a zero-sparsity cut along components.
  {
    auto [comp, count] = ht::hypergraph::connected_components(h);
    if (count >= 2) {
      std::vector<bool> side(static_cast<std::size_t>(n), false);
      for (VertexId v = 0; v < n; ++v)
        side[static_cast<std::size_t>(v)] =
            comp[static_cast<std::size_t>(v)] == 0;
      return from_side(h, side, h.cut_weight(side));
    }
  }

  const ht::graph::Graph expansion = ht::reduction::clique_expansion(h);
  const auto fiedler = ht::lp::fiedler_vector(expansion, {}, rng);
  std::vector<VertexId> order(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&](VertexId l, VertexId r) {
    return fiedler.vector[static_cast<std::size_t>(l)] <
           fiedler.vector[static_cast<std::size_t>(r)];
  });

  // Sweep: every prefix evaluated with the true hypergraph cut.
  CutTracker tracker(h);
  tracker.build(std::vector<bool>(static_cast<std::size_t>(n), false));
  std::vector<bool> best_side;
  double best_sparsity = 1e300;
  for (VertexId i = 0; i + 1 < n; ++i) {
    tracker.flip(order[static_cast<std::size_t>(i)]);
    const auto smaller = std::min<std::int64_t>(tracker.side_count(),
                                                n - tracker.side_count());
    const double s = sparsity_of(tracker.cut(), smaller);
    if (s < best_sparsity) {
      best_sparsity = s;
      best_side = tracker.side();
    }
  }
  HT_CHECK(!best_side.empty());

  // Greedy single-vertex improvement on the best sweep cut.
  tracker.build(best_side);
  bool improved = true;
  int rounds = 0;
  while (improved && rounds < 32) {
    improved = false;
    ++rounds;
    for (VertexId v = 0; v < n; ++v) {
      const std::int64_t count = tracker.side_count();
      const bool on = tracker.on_side(v);
      // Keep both sides non-empty.
      if (on && count <= 1) continue;
      if (!on && count >= n - 1) continue;
      const double before_cut = tracker.cut();
      const auto before_small = std::min<std::int64_t>(count, n - count);
      const double before = sparsity_of(before_cut, before_small);
      tracker.flip(v);
      const auto after_small = std::min<std::int64_t>(
          tracker.side_count(), n - tracker.side_count());
      const double after = sparsity_of(tracker.cut(), after_small);
      if (after + 1e-12 < before) {
        improved = true;
      } else {
        tracker.flip(v);  // revert
      }
    }
  }
  return from_side(h, tracker.side(), tracker.cut());
}

}  // namespace ht::partition
