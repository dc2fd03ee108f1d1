#include "partition/multilevel.hpp"

#include <algorithm>
#include <cmath>

#include "partition/cut_tracker.hpp"

namespace ht::partition {

using ht::hypergraph::EdgeId;
using ht::hypergraph::Hypergraph;
using ht::hypergraph::VertexId;

namespace {

/// Stop coarsening when at most this many vertices remain.
constexpr VertexId kCoarsestSize = 32;
/// Maximum ratio of cluster weight to average (prevents gorging).
constexpr double kMaxClusterWeightFactor = 4.0;
/// Passes of the weight-aware refinement at every level.
constexpr int kRefinePasses = 16;
/// Random starts of the coarsest-level partition.
constexpr int kCoarsestStarts = 8;

struct Level {
  Hypergraph hypergraph;
  // cluster_of[v] = coarse id of fine vertex v (mapping THIS level's
  // vertices into the NEXT coarser level).
  std::vector<std::int32_t> cluster_of;
};

/// One round of connectivity matching: pairs vertices sharing heavy edges.
/// Returns the cluster map and count, or 0 clusters if no contraction
/// happened (fixed point).
std::pair<std::vector<std::int32_t>, std::int32_t> match_round(
    const Hypergraph& h, double max_cluster_weight, ht::Rng& rng) {
  const VertexId n = h.num_vertices();
  std::vector<VertexId> order(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  rng.shuffle(order);
  std::vector<std::int32_t> cluster(static_cast<std::size_t>(n), -1);
  std::int32_t next_cluster = 0;
  std::vector<double> score(static_cast<std::size_t>(n), 0.0);
  std::vector<VertexId> touched;
  bool contracted = false;
  for (VertexId v : order) {
    if (cluster[static_cast<std::size_t>(v)] != -1) continue;
    // Score unmatched neighbours by shared connectivity w(e)/(|e|-1).
    touched.clear();
    for (EdgeId e : h.incident_edges(v)) {
      const double contribution =
          h.edge_weight(e) / static_cast<double>(h.edge_size(e) - 1);
      for (VertexId u : h.pins(e)) {
        if (u == v || cluster[static_cast<std::size_t>(u)] != -1) continue;
        if (score[static_cast<std::size_t>(u)] == 0.0) touched.push_back(u);
        score[static_cast<std::size_t>(u)] += contribution;
      }
    }
    VertexId best = -1;
    for (VertexId u : touched) {
      if (h.vertex_weight(v) + h.vertex_weight(u) > max_cluster_weight)
        continue;
      if (best == -1 || score[static_cast<std::size_t>(u)] >
                            score[static_cast<std::size_t>(best)])
        best = u;
    }
    for (VertexId u : touched) score[static_cast<std::size_t>(u)] = 0.0;
    cluster[static_cast<std::size_t>(v)] = next_cluster;
    if (best != -1) {
      cluster[static_cast<std::size_t>(best)] = next_cluster;
      contracted = true;
    }
    ++next_cluster;
  }
  if (!contracted) return {{}, 0};
  return {std::move(cluster), next_cluster};
}

double side_weight(const Hypergraph& h, const std::vector<bool>& side) {
  double w = 0.0;
  for (VertexId v = 0; v < h.num_vertices(); ++v)
    if (side[static_cast<std::size_t>(v)]) w += h.vertex_weight(v);
  return w;
}

/// Weight-aware FM-style refinement: first-improvement single-vertex moves
/// that reduce the cut while keeping |w(side1) - W/2| <= tolerance.
void refine_weighted(const Hypergraph& h, std::vector<bool>& side,
                     double tolerance) {
  CutTracker tracker(h);
  tracker.build(side);
  const double half = h.total_vertex_weight() / 2.0;
  double w1 = side_weight(h, side);
  for (int pass = 0; pass < kRefinePasses; ++pass) {
    bool improved = false;
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      const bool on_one = tracker.on_side(v);
      const double new_w1 =
          w1 + (on_one ? -h.vertex_weight(v) : h.vertex_weight(v));
      if (std::fabs(new_w1 - half) > tolerance + 1e-9) continue;
      const double delta = tracker.flip_delta(v);
      if (delta < -1e-12) {
        tracker.flip(v);
        w1 = new_w1;
        improved = true;
      }
    }
    if (!improved) break;
  }
  side = tracker.side();
}

/// Balanced-by-weight initial partition of the coarsest level: LPT bin
/// assignment with randomized tie noise, multi-start.
std::vector<bool> coarsest_partition(const Hypergraph& h, ht::Rng& rng) {
  const VertexId n = h.num_vertices();
  const double half = h.total_vertex_weight() / 2.0;
  std::vector<bool> best;
  double best_cut = 1e300;
  for (int s = 0; s < kCoarsestStarts; ++s) {
    std::vector<VertexId> order(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
    std::sort(order.begin(), order.end(), [&](VertexId l, VertexId r) {
      return h.vertex_weight(l) > h.vertex_weight(r);
    });
    // Randomized tie-ish perturbation: swap a few random adjacent entries.
    for (int p = 0; p < n; ++p) {
      const auto i = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(std::max<VertexId>(
              n - 1, 1))));
      std::swap(order[i], order[i + 1]);
    }
    std::vector<bool> side(static_cast<std::size_t>(n), false);
    double w1 = 0.0, w0 = 0.0;
    for (VertexId v : order) {
      const bool to_one = w1 <= w0;
      side[static_cast<std::size_t>(v)] = to_one;
      (to_one ? w1 : w0) += h.vertex_weight(v);
    }
    const double tolerance =
        std::max(0.02 * h.total_vertex_weight(),
                 2.0 * std::fabs(w1 - half));
    refine_weighted(h, side, tolerance);
    const double cut = h.cut_weight(side);
    if (cut < best_cut) {
      best_cut = cut;
      best = std::move(side);
    }
  }
  return best;
}

}  // namespace

BisectionSolution multilevel_bisection(const Hypergraph& h, ht::Rng& rng) {
  HT_CHECK(h.finalized());
  const VertexId n = h.num_vertices();
  HT_CHECK(n >= 2 && n % 2 == 0);

  // ---- coarsening ----
  std::vector<Level> levels;
  levels.push_back({h, {}});
  // Work on copies with vertex weight = represented COUNT so weight
  // balance at coarse levels approximates count balance at the finest.
  {
    Hypergraph unit(h.num_vertices());
    for (EdgeId e = 0; e < h.num_edges(); ++e) {
      auto pins = h.pins(e);
      unit.add_edge({pins.begin(), pins.end()}, h.edge_weight(e));
    }
    for (VertexId v = 0; v < n; ++v) unit.set_vertex_weight(v, 1.0);
    unit.finalize();
    levels.back().hypergraph = std::move(unit);
  }
  const double max_cluster_weight =
      kMaxClusterWeightFactor *
      std::max(2.0, static_cast<double>(n) / kCoarsestSize);
  while (levels.back().hypergraph.num_vertices() > kCoarsestSize) {
    auto [cluster, count] =
        match_round(levels.back().hypergraph, max_cluster_weight, rng);
    if (count == 0) break;  // no further contraction possible
    Hypergraph coarse =
        ht::hypergraph::contract(levels.back().hypergraph, cluster, count);
    levels.back().cluster_of = std::move(cluster);
    levels.push_back({std::move(coarse), {}});
  }

  // ---- coarsest solve ----
  std::vector<bool> side = coarsest_partition(levels.back().hypergraph, rng);

  // ---- uncoarsening + refinement ----
  for (std::size_t level = levels.size() - 1; level-- > 0;) {
    const auto& fine = levels[level];
    std::vector<bool> fine_side(
        static_cast<std::size_t>(fine.hypergraph.num_vertices()), false);
    for (VertexId v = 0; v < fine.hypergraph.num_vertices(); ++v) {
      fine_side[static_cast<std::size_t>(v)] =
          side[static_cast<std::size_t>(
              fine.cluster_of[static_cast<std::size_t>(v)])];
    }
    const double tolerance =
        level == 0 ? 0.0
                   : 0.03 * fine.hypergraph.total_vertex_weight();
    if (level > 0) {
      refine_weighted(fine.hypergraph, fine_side, tolerance);
    }
    side = std::move(fine_side);
  }

  // ---- exact count balance at the finest level ----
  std::int64_t on_one = 0;
  for (bool b : side) on_one += b ? 1 : 0;
  CutTracker tracker(levels[0].hypergraph);
  tracker.build(side);
  while (on_one != n / 2) {
    const bool from_one = on_one > n / 2;
    VertexId pick = -1;
    double best_delta = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      if (tracker.on_side(v) != from_one) continue;
      const double delta = tracker.flip_delta(v);
      if (pick == -1 || delta < best_delta) {
        pick = v;
        best_delta = delta;
      }
    }
    HT_CHECK(pick != -1);
    tracker.flip(pick);
    on_one += from_one ? -1 : 1;
  }
  BisectionSolution refined = fm_refine(h, tracker.side(), 8);
  return refined;
}

}  // namespace ht::partition
