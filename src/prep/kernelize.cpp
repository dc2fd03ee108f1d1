#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prep/prep.hpp"
#include "util/run_context.hpp"
#include "util/thread_pool.hpp"

namespace ht::prep {

namespace {

using hypergraph::Weight;

/// Minimum weighted vertex degree — the cheapest single-vertex cut, hence
/// a valid upper bound lambda_hat on the global minimum cut (n >= 2
/// guarantees every incident hyperedge has a pin on the far side).
/// Degrees are computed in parallel per disjoint slot; the min folds
/// serially (min over doubles is order-independent anyway).
Weight min_weighted_degree(const Hypergraph& h,
                           std::vector<Weight>& degree_scratch) {
  const auto n = static_cast<std::size_t>(h.num_vertices());
  degree_scratch.assign(n, 0.0);
  parallel_for(n, [&](std::size_t v) {
    Weight d = 0.0;
    for (const EdgeId e : h.incident_edges(static_cast<VertexId>(v))) {
      d += h.edge_weight(e);
    }
    degree_scratch[v] = d;
  });
  Weight lo = std::numeric_limits<Weight>::infinity();
  for (const Weight d : degree_scratch) lo = std::min(lo, d);
  return lo;
}

struct UnionFind {
  std::vector<VertexId> parent;

  explicit UnionFind(VertexId n) : parent(static_cast<std::size_t>(n)) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  VertexId find(VertexId v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      const VertexId p = parent[static_cast<std::size_t>(v)];
      parent[static_cast<std::size_t>(v)] =
          parent[static_cast<std::size_t>(p)];
      v = parent[static_cast<std::size_t>(v)];
    }
    return v;
  }
  void unite(VertexId a, VertexId b) {
    a = find(a);
    b = find(b);
    // Smaller root wins: the representative choice is id-deterministic.
    if (a == b) return;
    if (b < a) std::swap(a, b);
    parent[static_cast<std::size_t>(b)] = a;
  }
};

/// Copies `h` without its zero-weight hyperedges (vertices untouched).
Hypergraph drop_zero_edges(const Hypergraph& h) {
  Hypergraph out(h.num_vertices());
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    out.set_vertex_weight(v, h.vertex_weight(v));
  }
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    if (h.edge_weight(e) == 0.0) continue;
    const auto pins = h.pins(e);
    out.add_edge({pins.begin(), pins.end()}, h.edge_weight(e));
  }
  out.finalize();
  return out;
}

}  // namespace

void kernelize(PrepResult& result) {
  // Fixpoint cap; each round is one contract() pass.
  constexpr std::int32_t kMaxRounds = 8;
  obs::TraceSpan span("prep.kernelize");
  RunState* run = current_run_state();
  Hypergraph& current = result.reduced;
  std::vector<Weight> degree;
  auto& metrics = obs::MetricsRegistry::global();

  for (std::int32_t round = 0; round < kMaxRounds; ++round) {
    if (run != nullptr && !run->check().ok()) break;
    const VertexId n = current.num_vertices();
    const EdgeId m = current.num_edges();
    if (n < 2) break;

    // Rule 1: zero-weight hyperedges can never contribute to a cut.
    bool dropped_zero = false;
    for (EdgeId e = 0; e < m && !dropped_zero; ++e) {
      dropped_zero = current.edge_weight(e) == 0.0;
    }
    if (dropped_zero) {
      Hypergraph filtered = drop_zero_edges(current);
      metrics.counter("prep.zero_edges_removed")
          .add(static_cast<std::uint64_t>(m - filtered.num_edges()));
      current = std::move(filtered);
      result.stage_flags |= kStageZeroEdges;
    }

    // Rule 3 (heavy hyperedges): w(e) > lambda_hat means e crosses no
    // minimum cut — contract its pins.
    UnionFind uf(n);
    const Weight lambda_hat = min_weighted_degree(current, degree);
    for (EdgeId e = 0; e < current.num_edges(); ++e) {
      if (current.edge_weight(e) > lambda_hat) {
        const auto pins = current.pins(e);
        for (std::size_t i = 1; i < pins.size(); ++i) {
          uf.unite(pins[0], pins[i]);
        }
        metrics.counter("prep.heavy_edges_contracted").add();
      }
    }

    // Cluster ids in first-occurrence order: deterministic renumbering.
    ContractionMap map;
    map.cluster_of.assign(static_cast<std::size_t>(n), -1);
    VertexId clusters = 0;
    for (VertexId v = 0; v < n; ++v) {
      const VertexId root = uf.find(v);
      VertexId& c = map.cluster_of[static_cast<std::size_t>(root)];
      if (v == root) {
        c = clusters++;
      }
      map.cluster_of[static_cast<std::size_t>(v)] = c;
    }
    map.num_clusters = clusters;

    // Rule 2 rides on contract(): identical coarse pin sets merge with
    // weights summed (and heavy edges collapse inside their cluster).
    Hypergraph next =
        hypergraph::contract(current, map.cluster_of, map.num_clusters);
    const bool contracted = clusters < n;
    const bool merged = !contracted && next.num_edges() < current.num_edges();
    if (!dropped_zero && !contracted && !merged) break;  // fixpoint
    if (contracted) {
      result.stage_flags |= kStageHeavyContraction;
      result.lifting.compose(map);
    }
    if (merged) {
      result.stage_flags |= kStageDuplicateMerge;
      metrics.counter("prep.duplicate_edges_merged")
          .add(static_cast<std::uint64_t>(current.num_edges() -
                                          next.num_edges()));
    }
    if (contracted || merged) current = std::move(next);
    ++result.rounds;
    metrics.counter("prep.kernelize_rounds").add();
  }
}

std::int64_t total_pins(const Hypergraph& h) {
  std::int64_t pins = 0;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    pins += h.edge_size(e);
  }
  return pins;
}

}  // namespace ht::prep
