// The O(n·deg) reference FM: each move rescans every unlocked vertex and
// recomputes its gain from the pin counts. It is the oracle the FmCrossCheck
// tests hold the library's heap-driven fm_refine (src/partition/fm.cpp) to:
// equal side vectors and bit-equal cuts. It shares no code with it.
//
// The move rule is the output contract both implement: the largest gain,
// ties to the smallest vertex id, keeping the imbalance within one vertex.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "partition/fm.hpp"
#include "util/check.hpp"

namespace ht::partition::reference {

using ht::hypergraph::EdgeId;
using ht::hypergraph::Hypergraph;
using ht::hypergraph::VertexId;

/// Pin counts per side for every hyperedge, kept incrementally.
struct PinCounts {
  std::vector<std::int32_t> on_side[2];

  void build(const Hypergraph& h, const std::vector<bool>& side) {
    for (auto& s : on_side)
      s.assign(static_cast<std::size_t>(h.num_edges()), 0);
    for (EdgeId e = 0; e < h.num_edges(); ++e)
      for (VertexId v : h.pins(e))
        ++on_side[side[static_cast<std::size_t>(v)] ? 1 : 0]
                 [static_cast<std::size_t>(e)];
  }

  double cut(const Hypergraph& h) const {
    double total = 0.0;
    for (EdgeId e = 0; e < h.num_edges(); ++e)
      if (on_side[0][static_cast<std::size_t>(e)] > 0 &&
          on_side[1][static_cast<std::size_t>(e)] > 0)
        total += h.edge_weight(e);
    return total;
  }

  /// Cut-weight change if v moves from `from` to 1-from.
  double gain(const Hypergraph& h, VertexId v, int from) const {
    double g = 0.0;
    const int to = 1 - from;
    for (EdgeId e : h.incident_edges(v)) {
      const auto idx = static_cast<std::size_t>(e);
      if (on_side[from][idx] == 1 && on_side[to][idx] > 0)
        g += h.edge_weight(e);  // edge becomes uncut
      else if (on_side[to][idx] == 0)
        g -= h.edge_weight(e);  // edge becomes cut
    }
    return g;
  }

  void apply_move(const Hypergraph& h, VertexId v, int from) {
    for (EdgeId e : h.incident_edges(v)) {
      const auto idx = static_cast<std::size_t>(e);
      --on_side[from][idx];
      ++on_side[1 - from][idx];
    }
  }
};

inline BisectionSolution fm_refine(const Hypergraph& h, std::vector<bool> start,
                                   int max_passes = 16) {
  HT_CHECK(h.finalized());
  const VertexId n = h.num_vertices();
  HT_CHECK(n % 2 == 0 && n >= 2);
  HT_CHECK(start.size() == static_cast<std::size_t>(n));
  const VertexId half = n / 2;
  {
    VertexId count1 = 0;
    for (bool s : start) count1 += s ? 1 : 0;
    HT_CHECK_MSG(count1 == half, "start partition unbalanced");
  }

  PinCounts counts;
  counts.build(h, start);
  double current_cut = counts.cut(h);

  BisectionSolution best;
  best.side = start;
  best.cut = current_cut;
  best.valid = true;

  for (int pass = 0; pass < max_passes; ++pass) {
    std::vector<bool> side = best.side;
    counts.build(h, side);
    double cut = best.cut;
    VertexId on_one = half;

    std::vector<bool> locked(static_cast<std::size_t>(n), false);
    std::vector<VertexId> move_sequence;
    std::vector<double> cut_after_move;
    move_sequence.reserve(static_cast<std::size_t>(n));

    for (VertexId step = 0; step < n; ++step) {
      VertexId best_v = -1;
      double best_gain = 0.0;
      // Balance rule: imbalance after the move must stay within 1 vertex.
      for (VertexId v = 0; v < n; ++v) {
        if (locked[static_cast<std::size_t>(v)]) continue;
        const int from = side[static_cast<std::size_t>(v)] ? 1 : 0;
        const VertexId new_on_one = on_one + (from == 0 ? 1 : -1);
        if (std::abs(new_on_one - half) > 1) continue;
        const double gain = counts.gain(h, v, from);
        if (best_v == -1 || gain > best_gain) {
          best_v = v;
          best_gain = gain;
        }
      }
      if (best_v == -1) break;
      const int from = side[static_cast<std::size_t>(best_v)] ? 1 : 0;
      counts.apply_move(h, best_v, from);
      side[static_cast<std::size_t>(best_v)] = (from == 0);
      on_one += (from == 0 ? 1 : -1);
      locked[static_cast<std::size_t>(best_v)] = true;
      cut -= best_gain;
      move_sequence.push_back(best_v);
      cut_after_move.push_back(on_one == half ? cut : 1e300);
    }

    // Best balanced prefix of the move sequence.
    std::size_t best_prefix = 0;  // 0 = keep the starting partition
    double best_prefix_cut = best.cut;
    for (std::size_t i = 0; i < cut_after_move.size(); ++i) {
      if (cut_after_move[i] < best_prefix_cut - 1e-12) {
        best_prefix_cut = cut_after_move[i];
        best_prefix = i + 1;
      }
    }
    if (best_prefix == 0) break;  // pass produced no balanced improvement
    std::vector<bool> improved = best.side;
    for (std::size_t i = 0; i < best_prefix; ++i) {
      const auto v = static_cast<std::size_t>(move_sequence[i]);
      improved[v] = !improved[v];
    }
    best.side = std::move(improved);
    best.cut = best_prefix_cut;
  }
  // Re-evaluate combinatorially: the reported cut is never the incremental
  // accumulator.
  best.cut = h.cut_weight(best.side);
  return best;
}

}  // namespace ht::partition::reference
