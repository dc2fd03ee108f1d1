#include "partition/fm.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace ht::partition {

using ht::hypergraph::EdgeId;
using ht::hypergraph::Hypergraph;
using ht::hypergraph::VertexId;

namespace {

/// A heap entry: a vertex and the gain it had when pushed. Entries go stale
/// when the vertex locks or its gain changes; they are dropped when they
/// reach the top.
struct Candidate {
  double gain;
  VertexId v;
};

/// Heap order: the top is the largest gain, ties to the smallest id.
bool ranks_below(const Candidate& a, const Candidate& b) {
  return a.gain < b.gain || (a.gain == b.gain && a.v > b.v);
}

/// One FM pass's state: pins per side per edge, the side and lock of every
/// vertex, cached gains and one lazy max-heap per side. Buffers are reused
/// across passes.
class FmPass {
 public:
  explicit FmPass(const Hypergraph& h)
      : h_(h),
        on_side_(static_cast<std::size_t>(h.num_edges())),
        side_(static_cast<std::size_t>(h.num_vertices())),
        locked_(side_.size()),
        dirty_(side_.size()),
        gain_(side_.size()) {}

  /// Loads `side` and computes every gain.
  void reset(const std::vector<bool>& side) {
    const VertexId n = h_.num_vertices();
    for (VertexId v = 0; v < n; ++v)
      side_[static_cast<std::size_t>(v)] =
          side[static_cast<std::size_t>(v)] ? 1 : 0;
    for (EdgeId e = 0; e < h_.num_edges(); ++e) {
      auto& count = on_side_[static_cast<std::size_t>(e)];
      count = {0, 0};
      for (VertexId v : h_.pins(e)) ++count[side_[static_cast<std::size_t>(v)]];
    }
    std::fill(locked_.begin(), locked_.end(), 0);
    for (auto& heap : heap_) heap.clear();
    for (VertexId v = 0; v < n; ++v) {
      const auto i = static_cast<std::size_t>(v);
      gain_[i] = compute_gain(v);
      heap_[side_[i]].push_back({gain_[i], v});
    }
    for (auto& heap : heap_)
      std::make_heap(heap.begin(), heap.end(), ranks_below);
  }

  /// Cut of the loaded side vector, summed in edge order.
  double cut() const {
    double total = 0.0;
    for (EdgeId e = 0; e < h_.num_edges(); ++e) {
      const auto& count = on_side_[static_cast<std::size_t>(e)];
      if (count[0] > 0 && count[1] > 0) total += h_.edge_weight(e);
    }
    return total;
  }

  double gain(VertexId v) const { return gain_[static_cast<std::size_t>(v)]; }
  int side(VertexId v) const { return side_[static_cast<std::size_t>(v)]; }

  /// The unlocked vertex of side `from` with the largest gain (ties to the
  /// smallest id), or -1 if none is left.
  VertexId best_on(int from) {
    auto& heap = heap_[from];
    while (!heap.empty()) {
      const Candidate& top = heap.front();
      const auto i = static_cast<std::size_t>(top.v);
      if (!locked_[i] && top.gain == gain_[i]) return top.v;
      std::pop_heap(heap.begin(), heap.end(), ranks_below);
      heap.pop_back();
    }
    return -1;
  }

  /// Moves v to the other side and locks it. Only the pins of edges whose
  /// pin counts cross a gain threshold are re-gained.
  void move(VertexId v) {
    const int from = side(v);
    const int to = 1 - from;
    locked_[static_cast<std::size_t>(v)] = 1;
    side_[static_cast<std::size_t>(v)] = static_cast<std::uint8_t>(to);
    for (EdgeId e : h_.incident_edges(v)) {
      auto& count = on_side_[static_cast<std::size_t>(e)];
      const std::int32_t on_from = count[from]--;
      const std::int32_t on_to = count[to]++;
      // Counts before the move. A pin left on `from` had -w (the edge would
      // become cut) iff on_to was 0, and now has +w (the edge would become
      // uncut) iff on_from was 2. A pin on `to` had +w iff on_to was 1, and
      // now has -w iff on_from was 1.
      const bool from_pins = on_to == 0 || on_from == 2;
      const bool to_pins = on_to == 1 || on_from == 1;
      if (!from_pins && !to_pins) continue;
      for (VertexId u : h_.pins(e)) {
        const auto i = static_cast<std::size_t>(u);
        if (locked_[i] || dirty_[i]) continue;
        if (side_[i] == from ? from_pins : to_pins) {
          dirty_[i] = 1;
          touched_.push_back(u);
        }
      }
    }
    for (VertexId u : touched_) {
      const auto i = static_cast<std::size_t>(u);
      dirty_[i] = 0;
      const double g = compute_gain(u);
      if (g == gain_[i]) continue;  // its live entry is still in the heap
      gain_[i] = g;
      auto& heap = heap_[side_[i]];
      heap.push_back({g, u});
      std::push_heap(heap.begin(), heap.end(), ranks_below);
    }
    touched_.clear();
  }

 private:
  /// Cut-weight change if v moves off its side: +w for each incident edge
  /// it would uncut, -w for each it would cut, added in incidence order.
  /// A gain is always recomputed, never patched, so it is the same double
  /// a fresh scan of the current pin counts would produce.
  double compute_gain(VertexId v) const {
    const int from = side(v);
    const int to = 1 - from;
    double g = 0.0;
    for (EdgeId e : h_.incident_edges(v)) {
      const auto& count = on_side_[static_cast<std::size_t>(e)];
      if (count[from] == 1 && count[to] > 0)
        g += h_.edge_weight(e);  // edge becomes uncut
      else if (count[to] == 0)
        g -= h_.edge_weight(e);  // edge becomes cut
    }
    return g;
  }

  const Hypergraph& h_;
  std::vector<std::array<std::int32_t, 2>> on_side_;  // pins of e per side
  std::vector<std::uint8_t> side_;
  std::vector<std::uint8_t> locked_;
  std::vector<std::uint8_t> dirty_;
  std::vector<double> gain_;
  std::vector<Candidate> heap_[2];
  std::vector<VertexId> touched_;
};

}  // namespace

BisectionSolution fm_refine(const Hypergraph& h, std::vector<bool> start,
                            int max_passes) {
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

  FmPass state(h);
  state.reset(start);
  BisectionSolution best;
  best.cut = state.cut();
  best.side = std::move(start);
  best.valid = true;

  std::vector<VertexId> move_sequence;
  std::vector<double> cut_after_move;
  move_sequence.reserve(static_cast<std::size_t>(n));
  cut_after_move.reserve(static_cast<std::size_t>(n));
  for (int pass = 0; pass < max_passes; ++pass) {
    if (pass > 0) state.reset(best.side);
    double cut = best.cut;
    VertexId on_one = half;
    move_sequence.clear();
    cut_after_move.clear();

    for (VertexId step = 0; step < n; ++step) {
      // Balance rule: imbalance after the move must stay within 1 vertex,
      // so at imbalance +-1 only the heavier side may give up a vertex.
      const VertexId best0 = on_one <= half ? state.best_on(0) : -1;
      const VertexId best1 = on_one >= half ? state.best_on(1) : -1;
      VertexId best_v = best0;
      if (best1 != -1 &&
          (best0 == -1 || ranks_below({state.gain(best0), best0},
                                      {state.gain(best1), best1})))
        best_v = best1;
      if (best_v == -1) break;
      const double best_gain = state.gain(best_v);
      on_one += state.side(best_v) == 0 ? 1 : -1;
      state.move(best_v);
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
    for (std::size_t i = 0; i < best_prefix; ++i) {
      const auto v = static_cast<std::size_t>(move_sequence[i]);
      best.side[v] = !best.side[v];
    }
    best.cut = best_prefix_cut;
  }
  // Re-evaluate combinatorially: the reported cut is never the incremental
  // accumulator.
  best.cut = h.cut_weight(best.side);
  return best;
}

BisectionSolution fm_bisection(const Hypergraph& h, ht::Rng& rng, int starts,
                               int max_passes) {
  HT_CHECK(h.num_vertices() % 2 == 0 && h.num_vertices() >= 2);
  const VertexId n = h.num_vertices();
  BisectionSolution best;
  for (int s = 0; s < starts; ++s) {
    std::vector<VertexId> perm(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
    rng.shuffle(perm);
    std::vector<bool> side(static_cast<std::size_t>(n), false);
    for (VertexId i = 0; i < n / 2; ++i)
      side[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = true;
    BisectionSolution sol = fm_refine(h, std::move(side), max_passes);
    if (!best.valid || sol.cut < best.cut) best = std::move(sol);
  }
  return best;
}

void validate_bisection(const Hypergraph& h, const BisectionSolution& s) {
  HT_CHECK(s.valid);
  HT_CHECK(s.side.size() == static_cast<std::size_t>(h.num_vertices()));
  VertexId on_one = 0;
  for (bool b : s.side) on_one += b ? 1 : 0;
  HT_CHECK_MSG(2 * on_one == h.num_vertices(), "bisection unbalanced");
  const double cut = h.cut_weight(s.side);
  HT_CHECK_MSG(std::fabs(cut - s.cut) <= 1e-6 * (1.0 + std::fabs(cut)),
               "stored cut " << s.cut << " != recomputed " << cut);
}

}  // namespace ht::partition
