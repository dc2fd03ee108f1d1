#include "core/bisection.hpp"

#include <algorithm>
#include <cmath>

#include "cuttree/tree_bisection.hpp"
#include "cuttree/vertex_cut_tree.hpp"
#include "obs/trace.hpp"
#include "partition/graph_bisection.hpp"
#include "partition/sparsest_cut.hpp"
#include "partition/unbalanced_kcut.hpp"
#include "reduction/clique_expansion.hpp"
#include "reduction/star_expansion.hpp"
#include "util/run_context.hpp"
#include "util/wavefront.hpp"

namespace ht::core {

using ht::hypergraph::Hypergraph;
using ht::hypergraph::VertexId;
using ht::partition::BisectionSolution;

namespace {

constexpr double kHuge = 1e200;
/// Random starts of the FM raced against the decomposition-tree bisection
/// on Lemma 1's clique expansion.
constexpr int kSmallEdgeFmStarts = 8;

struct Phase1Result {
  std::vector<std::vector<VertexId>> pieces;  // original vertex ids
  double cut_weight = 0.0;                    // hyperedges cut while peeling
};

/// Phase 1 of Theorem 1: recursively peel sparsest cuts while a cut of
/// sparsity below `threshold` exists. Pieces peel in parallel over the
/// pool; each piece's oracle stream derives from (seed, piece index), so
/// every thread count yields the same peeling.
Phase1Result phase1_peel(const Hypergraph& h, double threshold,
                         std::uint64_t seed) {
  struct PieceOutcome {
    bool is_final = false;
    double cut = 0.0;
    std::vector<VertexId> small, large;
  };
  Phase1Result out;
  ht::obs::TraceSpan span("theorem1.phase1_peel");
  span.arg("n", h.num_vertices());
  span.arg("threshold", threshold);
  std::vector<std::vector<VertexId>> roots(1);
  roots[0].resize(static_cast<std::size_t>(h.num_vertices()));
  for (VertexId v = 0; v < h.num_vertices(); ++v)
    roots[0][static_cast<std::size_t>(v)] = v;

  const auto map = [&](const std::vector<VertexId>& piece,
                       ht::Rng& rng) -> PieceOutcome {
    PieceOutcome result;
    // A piece mapped after the run stopped skips its oracle: the fold loop
    // drains it into a final piece anyway.
    if (piece.size() < 2 || ht::run_stopped()) {
      result.is_final = true;
      return result;
    }
    // The sparsest-cut oracle runs on the piece's induced copy; local id i
    // is piece[i].
    const auto sub = ht::hypergraph::induced_subhypergraph(h, piece);
    ht::partition::SparsestCutResult sc;
    if (piece.size() <= 14) {
      sc = ht::partition::sparsest_hyperedge_cut_exact(sub.hypergraph);
    } else {
      sc = ht::partition::sparsest_hyperedge_cut(sub.hypergraph, rng);
    }
    if (!sc.valid || sc.sparsity >= threshold) {
      result.is_final = true;
      return result;
    }
    result.cut = sc.cut;
    std::vector<bool> in_small(piece.size(), false);
    for (VertexId local : sc.smaller_side)
      in_small[static_cast<std::size_t>(local)] = true;
    for (std::size_t local = 0; local < piece.size(); ++local)
      (in_small[local] ? result.small : result.large).push_back(piece[local]);
    return result;
  };
  const auto fold = [&](std::vector<VertexId>&& piece, PieceOutcome&& result,
                        const auto& emit) {
    if (result.is_final) {
      out.pieces.push_back(std::move(piece));
      return;
    }
    out.cut_weight += result.cut;
    emit(std::move(result.small));
    emit(std::move(result.large));
  };
  // Early stop: pieces still queued become final pieces — coarser peeling,
  // but phase 2 still sees a full partition of the vertex set.
  const auto drain = [&](std::vector<VertexId>&& piece) {
    if (!piece.empty()) out.pieces.push_back(std::move(piece));
  };
  const ht::Status status =
      ht::parallel_wavefront<std::vector<VertexId>, PieceOutcome>(
          std::move(roots), seed, map, fold, drain);
  span.arg("stopped", status.ok() ? 0 : 1);
  span.arg("pieces", out.pieces.size());
  span.arg("cut_weight", out.cut_weight);
  return out;
}

struct PieceProfile {
  std::vector<VertexId> vertices;           // original ids
  std::vector<double> cost;                 // cost[k], k in [0, kmax]
  std::vector<std::vector<VertexId>> sets;  // witness sets (original ids)
};

/// Per-piece unbalanced-k-cut cost profiles, mapped back to original ids.
/// k ranges to min(|piece|, k_cap); removing the entire piece (k = |piece|)
/// is free of *internal* cut cost and is included when |piece| <= k_cap.
PieceProfile build_piece_profile(const Hypergraph& h,
                                 std::vector<VertexId> piece,
                                 std::int32_t k_cap, ht::Rng& rng) {
  PieceProfile out;
  out.vertices = std::move(piece);
  const auto size = static_cast<std::int32_t>(out.vertices.size());
  const std::int32_t kmax = std::min(size, k_cap);
  ht::obs::TraceSpan span("theorem1.piece_profile");
  span.arg("piece_size", size);
  span.arg("kmax", kmax);
  out.cost.assign(static_cast<std::size_t>(kmax) + 1, kHuge);
  out.sets.resize(static_cast<std::size_t>(kmax) + 1);
  out.cost[0] = 0.0;
  if (kmax == 0) return out;
  if (ht::run_stopped()) {
    // The run already latched a stop: skip the k-cut oracle and return the
    // cheapest valid profile — keep the piece whole (k = 0), or remove it
    // entirely when the cap allows. The DP stays feasible because k = 0 on
    // either side is always offered.
    if (kmax == size) {
      out.cost[static_cast<std::size_t>(size)] = 0.0;
      out.sets[static_cast<std::size_t>(size)] = out.vertices;
    }
    span.arg("stopped", 1);
    return out;
  }
  // One induced copy for the whole profile: both the k-cut oracle and the
  // gap-filling loop below read it.
  const auto sub = ht::hypergraph::induced_subhypergraph(h, out.vertices);
  const std::int32_t internal_kmax = std::min(kmax, size - 1);
  if (internal_kmax >= 1 && sub.hypergraph.num_vertices() >= 2) {
    auto profile = ht::partition::unbalanced_kcut_profile(
        sub.hypergraph, internal_kmax, rng);
    for (std::int32_t k = 1;
         k < static_cast<std::int32_t>(profile.cost.size()); ++k) {
      const auto idx = static_cast<std::size_t>(k);
      if (profile.cost[idx] >= kHuge || profile.sets[idx].empty()) continue;
      out.cost[idx] = profile.cost[idx];
      auto& set = out.sets[idx];
      set.reserve(profile.sets[idx].size());
      for (VertexId local : profile.sets[idx])
        set.push_back(sub.old_of_new[static_cast<std::size_t>(local)]);
    }
  } else if (internal_kmax >= 1) {
    // Piece with < 2 effective vertices in the sub-hypergraph cannot
    // happen (induced keeps all vertices), kept for safety.
    for (std::int32_t k = 1; k <= internal_kmax; ++k) {
      out.cost[static_cast<std::size_t>(k)] = 0.0;
      out.sets[static_cast<std::size_t>(k)].assign(
          out.vertices.begin(), out.vertices.begin() + k);
    }
  }
  if (kmax == size) {
    // Remove the whole piece: no internal hyperedge is cut by the removal
    // itself (cross-piece edges were paid in phase 1).
    out.cost[static_cast<std::size_t>(size)] = 0.0;
    out.sets[static_cast<std::size_t>(size)] = out.vertices;
  }
  // Profiles should be usable at any k the DP may pick: fill gaps with
  // prefix-extensions of the nearest smaller witness.
  std::vector<VertexId> local_of(static_cast<std::size_t>(h.num_vertices()),
                                 -1);
  for (std::size_t i = 0; i < out.vertices.size(); ++i)
    local_of[static_cast<std::size_t>(out.vertices[i])] =
        static_cast<VertexId>(i);
  for (std::int32_t k = 1;
       k < static_cast<std::int32_t>(out.cost.size()); ++k) {
    const auto idx = static_cast<std::size_t>(k);
    if (out.cost[idx] < kHuge) continue;
    // Extend the previous witness by arbitrary extra vertices.
    const auto& prev = out.sets[idx - 1];
    std::vector<bool> used(out.vertices.size(), false);
    std::vector<VertexId> set = prev;
    for (VertexId v : prev)
      used[static_cast<std::size_t>(local_of[static_cast<std::size_t>(v)])] =
          true;
    for (std::size_t i = 0;
         i < out.vertices.size() &&
         set.size() < static_cast<std::size_t>(k);
         ++i) {
      if (!used[i]) set.push_back(out.vertices[i]);
    }
    if (set.size() == static_cast<std::size_t>(k)) {
      // Cost: cut of the extended set inside the piece, evaluated on the
      // single induced copy from above.
      std::vector<VertexId> local_set;
      for (VertexId v : set)
        local_set.push_back(local_of[static_cast<std::size_t>(v)]);
      out.cost[idx] = sub.hypergraph.cut_weight(local_set);
      out.sets[idx] = std::move(set);
    }
  }
  return out;
}

struct DpChoice {
  std::int16_t k = -1;
  std::int8_t side = 0;
};

/// Phase 2 dynamic program over pieces. Returns a balanced side indicator
/// or an empty vector if no feasible combination exists under the k caps.
std::vector<bool> phase2_dp(const Hypergraph& h,
                            const std::vector<PieceProfile>& profiles,
                            double* dp_estimate) {
  const VertexId n = h.num_vertices();
  const VertexId half = n / 2;
  std::int32_t r_max = 0;
  for (const auto& p : profiles)
    r_max += static_cast<std::int32_t>(p.cost.size()) - 1;
  r_max = std::min<std::int32_t>(r_max, n);
  ht::obs::TraceSpan span("theorem1.phase2_dp");
  span.arg("pieces", profiles.size());
  span.arg("r_max", r_max);

  const auto s_states = static_cast<std::size_t>(half) + 1;
  const auto r_states = static_cast<std::size_t>(r_max) + 1;
  auto at = [s_states](std::size_t s, std::size_t r) {
    return r * s_states + s;
  };
  std::vector<double> dp(s_states * r_states, kHuge);
  dp[at(0, 0)] = 0.0;
  // choices[i] records the winning (k, side) per state after piece i.
  std::vector<std::vector<DpChoice>> choices(profiles.size());

  for (std::size_t i = 0; i < profiles.size(); ++i) {
    // Bail between rows once the run stops: the caller falls back to a
    // trivial feasible partition, so finishing the table would be wasted.
    if (ht::run_stopped()) {
      span.arg("stopped", 1);
      return {};
    }
    const auto& prof = profiles[i];
    const auto piece_size = static_cast<std::int32_t>(prof.vertices.size());
    std::vector<double> next(s_states * r_states, kHuge);
    choices[i].assign(s_states * r_states, DpChoice{});
    for (std::size_t r = 0; r < r_states; ++r) {
      if (ht::run_stopped()) {
        span.arg("stopped", 1);
        return {};
      }
      for (std::size_t s = 0; s < s_states; ++s) {
        const double base = dp[at(s, r)];
        if (base >= kHuge) continue;
        for (std::int32_t k = 0;
             k < static_cast<std::int32_t>(prof.cost.size()); ++k) {
          const double cost = prof.cost[static_cast<std::size_t>(k)];
          if (cost >= kHuge) continue;
          const std::size_t nr = r + static_cast<std::size_t>(k);
          if (nr >= r_states) break;
          const std::int32_t remainder = piece_size - k;
          for (std::int8_t side = 0; side < 2; ++side) {
            const std::size_t ns =
                s + (side == 1 ? static_cast<std::size_t>(remainder) : 0);
            if (ns >= s_states) continue;
            const double total = base + cost;
            auto& slot = next[at(ns, nr)];
            if (total < slot) {
              slot = total;
              choices[i][at(ns, nr)] = DpChoice{static_cast<std::int16_t>(k),
                                                side};
            }
            if (remainder == 0) break;  // both sides identical
          }
        }
      }
    }
    dp = std::move(next);
  }

  // Feasible terminal states: side1 remainder s, removed r, side0
  // remainder = n - r - s must also fit in half.
  double best = kHuge;
  std::size_t best_s = 0, best_r = 0;
  for (std::size_t r = 0; r < r_states; ++r) {
    for (std::size_t s = 0; s < s_states; ++s) {
      if (dp[at(s, r)] >= kHuge) continue;
      const std::int64_t side0 =
          static_cast<std::int64_t>(n) - static_cast<std::int64_t>(r) -
          static_cast<std::int64_t>(s);
      if (side0 < 0 || side0 > half) continue;
      if (dp[at(s, r)] < best) {
        best = dp[at(s, r)];
        best_s = s;
        best_r = r;
      }
    }
  }
  span.arg("feasible", best < kHuge ? 1 : 0);
  if (best >= kHuge) return {};
  span.arg("best", best);
  if (dp_estimate != nullptr) *dp_estimate = best;

  // Backtrack.
  std::vector<bool> side(static_cast<std::size_t>(n), false);
  std::vector<VertexId> removed;
  std::size_t s = best_s, r = best_r;
  for (std::size_t i = profiles.size(); i > 0; --i) {
    const auto& prof = profiles[i - 1];
    const DpChoice choice = choices[i - 1][at(s, r)];
    HT_CHECK(choice.k >= 0);
    const auto k = static_cast<std::size_t>(choice.k);
    const auto& cut_set = prof.sets[k];
    std::vector<bool> in_cut(prof.vertices.size(), false);
    for (VertexId v : cut_set) {
      removed.push_back(v);
      // Mark membership by position.
      for (std::size_t j = 0; j < prof.vertices.size(); ++j)
        if (prof.vertices[j] == v) in_cut[j] = true;
    }
    for (std::size_t j = 0; j < prof.vertices.size(); ++j) {
      if (!in_cut[j])
        side[static_cast<std::size_t>(prof.vertices[j])] = choice.side == 1;
    }
    const std::int32_t remainder =
        static_cast<std::int32_t>(prof.vertices.size()) -
        static_cast<std::int32_t>(k);
    if (choice.side == 1) s -= static_cast<std::size_t>(remainder);
    r -= k;
  }
  HT_CHECK(s == 0 && r == 0);
  // Distribute removed vertices to reach exact balance.
  std::int64_t on_one = 0;
  for (bool b : side) on_one += b ? 1 : 0;
  // Subtract removed vertices currently defaulted to side 0 — they are
  // unassigned; place them now.
  for (VertexId v : removed) {
    if (on_one < half) {
      side[static_cast<std::size_t>(v)] = true;
      ++on_one;
    } else {
      side[static_cast<std::size_t>(v)] = false;
    }
  }
  HT_CHECK_MSG(on_one == half, "phase 2 balance repair failed");
  return side;
}

BisectionReport finish(const Hypergraph& h, std::vector<bool> side,
                       std::string algorithm, bool fm_polish) {
  BisectionReport out;
  out.algorithm = std::move(algorithm);
  BisectionSolution sol;
  sol.side = std::move(side);
  sol.cut = h.cut_weight(sol.side);
  sol.valid = true;
  if (fm_polish) {
    BisectionSolution refined = ht::partition::fm_refine(h, sol.side);
    if (refined.cut < sol.cut) sol = std::move(refined);
  }
  out.solution = std::move(sol);
  return out;
}

}  // namespace

BisectionReport bisect_theorem1(const Hypergraph& h,
                                const Theorem1Options& options) {
  HT_CHECK(h.finalized());
  const VertexId n = h.num_vertices();
  HT_CHECK(n >= 2 && n % 2 == 0);

  const double nd = static_cast<double>(n);
  double alpha = options.alpha;
  if (alpha <= 0.0) alpha = std::sqrt(std::max(1.0, std::log2(nd + 1.0)));
  double k = options.k_override > 0.0 ? options.k_override
                                      : std::sqrt(alpha * nd);
  k = std::max(1.0, std::min(k, nd / 2.0));
  const auto k_cap = static_cast<std::int32_t>(std::ceil(k));

  // OPT guesses: geometric ladder across the plausible cut range.
  double min_w = kHuge, total_w = 0.0;
  for (ht::hypergraph::EdgeId e = 0; e < h.num_edges(); ++e) {
    const double w = h.edge_weight(e);
    total_w += w;
    if (w > 0.0) min_w = std::min(min_w, w);
  }
  if (h.num_edges() == 0 || total_w <= 0.0) {
    // No edges: any balanced partition is optimal.
    std::vector<bool> side(static_cast<std::size_t>(n), false);
    for (VertexId v = 0; v < n / 2; ++v) side[static_cast<std::size_t>(v)] =
        true;
    return finish(h, std::move(side), "theorem1", false);
  }
  std::vector<double> guesses;
  const std::int32_t g = std::max<std::int32_t>(options.guesses, 2);
  for (std::int32_t j = 0; j < g; ++j) {
    const double t = static_cast<double>(j) / static_cast<double>(g - 1);
    guesses.push_back(min_w * std::pow(total_w / min_w, t));
  }

  // Evaluate every OPT guess concurrently; each guess's randomness derives
  // from (options.seed, guess index) and the nested phase-1/profile
  // parallelism derives from per-piece indices, so the schedule never
  // affects the output. The pool's stealing waits make the nesting safe.
  struct GuessOutcome {
    BisectionReport report;
    bool feasible = false;
  };
  ht::obs::TraceSpan trace("theorem1.bisect");
  trace.arg("n", n);
  trace.arg("k_cap", k_cap);
  trace.arg("guesses", guesses.size());
  std::vector<GuessOutcome> outcomes(guesses.size());
  ht::parallel_for(guesses.size(), [&](std::size_t gi) {
    if (ht::run_stopped()) return;  // outcome stays infeasible
    ht::obs::TraceSpan guess_span("theorem1.guess");
    const double guess = guesses[static_cast<std::size_t>(gi)];
    const double threshold = alpha * guess / k;
    guess_span.arg("guess_index", gi);
    guess_span.arg("opt_guess", guess);
    guess_span.arg("threshold", threshold);
    const std::uint64_t peel_seed = ht::derive_seed(options.seed, 2 * gi);
    const std::uint64_t profile_seed =
        ht::derive_seed(options.seed, 2 * gi + 1);
    Phase1Result p1 = phase1_peel(h, threshold, peel_seed);
    guess_span.arg("phase1_pieces", p1.pieces.size());
    guess_span.arg("phase1_cut", p1.cut_weight);
    std::vector<PieceProfile> profiles(p1.pieces.size());
    ht::parallel_for(p1.pieces.size(), [&](std::size_t pi) {
      ht::Rng piece_rng = ht::derive_stream(profile_seed, pi);
      profiles[pi] = build_piece_profile(h, std::move(p1.pieces[pi]), k_cap,
                                         piece_rng);
    });
    double dp_estimate = 0.0;
    std::vector<bool> side = phase2_dp(h, profiles, &dp_estimate);
    guess_span.arg("feasible", side.empty() ? 0 : 1);
    if (side.empty()) return;  // infeasible under this guess's peeling
    guess_span.arg("dp_estimate", dp_estimate);
    BisectionReport candidate = finish(h, std::move(side), "theorem1",
                                       options.fm_polish && !ht::run_stopped());
    candidate.opt_guess = guess;
    candidate.phase1_pieces = static_cast<std::int32_t>(profiles.size());
    candidate.phase1_cut = p1.cut_weight;
    candidate.dp_estimate = dp_estimate;
    outcomes[gi] = GuessOutcome{std::move(candidate), true};
  });
  BisectionReport best;
  best.algorithm = "theorem1";
  for (auto& outcome : outcomes) {
    if (!outcome.feasible) continue;
    if (!best.solution.valid ||
        outcome.report.solution.cut < best.solution.cut) {
      best = std::move(outcome.report);
    }
  }
  ht::RunState* run = ht::current_run_state();
  if (!best.solution.valid && run != nullptr && run->stopped()) {
    // The stop hit before any guess finished. Graceful degradation: return
    // the trivial balanced partition (first half of the vertex order on
    // side 1) — always feasible, tagged below with the stop status.
    std::vector<bool> side(static_cast<std::size_t>(n), false);
    for (VertexId v = 0; v < n / 2; ++v)
      side[static_cast<std::size_t>(v)] = true;
    best = finish(h, std::move(side), "theorem1", false);
  }
  HT_CHECK_MSG(best.solution.valid,
               "theorem1: no OPT guess produced a feasible bisection");
  if (run != nullptr) best.status = run->status();
  return best;
}

BisectionReport bisect_small_edges(const Hypergraph& h,
                                   const SmallEdgeOptions& options) {
  HT_CHECK(h.finalized());
  HT_CHECK(h.num_vertices() % 2 == 0);
  ht::Rng rng(options.seed);
  // Lemma 1: solve Minimum Bisection on the clique expansion, evaluate in
  // H. The graph bisection black box is the decomposition-tree pipeline
  // ([17]-style) raced against multi-start FM; the better graph cut wins.
  const ht::graph::Graph expansion = ht::reduction::clique_expansion(h);
  Hypergraph wrapper(expansion.num_vertices());
  for (const auto& e : expansion.edges()) wrapper.add_edge({e.u, e.v}, e.weight);
  wrapper.finalize();
  BisectionSolution graph_sol =
      ht::partition::fm_bisection(wrapper, rng, kSmallEdgeFmStarts);
  if (expansion.num_edges() > 0) {
    BisectionSolution tree_sol =
        ht::partition::graph_bisection_tree_based(expansion, rng);
    if (tree_sol.valid && tree_sol.cut < graph_sol.cut)
      graph_sol = std::move(tree_sol);
  }
  BisectionReport out = finish(h, std::move(graph_sol.side),
                               "theorem2-small-edges", !ht::run_stopped());
  if (ht::RunState* run = ht::current_run_state()) out.status = run->status();
  return out;
}

BisectionReport bisect_large_edges(const Hypergraph& h,
                                   const Theorem1Options& options) {
  Theorem1Options opts = options;
  // Theorem 2: choose k = min hyperedge size for phase 1; phase 2's
  // unbalanced cuts then act on fewer minority vertices than any hyperedge
  // has pins, i.e. the MkU regime.
  std::int32_t min_size = h.num_vertices();
  for (ht::hypergraph::EdgeId e = 0; e < h.num_edges(); ++e)
    min_size = std::min(min_size, h.edge_size(e));
  opts.k_override = static_cast<double>(std::max(1, min_size));
  BisectionReport out = bisect_theorem1(h, opts);
  out.algorithm = "theorem2-large-edges";
  return out;
}

BisectionReport bisect_via_cut_tree(const Hypergraph& h,
                                    const CutTreeBisectionOptions& options) {
  HT_CHECK(h.finalized());
  const VertexId n = h.num_vertices();
  HT_CHECK(n >= 2 && n % 2 == 0);
  // Corollary 3: star expansion -> Section 3.1 vertex cut tree -> balanced
  // tree DP over the original vertices only.
  const auto star = ht::reduction::star_expansion(h);
  ht::cuttree::VertexCutTreeOptions tree_options;
  tree_options.seed = options.seed;
  tree_options.alpha = options.alpha;
  const auto tree_result =
      ht::cuttree::build_vertex_cut_tree(star.graph, tree_options);
  std::vector<ht::cuttree::VertexId> counted(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) counted[static_cast<std::size_t>(v)] = v;
  const auto tree_bisection =
      ht::cuttree::balanced_tree_bisection(tree_result.tree, counted);
  std::vector<bool> side(static_cast<std::size_t>(n), false);
  if (tree_bisection.valid) {
    for (std::size_t i = 0; i < counted.size(); ++i)
      side[static_cast<std::size_t>(counted[i])] = tree_bisection.side[i];
  } else {
    // Even a partial cut tree embeds every vertex, so the balanced DP is
    // only infeasible when the run stopped underneath it — degrade to the
    // trivial balanced partition instead of aborting.
    HT_CHECK_MSG(ht::run_stopped(), "cut-tree bisection DP infeasible");
    for (VertexId v = 0; v < n / 2; ++v)
      side[static_cast<std::size_t>(v)] = true;
  }
  BisectionReport out =
      finish(h, std::move(side), "corollary3-cut-tree",
             options.fm_polish && !ht::run_stopped());
  if (tree_bisection.valid) out.dp_estimate = tree_bisection.tree_cut;
  out.status = tree_result.status;
  if (ht::RunState* run = ht::current_run_state()) out.status = run->status();
  return out;
}

Phase1Diagnostics phase1_diagnostics(const Hypergraph& h, double opt,
                                     const std::vector<bool>& optimal_side,
                                     double alpha, double k,
                                     std::uint64_t seed) {
  HT_CHECK(h.finalized());
  const VertexId n = h.num_vertices();
  HT_CHECK(optimal_side.size() == static_cast<std::size_t>(n));
  const double nd = static_cast<double>(n);
  if (alpha <= 0.0) alpha = std::sqrt(std::max(1.0, std::log2(nd + 1.0)));
  if (k <= 0.0) k = std::max(1.0, std::sqrt(alpha * nd));
  const double threshold = alpha * std::max(opt, 1e-9) / k;
  const Phase1Result p1 = phase1_peel(h, threshold, seed);

  Phase1Diagnostics out;
  out.pieces = static_cast<std::int32_t>(p1.pieces.size());
  out.cut_weight = p1.cut_weight;
  for (const auto& piece : p1.pieces) {
    std::int64_t white = 0;
    for (VertexId v : piece)
      white += optimal_side[static_cast<std::size_t>(v)] ? 1 : 0;
    const auto size = static_cast<std::int64_t>(piece.size());
    out.minority_count += std::min(white, size - white);
  }
  out.lemma2_bound = alpha * nd * std::log2(nd + 1.0) * opt / k;
  out.lemma3_bound = k;
  return out;
}

BisectionReport bisect_fm_baseline(const Hypergraph& h, ht::Rng& rng,
                                   int starts) {
  BisectionSolution sol = ht::partition::fm_bisection(h, rng, starts);
  BisectionReport out;
  out.algorithm = "fm";
  out.solution = std::move(sol);
  return out;
}

BisectionReport bisect_random_baseline(const Hypergraph& h, ht::Rng& rng,
                                       int samples) {
  const VertexId n = h.num_vertices();
  HT_CHECK(n % 2 == 0);
  BisectionReport out;
  out.algorithm = "random";
  for (int s = 0; s < samples; ++s) {
    std::vector<VertexId> perm(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
    rng.shuffle(perm);
    std::vector<bool> side(static_cast<std::size_t>(n), false);
    for (VertexId i = 0; i < n / 2; ++i)
      side[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = true;
    const double cut = h.cut_weight(side);
    if (!out.solution.valid || cut < out.solution.cut) {
      out.solution.side = std::move(side);
      out.solution.cut = cut;
      out.solution.valid = true;
    }
  }
  return out;
}

}  // namespace ht::core
