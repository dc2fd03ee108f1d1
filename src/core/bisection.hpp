// Minimum Hypergraph Bisection — the paper's primary contribution.
//
//  * bisect_theorem1: the two-phase ~O(sqrt(n)) algorithm of Theorem 1
//    (OPT guessing; phase 1 = recursive sparsest-cut peeling with stopping
//    sparsity alpha*OPT/k; phase 2 = per-piece unbalanced-k-cut profiles
//    combined by a dynamic program; k = sqrt(alpha*n)).
//  * bisect_small_edges: Theorem 2's small-hyperedge branch — Lemma 1
//    clique expansion + graph bisection, paying hmax/2 distortion.
//  * bisect_large_edges: Theorem 2's large-hyperedge branch — Theorem 1
//    with k = min hyperedge size, so phase 2 degenerates toward MkU.
//  * bisect_via_cut_tree: Corollary 3 — star expansion, Section 3.1 vertex
//    cut tree, balanced tree DP.
//
// Every path re-evaluates its final partition with the exact combinatorial
// delta_H, so reported cuts are true costs regardless of internal
// approximations.
#pragma once

#include <cstdint>
#include <string>

#include "hypergraph/hypergraph.hpp"
#include "partition/fm.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace ht::core {

struct BisectionReport {
  ht::partition::BisectionSolution solution;
  std::string algorithm;
  // Diagnostics (Theorem 1 path).
  double opt_guess = 0.0;       // the OPT guess that won
  std::int32_t phase1_pieces = 0;
  double phase1_cut = 0.0;      // hyperedge weight cut while peeling
  double dp_estimate = 0.0;     // internal DP objective (upper-bound bookkeeping)
  /// Ok on a full run. Under an early stop (deadline/cancel/budget from
  /// the ambient RunContext) the solvers still return a *feasible*
  /// balanced partition — degraded quality, never an invalid one — tagged
  /// with the stop status.
  Status status;
};

struct Theorem1Options {
  /// Assumed sparsest-cut oracle quality; <= 0 means sqrt(log2 n).
  double alpha = 0.0;
  /// Overrides k = sqrt(alpha * n) when > 0 (Theorem 2's large-edge branch
  /// passes the minimum hyperedge size here).
  double k_override = 0.0;
  /// Number of geometric OPT guesses.
  std::int32_t guesses = 10;
  std::uint64_t seed = 0x5eedULL;
  /// Refine the winning partition with one FM pass (on by default; the
  /// ablation bench turns it off to isolate the paper's algorithm).
  bool fm_polish = true;
};

BisectionReport bisect_theorem1(const ht::hypergraph::Hypergraph& h,
                                const Theorem1Options& options = {});

struct SmallEdgeOptions {
  std::uint64_t seed = 0x5eedULL;
};
BisectionReport bisect_small_edges(const ht::hypergraph::Hypergraph& h,
                                   const SmallEdgeOptions& options = {});

BisectionReport bisect_large_edges(const ht::hypergraph::Hypergraph& h,
                                   const Theorem1Options& options = {});

struct CutTreeBisectionOptions {
  std::uint64_t seed = 0x5eedULL;
  /// Forwarded to the Section 3.1 builder.
  double alpha = 0.0;
  bool fm_polish = true;
};
BisectionReport bisect_via_cut_tree(const ht::hypergraph::Hypergraph& h,
                                    const CutTreeBisectionOptions& options = {});

/// Diagnostics for Lemma 2 / Lemma 3 of the paper: run phase 1 at the
/// threshold alpha*opt/k against a KNOWN optimal coloring (e.g. the
/// planted bisection) and report the quantities the two lemmas bound.
struct Phase1Diagnostics {
  std::int32_t pieces = 0;
  double cut_weight = 0.0;       // Lemma 2: <= alpha * n * log(n) * opt / k
  std::int64_t minority_count = 0;  // Lemma 3: < k
  double lemma2_bound = 0.0;
  double lemma3_bound = 0.0;     // k
};
Phase1Diagnostics phase1_diagnostics(const ht::hypergraph::Hypergraph& h,
                                     double opt,
                                     const std::vector<bool>& optimal_side,
                                     double alpha = 0.0, double k = 0.0,
                                     std::uint64_t seed = 0x5eedULL);

/// Baselines for the benches: multi-start FM and a uniformly random
/// balanced partition (averaged over `samples`).
BisectionReport bisect_fm_baseline(const ht::hypergraph::Hypergraph& h,
                                   ht::Rng& rng, int starts = 8);
BisectionReport bisect_random_baseline(const ht::hypergraph::Hypergraph& h,
                                       ht::Rng& rng, int samples = 16);

}  // namespace ht::core
