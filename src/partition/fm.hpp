// Fiduccia–Mattheyses bisection refinement for hypergraphs.
//
// This is the practitioner baseline the paper's novelty discussion points
// at (heuristic partitioners), and the refinement the other paths end in:
// the Theorem 1 and Corollary 3 polish, the Theorem 2 small-edge
// branch, the decomposition-tree graph bisection, k-way and multilevel.
// Exact balance (|V|/2 per side) with the usual one-vertex transient slack
// inside a pass.
//
// The move rule is part of the output contract: the largest gain moves,
// ties to the smallest vertex id. Gains are cached, recomputed only when an
// incident edge's pin counts cross a gain threshold, and moves come from
// one lazy max-heap per side; the results equal the O(n·deg) rescan in
// tests/reference_fm.hpp bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "util/rng.hpp"

namespace ht::partition {

struct BisectionSolution {
  std::vector<bool> side;  // true = side 1
  double cut = 0.0;
  bool valid = false;
};

/// One FM refinement run from the given balanced starting partition.
/// Returns a balanced partition with cut <= the starting cut.
BisectionSolution fm_refine(const ht::hypergraph::Hypergraph& h,
                            std::vector<bool> start, int max_passes = 16);

/// Multi-start FM: `starts` random balanced partitions, each refined;
/// best kept. Requires an even number of vertices.
BisectionSolution fm_bisection(const ht::hypergraph::Hypergraph& h,
                               ht::Rng& rng, int starts = 8,
                               int max_passes = 16);

/// Checks balance and recomputes the cut of a solution.
void validate_bisection(const ht::hypergraph::Hypergraph& h,
                        const BisectionSolution& s);

}  // namespace ht::partition
