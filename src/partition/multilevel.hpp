// Multilevel hypergraph bisection — the hMetis/KaHyPar-style heuristic the
// paper's introduction says practitioners actually run.
//
// Pipeline: (1) coarsen by repeated heavy-connectivity matching until the
// hypergraph is small; (2) solve the coarsest instance with multi-start FM
// (weight-aware balance); (3) uncoarsen, projecting the partition and
// running FM refinement at every level.
//
// This is the strongest baseline in the repository; benches compare the
// paper's theory pipelines against it.
#pragma once

#include <cstdint>

#include "hypergraph/hypergraph.hpp"
#include "partition/fm.hpp"
#include "util/rng.hpp"

namespace ht::partition {

/// Multilevel bisection. n must be even; balance is by vertex COUNT
/// (matching the paper's bisection definition), enforced exactly at the
/// finest level.
BisectionSolution multilevel_bisection(const ht::hypergraph::Hypergraph& h,
                                       ht::Rng& rng);

}  // namespace ht::partition
