// The benchmark's instances.
//
// Every instance is fixed: random families are drawn from
// stream_seed(kStructureSeed, index, attempt), and a draw that is not
// connected is re-drawn with attempt + 1 (the documented re-draw rule), up
// to kMaxDraws attempts; running out of attempts is a failed operation.
// The workload seed drives the query streams and the checks' samples, not
// the instances: relabelling the vertices by the seed changed the builds'
// work and the served trees' shapes (one labelling in ten made a 14% worse
// bisection and 2.3x the peak RSS), so runs with different seeds measured
// the labelling as much as the machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.hpp"

namespace perfbench {

using ht::hypergraph::Hypergraph;

inline constexpr int kMaxDraws = 32;
inline constexpr std::uint64_t kStructureSeed = 2018;

struct Instance {
  std::string name;
  Hypergraph h;        // the ORIGINAL instance, ground truth for checks
  std::string hmetis;  // where setup wrote it
  bool prep_exact = false;
  double known_global_min_cut = 0.0;  // 0 = not known by construction
  int draws = 1;       // attempts the re-draw rule needed
};

std::uint64_t stream_seed(std::uint64_t seed, int index, int attempt);

/// `clusters` blocks of `size` vertices: per block one hyperedge over the
/// whole block, a lattice of 3-pin edges, and two 2-pin bridges to the
/// next block.
Hypergraph ring_of_clusters(int clusters, int size);

/// The in-memory build corpus: ring 300x10, random_uniform(400,1200,4),
/// planted_parts(8,80,3,320,80), netlist_like(600,1200,4), and the 8x
/// replicated netlist_like(240,480,4) built with exact prep.
std::vector<Instance> build_corpus();

/// The sharded-build inputs: ring 2000x10 (boundary-light) and
/// spmv_row_net(20000,20000,3,5e-5) (boundary-heavy).
std::vector<Instance> sharded_corpus();

/// The serving instance, random_uniform(400,1200,4).
Instance serve_instance();

}  // namespace perfbench
