// Tests of FM refinement (partition/fm.hpp): its contract (exact balance,
// monotone improvement, a recomputed cut), move-for-move identity with the
// O(n·deg) reference scan in reference_fm.hpp, and goldens for every paper
// path that ends in FM.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/bisection.hpp"
#include "hypergraph/generators.hpp"
#include "partition/exact.hpp"
#include "partition/fm.hpp"
#include "partition/graph_bisection.hpp"
#include "partition/kway.hpp"
#include "partition/multilevel.hpp"
#include "reduction/clique_expansion.hpp"
#include "reference_fm.hpp"
#include "util/hash64.hpp"
#include "util/rng.hpp"

namespace {

using ht::hypergraph::Hypergraph;
using ht::hypergraph::VertexId;

// ---------- contract ----------

TEST(Fm, RefineKeepsBalanceAndImproves) {
  ht::Rng rng(11);
  const Hypergraph h = ht::hypergraph::planted_bisection(10, 3, 30, 2, rng);
  std::vector<bool> start(20, false);
  for (VertexId v = 0; v < 10; ++v) start[static_cast<std::size_t>(2 * v)] =
      true;  // interleaved = bad start
  const double start_cut = h.cut_weight(start);
  const auto refined = ht::partition::fm_refine(h, start);
  ht::partition::validate_bisection(h, refined);
  EXPECT_LE(refined.cut, start_cut);
}

TEST(Fm, RecoversPlantedBisection) {
  ht::Rng rng(13);
  const Hypergraph h = ht::hypergraph::planted_bisection(12, 3, 60, 2, rng);
  const auto sol = ht::partition::fm_bisection(h, rng, 8);
  ht::partition::validate_bisection(h, sol);
  EXPECT_LE(sol.cut, 2.0 + 1e-9);
}

TEST(Fm, MatchesExactOnSmallInstances) {
  ht::Rng rng(17);
  int optimal_hits = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Hypergraph h = ht::hypergraph::random_uniform(10, 16, 3, rng);
    const auto exact = ht::partition::exact_hypergraph_bisection(h);
    const auto fm = ht::partition::fm_bisection(h, rng, 12);
    EXPECT_GE(fm.cut, exact.cut - 1e-9);
    if (fm.cut <= exact.cut + 1e-9) ++optimal_hits;
  }
  EXPECT_GE(optimal_hits, 4) << "FM should usually find the optimum at n=10";
}

TEST(Fm, RejectsUnbalancedStart) {
  Hypergraph h(4);
  h.add_edge({0, 1});
  h.finalize();
  EXPECT_THROW(
      ht::partition::fm_refine(h, {true, true, true, false}),
      std::logic_error);
}

TEST(Fm, ValidatorCatchesCorruptedSolution) {
  Hypergraph h(4);
  h.add_edge({0, 1});
  h.finalize();
  ht::partition::BisectionSolution bad;
  bad.valid = true;
  bad.side = {true, true, false, false};
  bad.cut = 12345.0;
  EXPECT_THROW(ht::partition::validate_bisection(h, bad), std::logic_error);
}

TEST(FmFast, RefineKeepsBalanceAndNeverWorsens) {
  ht::Rng rng(1);
  const Hypergraph h = ht::hypergraph::planted_bisection(12, 3, 50, 2, rng);
  std::vector<bool> start(24, false);
  for (VertexId v = 0; v < 12; ++v)
    start[static_cast<std::size_t>(2 * v)] = true;
  const double start_cut = h.cut_weight(start);
  const auto refined = ht::partition::fm_refine(h, start);
  ht::partition::validate_bisection(h, refined);
  EXPECT_LE(refined.cut, start_cut);
}

TEST(FmFast, RecoversPlantedBisection) {
  ht::Rng rng(2);
  const Hypergraph h = ht::hypergraph::planted_bisection(16, 3, 80, 2, rng);
  const auto sol = ht::partition::fm_bisection(h, rng, 8);
  ht::partition::validate_bisection(h, sol);
  EXPECT_LE(sol.cut, 2.0 + 1e-9);
}

TEST(FmFast, MatchesExactOftenOnSmall) {
  ht::Rng rng(9);
  int hits = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Hypergraph h = ht::hypergraph::random_uniform(10, 16, 3, rng);
    const auto exact = ht::partition::exact_hypergraph_bisection(h);
    const auto sol = ht::partition::fm_bisection(h, rng, 12);
    EXPECT_GE(sol.cut, exact.cut - 1e-9);
    if (sol.cut <= exact.cut + 1e-9) ++hits;
  }
  EXPECT_GE(hits, 4);
}

TEST(FmFast, WeightedEdgesRespected) {
  // Heavy edge must not be cut when a cheap alternative exists.
  Hypergraph h(4);
  h.add_edge({0, 1}, 100.0);
  h.add_edge({2, 3}, 100.0);
  h.add_edge({1, 2}, 1.0);
  h.finalize();
  const auto sol = ht::partition::fm_refine(
      h, {true, false, true, false});  // bad start cuts both heavies
  ht::partition::validate_bisection(h, sol);
  EXPECT_DOUBLE_EQ(sol.cut, 1.0);
}

// ---------- identity with the reference scan ----------

using ht::hypergraph::EdgeId;

/// `h` reweighted to 0.1 * (1 + e mod 17): no weight is a dyadic rational,
/// so cut sums depend on the order they are accumulated in.
Hypergraph non_dyadic(const Hypergraph& h) {
  Hypergraph out(h.num_vertices());
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    const auto pins = h.pins(e);
    out.add_edge({pins.begin(), pins.end()}, 0.1 * (1 + e % 17));
  }
  out.finalize();
  return out;
}

std::vector<bool> random_balanced(VertexId n, ht::Rng& rng) {
  std::vector<VertexId> perm(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
  rng.shuffle(perm);
  std::vector<bool> side(static_cast<std::size_t>(n), false);
  for (VertexId i = 0; i < n / 2; ++i)
    side[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = true;
  return side;
}

/// Refines `start` with both implementations and requires the same side
/// vector and the same cut bits.
void expect_matches_reference(const Hypergraph& h,
                              const std::vector<bool>& start, int passes) {
  const auto ref = ht::partition::reference::fm_refine(h, start, passes);
  const auto sol = ht::partition::fm_refine(h, start, passes);
  ht::partition::validate_bisection(h, sol);
  EXPECT_LE(sol.cut, h.cut_weight(start) + 1e-9);
  EXPECT_EQ(sol.side, ref.side);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sol.cut),
            std::bit_cast<std::uint64_t>(ref.cut))
      << sol.cut << " vs " << ref.cut;
}

class FmCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FmCrossCheck, FastMatchesReferenceQuality) {
  // 250 refinements per seed over five families (r = 2, 3, 4, planted,
  // netlist-like), each with unit weights (many gain ties) and non-dyadic
  // weights, n from 16 to 64 and 1, 8 or 16 passes.
  ht::Rng rng(GetParam());
  constexpr VertexId kSizes[] = {16, 24, 32, 40, 64};
  constexpr int kPasses[] = {16, 8, 1};
  for (int trial = 0; trial < 250; ++trial) {
    const VertexId n = kSizes[(trial / 10) % 5];
    Hypergraph h;
    switch (trial % 5) {
      case 0:
        h = ht::hypergraph::random_uniform(n, 2 * n, 2, rng);
        break;
      case 1:
        h = ht::hypergraph::random_uniform(n, 3 * n, 3, rng);
        break;
      case 2:
        h = ht::hypergraph::random_uniform(n, 3 * n, 4, rng);
        break;
      case 3:
        h = ht::hypergraph::planted_bisection(n / 2, 3, 2 * n, n / 8, rng);
        break;
      default:
        h = ht::hypergraph::netlist_like(n, 2 * n, 2, rng);
        break;
    }
    if ((trial / 5) % 2 == 1) h = non_dyadic(h);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " n " << n);
    expect_matches_reference(h, random_balanced(n, rng),
                             kPasses[trial % 3]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmCrossCheck,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(FmCrossCheck, MatchesReferenceOnLargerInstances) {
  // Deeper heaps and longer passes than the sweep above.
  ht::Rng rng(10);
  const Hypergraph uniform = ht::hypergraph::random_uniform(512, 1536, 4, rng);
  expect_matches_reference(uniform, random_balanced(512, rng), 16);
  const Hypergraph netlist =
      non_dyadic(ht::hypergraph::netlist_like(384, 768, 6, rng));
  expect_matches_reference(netlist, random_balanced(384, rng), 16);
}

// ---------- FM call-path goldens ----------
//
// Every paper path that ends in FM (Theorem 1 and Corollary 3 polish, the
// Theorem 2 branches, the FM baseline and the decomposition-tree graph
// bisection), pinned by its cut and a hash of its side vector. The
// instances have gain ties (unit weights) and non-dyadic weights, where a
// different summation order or move tie-break changes the bits.

constexpr int kGoldenInstances = 3;

Hypergraph golden_instance(int i) {
  ht::Rng rng(static_cast<std::uint64_t>(101 + i));
  switch (i) {
    case 0:
      return ht::hypergraph::random_uniform(24, 60, 3, rng);
    case 1:
      return non_dyadic(ht::hypergraph::planted_bisection(14, 3, 40, 4, rng));
    default:
      return non_dyadic(ht::hypergraph::netlist_like(32, 64, 2, rng));
  }
}

struct Golden {
  double cut;
  std::uint64_t side_hash;
};

void expect_golden(const ht::partition::BisectionSolution& s, const Golden& g,
                   int instance) {
  const std::vector<std::uint8_t> bytes(s.side.begin(), s.side.end());
  const std::uint64_t hash = ht::hash64(bytes.data(), bytes.size());
  EXPECT_TRUE(s.valid) << "instance " << instance;
  EXPECT_EQ(s.cut, g.cut) << "instance " << instance;
  EXPECT_EQ(hash, g.side_hash) << "instance " << instance;
}

TEST(FmPathGoldens, Theorem1Polish) {
  const Golden golden[kGoldenInstances] = {
      {30, 0xd88bc5010ede4943ULL},
      {5.8000000000000007, 0x22cf032b227f8846ULL},
      {21.100000000000001, 0x38d8812b94d8e9b1ULL}};
  for (int i = 0; i < kGoldenInstances; ++i)
    expect_golden(ht::core::bisect_theorem1(golden_instance(i)).solution,
                  golden[i], i);
}

TEST(FmPathGoldens, CutTreePolish) {
  const Golden golden[kGoldenInstances] = {
      {31, 0xe57425a36ad1e394ULL},
      {5.8000000000000007, 0xd47de262e74f5ff6ULL},
      {22.100000000000001, 0x817c6f411091abdfULL}};
  for (int i = 0; i < kGoldenInstances; ++i)
    expect_golden(ht::core::bisect_via_cut_tree(golden_instance(i)).solution,
                  golden[i], i);
}

TEST(FmPathGoldens, SmallEdgeBranch) {
  const Golden golden[kGoldenInstances] = {
      {30, 0x335b9d395d065355ULL},
      {5.8000000000000007, 0x22cf032b227f8846ULL},
      {21.100000000000001, 0x7f80cb2f85dcca4fULL}};
  for (int i = 0; i < kGoldenInstances; ++i)
    expect_golden(ht::core::bisect_small_edges(golden_instance(i)).solution,
                  golden[i], i);
}

TEST(FmPathGoldens, LargeEdgeBranch) {
  const Golden golden[kGoldenInstances] = {
      {30, 0x40c655732acc749bULL},
      {5.8000000000000007, 0x22cf032b227f8846ULL},
      {21.199999999999999, 0xc06ad61d8a21a4d9ULL}};
  for (int i = 0; i < kGoldenInstances; ++i)
    expect_golden(ht::core::bisect_large_edges(golden_instance(i)).solution,
                  golden[i], i);
}

TEST(FmPathGoldens, FmBaseline) {
  const Golden golden[kGoldenInstances] = {
      {30, 0xe54486079dd36331ULL},
      {5.8000000000000007, 0x22cf032b227f8846ULL},
      {21.100000000000001, 0x7f80cb2f85dcca4fULL}};
  for (int i = 0; i < kGoldenInstances; ++i) {
    ht::Rng rng(7);
    expect_golden(
        ht::core::bisect_fm_baseline(golden_instance(i), rng).solution,
        golden[i], i);
  }
}

TEST(FmPathGoldens, GraphBisectionTreeBasedPolish) {
  const Golden golden[kGoldenInstances] = {
      {30, 0x335b9d395d065355ULL},
      {5.7999999999999998, 0xd47de262e74f5ff6ULL},
      {24.286666666666633, 0x17b4915683df7a84ULL}};
  for (int i = 0; i < kGoldenInstances; ++i) {
    ht::Rng rng(8);
    expect_golden(ht::partition::graph_bisection_tree_based(
                      ht::reduction::clique_expansion(golden_instance(i)),
                      rng, /*fm_polish=*/true),
                  golden[i], i);
  }
}

// k-way recursive bisection and multilevel bisection end in the same FM
// as the paper paths; pinned the same way.
TEST(FmPathGoldens, KwayRecursiveBisection) {
  struct KwayGolden {
    double cut;
    double connectivity;
    std::uint64_t part_hash;
  };
  const KwayGolden golden[kGoldenInstances] = {
      {44, 58, 0x96b939487323cee8ULL},
      {49.399999999999999, 49.399999999999999, 0xb3704e08df50fa53ULL},
      {35.399999999999999, 39.600000000000009, 0x0ea21f6c76298b9cULL}};
  for (int i = 0; i < kGoldenInstances; ++i) {
    ht::Rng rng(9);
    const auto sol =
        ht::partition::kway_recursive_bisection(golden_instance(i), 4, rng);
    EXPECT_EQ(sol.cut, golden[i].cut) << "instance " << i;
    EXPECT_EQ(sol.connectivity, golden[i].connectivity) << "instance " << i;
    const std::size_t bytes = sol.part.size() * sizeof(sol.part[0]);
    EXPECT_EQ(ht::hash64(sol.part.data(), bytes), golden[i].part_hash)
        << "instance " << i;
  }
}

TEST(FmPathGoldens, Multilevel) {
  const Golden golden[kGoldenInstances] = {
      {31, 0x84a7c04464f5cea7ULL},
      {5.8000000000000007, 0xd47de262e74f5ff6ULL},
      {23.199999999999999, 0x74cbf8a88d181b61ULL}};
  for (int i = 0; i < kGoldenInstances; ++i) {
    ht::Rng rng(10);
    expect_golden(ht::partition::multilevel_bisection(golden_instance(i), rng),
                  golden[i], i);
  }
}

}  // namespace
