// Thread-count invariance of the parallel decomposition engine.
//
// Every parallel code path derives its randomness from (seed, work-item
// index) and applies results in serial item order, so running with 1
// thread and with 4 threads must produce byte-identical outputs. These
// tests pin that contract for each routed subsystem; CI additionally runs
// them under HT_THREADS=1 and HT_THREADS=4.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/bisection.hpp"
#include "cuttree/decomposition_tree.hpp"
#include "cuttree/tree.hpp"
#include "cuttree/vertex_cut_tree.hpp"
#include "flow/flow_network.hpp"
#include "flow/cut_engine.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "partition/kway.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

// Runs `build` under a 1-thread pool and a 4-thread pool and returns both
// results; restores the configured default pool afterwards.
template <typename Build>
auto one_vs_four(Build&& build) {
  ht::ThreadPool::reset_global(1);
  auto serial = build();
  ht::ThreadPool::reset_global(4);
  auto parallel = build();
  ht::ThreadPool::reset_global();
  return std::make_pair(std::move(serial), std::move(parallel));
}

TEST(Determinism, DecompositionTreeAcrossThreadCounts) {
  ht::Rng rng(4242);
  const auto g = ht::graph::gnp_connected(80, 5.0 / 80, rng);
  auto [serial, parallel] = one_vs_four(
      [&g] { return ht::cuttree::build_decomposition_tree_run(g).tree; });
  EXPECT_EQ(ht::cuttree::tree_signature(serial),
            ht::cuttree::tree_signature(parallel));
}

TEST(Determinism, Theorem1BisectionAcrossThreadCounts) {
  ht::Rng rng(777);
  const auto h = ht::hypergraph::random_uniform(40, 80, 3, rng);
  auto [serial, parallel] =
      one_vs_four([&h] { return ht::core::bisect_theorem1(h); });
  EXPECT_EQ(serial.solution.side, parallel.solution.side);
  EXPECT_DOUBLE_EQ(serial.solution.cut, parallel.solution.cut);
  EXPECT_DOUBLE_EQ(serial.opt_guess, parallel.opt_guess);
  EXPECT_EQ(serial.phase1_pieces, parallel.phase1_pieces);
  EXPECT_DOUBLE_EQ(serial.phase1_cut, parallel.phase1_cut);
  EXPECT_DOUBLE_EQ(serial.dp_estimate, parallel.dp_estimate);
}

TEST(Determinism, GomoryHuAcrossThreadCounts) {
  // Gusfield's loop is serial, so the tree cannot depend on the pool
  // size; this pins that nothing else in the build does either.
  ht::Rng rng(1313);
  const auto g = ht::graph::gnp_connected(60, 6.0 / 60, rng);
  auto [serial, parallel] =
      one_vs_four([&g] { return ht::CutEngine().gomory_hu(g).tree; });
  EXPECT_EQ(serial.parent, parallel.parent);
  EXPECT_EQ(serial.parent_cut, parallel.parent_cut);
}

TEST(Determinism, HypergraphGomoryHuAcrossThreadCounts) {
  ht::Rng rng(99);
  const auto h = ht::hypergraph::random_uniform(36, 70, 3, rng);
  auto [serial, parallel] =
      one_vs_four([&h] { return ht::CutEngine().gomory_hu(h).tree; });
  EXPECT_EQ(serial.parent, parallel.parent);
  EXPECT_EQ(serial.parent_cut, parallel.parent_cut);
}

TEST(Determinism, VertexCutTreeViewPathAcrossThreadCounts) {
  // Deep-recursion configuration: every wave cuts its pieces out as
  // induced copies and runs their vertex-cut flows on worker threads
  // (thread-local network caches), so this pins the piece path at every
  // level, not just the top-level split.
  ht::Rng rng(2024);
  const auto g = ht::graph::gnp_connected(60, 5.0 / 60, rng);
  ht::cuttree::VertexCutTreeOptions opt;
  opt.threshold_override = 0.75;
  auto [serial, parallel] = one_vs_four(
      [&] { return ht::cuttree::build_vertex_cut_tree(g, opt); });
  EXPECT_EQ(ht::cuttree::tree_signature(serial.tree),
            ht::cuttree::tree_signature(parallel.tree));
  EXPECT_DOUBLE_EQ(serial.separator_weight, parallel.separator_weight);
  EXPECT_EQ(serial.num_pieces, parallel.num_pieces);
}

TEST(Determinism, GomoryHuIndependentOfFlowReuse) {
  // The engine cache is a per-thread performance detail: turning it off
  // (fresh FlowNetwork per query, the pre-refactor behaviour) must not
  // move a byte, under either thread count.
  ht::Rng rng(1313);
  const auto g = ht::graph::gnp_connected(60, 6.0 / 60, rng);
  auto [serial, parallel] = one_vs_four([&g] {
    ht::flow::FlowReuseScope off(false);
    return ht::CutEngine().gomory_hu(g).tree;
  });
  const auto reused = ht::CutEngine().gomory_hu(g).tree;
  EXPECT_EQ(serial.parent, parallel.parent);
  EXPECT_EQ(serial.parent_cut, parallel.parent_cut);
  EXPECT_EQ(serial.parent, reused.parent);
  EXPECT_EQ(serial.parent_cut, reused.parent_cut);
}

TEST(Determinism, KWayRecursiveBisectionAcrossRuns) {
  // kway cuts an induced copy at every recursion level; same seed, same
  // part.
  ht::Rng rng(31);
  const auto h = ht::hypergraph::random_uniform(32, 64, 3, rng);
  ht::Rng r1(5), r2(5);
  const auto a = ht::partition::kway_recursive_bisection(h, 4, r1);
  const auto b = ht::partition::kway_recursive_bisection(h, 4, r2);
  EXPECT_EQ(a.part, b.part);
  EXPECT_DOUBLE_EQ(a.cut, b.cut);
}

}  // namespace
