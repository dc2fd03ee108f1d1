// google-benchmark timings of the library's computational kernels: flow
// primitives, Gomory–Hu, FM passes, spectral sweeps, tree construction and
// the balanced tree DP. These are the knobs that decide how far the
// experiment benches scale.
#include <benchmark/benchmark.h>

#include "core/bisection.hpp"
#include "cuttree/tree_bisection.hpp"
#include "cuttree/vertex_cut_tree.hpp"
#include "flow/cut_engine.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "lp/spectral.hpp"
#include "partition/fm.hpp"
#include "partition/sparsest_cut.hpp"
#include "reduction/star_expansion.hpp"
#include "util/rng.hpp"

namespace {

void BM_MinEdgeCut(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  ht::Rng rng(1);
  const auto g = ht::graph::gnp_connected(n, 6.0 / n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ht::CutEngine().min_edge_cut(g, {0}, {n - 1}).value);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MinEdgeCut)->Arg(64)->Arg(256)->Arg(1024)->Complexity();

void BM_MinVertexCut(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  ht::Rng rng(2);
  const auto g = ht::graph::gnp_connected(n, 6.0 / n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ht::CutEngine().min_vertex_cut(g, {0}, {n - 1}).value);
  }
}
BENCHMARK(BM_MinVertexCut)->Arg(64)->Arg(256)->Arg(1024);

void BM_MinHyperedgeCut(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  ht::Rng rng(3);
  const auto h = ht::hypergraph::random_uniform(n, 3 * n, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ht::CutEngine().min_hyperedge_cut(h, {0}, {n - 1}).value);
  }
}
BENCHMARK(BM_MinHyperedgeCut)->Arg(64)->Arg(256)->Arg(1024);

void BM_GomoryHu(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  ht::Rng rng(4);
  const auto g = ht::graph::gnp_connected(n, 6.0 / n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ht::CutEngine().gomory_hu(g).tree.parent.size());
  }
}
BENCHMARK(BM_GomoryHu)->Arg(32)->Arg(64)->Arg(128);

void BM_FmBisection(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  ht::Rng rng(5);
  const auto h = ht::hypergraph::random_uniform(n, 3 * n, 4, rng);
  for (auto _ : state) {
    ht::Rng inner(6);
    benchmark::DoNotOptimize(
        ht::partition::fm_bisection(h, inner, 2).cut);
  }
}
BENCHMARK(BM_FmBisection)->Arg(64)->Arg(256)->Arg(512)->Arg(2048)->Arg(4096);

void BM_Fiedler(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  ht::Rng rng(7);
  const auto g = ht::graph::gnp_connected(n, 6.0 / n, rng);
  for (auto _ : state) {
    ht::Rng inner(8);
    benchmark::DoNotOptimize(
        ht::lp::fiedler_vector(g, {}, inner).eigenvalue);
  }
}
BENCHMARK(BM_Fiedler)->Arg(64)->Arg(256)->Arg(1024);

void BM_SparsestCut(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  ht::Rng rng(9);
  const auto h = ht::hypergraph::random_uniform(n, 2 * n, 3, rng);
  for (auto _ : state) {
    ht::Rng inner(10);
    benchmark::DoNotOptimize(
        ht::partition::sparsest_hyperedge_cut(h, inner).sparsity);
  }
}
BENCHMARK(BM_SparsestCut)->Arg(32)->Arg(128)->Arg(512);

void BM_VertexCutTreeBuild(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  ht::Rng rng(11);
  const auto g = ht::graph::gnp_connected(n, 5.0 / n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ht::cuttree::build_vertex_cut_tree(g).num_pieces);
  }
}
BENCHMARK(BM_VertexCutTreeBuild)->Arg(32)->Arg(64)->Arg(128);

void BM_BalancedTreeDp(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  ht::Rng rng(12);
  const auto h = ht::hypergraph::random_uniform(n, 2 * n, 3, rng);
  const auto star = ht::reduction::star_expansion(h);
  const auto built = ht::cuttree::build_vertex_cut_tree(star.graph);
  std::vector<ht::cuttree::VertexId> counted;
  for (std::int32_t v = 0; v < n; ++v) counted.push_back(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ht::cuttree::balanced_tree_bisection(built.tree, counted).tree_cut);
  }
}
BENCHMARK(BM_BalancedTreeDp)->Arg(32)->Arg(64)->Arg(128);

void BM_Theorem1(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  ht::Rng rng(13);
  const auto h = ht::hypergraph::random_uniform(n, 2 * n, 3, rng);
  for (auto _ : state) {
    ht::core::Theorem1Options options;
    options.guesses = 6;
    benchmark::DoNotOptimize(
        ht::core::bisect_theorem1(h, options).solution.cut);
  }
}
BENCHMARK(BM_Theorem1)->Arg(32)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
