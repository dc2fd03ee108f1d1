// Experiment T1-UB-{unw, w, hyp}: Table 1's cut-tree quality upper bounds.
//
//   unweighted vertex cuts : quality O(sqrt(n)      * log^{3/4} n)
//   weighted vertex cuts   : quality O(sqrt(n wavg) * log^{3/4} n)
//   hypergraph cuts        : quality O(sqrt(n davg) * log^{3/4} n)
//
// For each family we sweep n, build the Section 3.1 vertex cut tree, and
// measure the worst gamma_T / gamma_G (resp. gamma_T / delta_H via the
// Lemma 7 star expansion) over singleton + random set pairs. The measured
// quality should stay below the bound and grow no faster than ~sqrt(n).
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "cuttree/quality.hpp"
#include "cuttree/tree.hpp"
#include "cuttree/vertex_cut_tree.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "obs/metrics.hpp"
#include "reduction/star_expansion.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using ht::cuttree::VertexPair;

std::vector<VertexPair> evaluation_pairs(std::int32_t n, ht::Rng& rng) {
  // Mix of singleton pairs (sampled) and random set pairs.
  std::vector<VertexPair> pairs;
  const auto singles = std::min<std::int32_t>(n * (n - 1) / 2, 40);
  for (std::int32_t i = 0; i < singles; ++i) {
    auto pick = rng.sample_without_replacement(n, 2);
    pairs.push_back({{pick[0]}, {pick[1]}});
  }
  auto sets = ht::cuttree::random_set_pairs(n, 40, std::max(2, n / 8), rng);
  pairs.insert(pairs.end(), sets.begin(), sets.end());
  return pairs;
}

void unweighted_rows() {
  ht::bench::print_header(
      "T1-UB-unweighted: vertex cut tree quality, unit weights",
      "quality = O(sqrt(n) log^{3/4} n)   [Theorem 5, W = n]");
  ht::Table table({"family", "n", "pieces", "w(S)", "quality(max)",
                   "quality(mean)", "dominating", "bound"});
  std::vector<double> xs, ys;
  for (std::int32_t n : {24, 48, 96, 192, 288}) {
    ht::Rng rng(1000 + static_cast<std::uint64_t>(n));
    const auto g = ht::graph::gnp_connected(n, 4.0 / n, rng);
    const auto built = ht::cuttree::build_vertex_cut_tree(g);
    auto pairs = evaluation_pairs(n, rng);
    const auto q = ht::cuttree::vertex_cut_tree_quality(g, built.tree, pairs);
    const double logn = std::log2(static_cast<double>(n));
    const double bound =
        std::sqrt(static_cast<double>(n)) * std::pow(logn, 0.75);
    table.add("gnp", n, built.num_pieces, built.separator_weight, q.max_ratio,
              q.mean_ratio, q.dominating ? "yes" : "NO", bound);
    xs.push_back(n);
    ys.push_back(q.max_ratio);
  }
  for (std::int32_t side : {5, 8, 12, 16}) {
    const std::int32_t n = side * side;
    ht::Rng rng(2000 + static_cast<std::uint64_t>(n));
    const auto g = ht::graph::grid(side, side);
    const auto built = ht::cuttree::build_vertex_cut_tree(g);
    auto pairs = evaluation_pairs(n, rng);
    const auto q = ht::cuttree::vertex_cut_tree_quality(g, built.tree, pairs);
    const double logn = std::log2(static_cast<double>(n));
    const double bound =
        std::sqrt(static_cast<double>(n)) * std::pow(logn, 0.75);
    table.add("grid", n, built.num_pieces, built.separator_weight,
              q.max_ratio, q.mean_ratio, q.dominating ? "yes" : "NO", bound);
  }
  ht::bench::print_table(table);
  ht::bench::print_shape("unweighted-gnp", xs, ys, "<= 0.5 (+polylog)");
}

void weighted_rows() {
  ht::bench::print_header(
      "T1-UB-weighted: vertex cut tree quality, weighted vertices",
      "quality = O(sqrt(n * wavg) log^{3/4} n)   [Theorem 5, W = n*wavg]");
  ht::Table table(
      {"family", "n", "W", "quality(max)", "dominating", "bound"});
  std::vector<double> xs, ys;
  for (std::int32_t n : {24, 48, 96, 192}) {
    ht::Rng rng(3000 + static_cast<std::uint64_t>(n));
    auto g = ht::graph::gnp_connected(n, 4.0 / n, rng);
    // Heavy-tailed weights: a few heavy hubs, as in the GH instance.
    for (std::int32_t v = 0; v < n; ++v)
      g.set_vertex_weight(
          v, rng.next_bool(0.1) ? std::sqrt(static_cast<double>(n)) : 1.0);
    const auto built = ht::cuttree::build_vertex_cut_tree(g);
    auto pairs = evaluation_pairs(n, rng);
    const auto q = ht::cuttree::vertex_cut_tree_quality(g, built.tree, pairs);
    const double W = g.total_vertex_weight();
    const double bound =
        std::sqrt(W) * std::pow(std::log2(static_cast<double>(n)), 0.75);
    table.add("gnp+hubs", n, W, q.max_ratio, q.dominating ? "yes" : "NO",
              bound);
    xs.push_back(n);
    ys.push_back(q.max_ratio);
  }
  ht::bench::print_table(table);
  ht::bench::print_shape("weighted-gnp", xs, ys, "<= 0.5 in W (+polylog)");
}

void hypergraph_rows() {
  ht::bench::print_header(
      "T1-UB-hypergraph: cut tree for hypergraph cuts (via star expansion)",
      "quality = O(sqrt(n * davg) log^{3/4} n)   [Corollary of Thm 5 + "
      "Lemma 7]");
  ht::Table table({"n", "m", "davg", "quality(max)", "quality(mean)",
                   "dominating", "bound"});
  std::vector<double> xs, ys;
  for (std::int32_t n : {16, 32, 64, 128}) {
    ht::Rng rng(4000 + static_cast<std::uint64_t>(n));
    const auto h = ht::hypergraph::random_uniform(n, 2 * n, 3, rng);
    const auto star = ht::reduction::star_expansion(h);
    const auto built = ht::cuttree::build_vertex_cut_tree(star.graph);
    auto pairs = evaluation_pairs(n, rng);
    const auto q =
        ht::cuttree::hypergraph_cut_tree_quality(h, built.tree, pairs);
    const double davg = h.avg_degree();
    const double bound = std::sqrt(static_cast<double>(n) * davg) *
                         std::pow(std::log2(static_cast<double>(n)), 0.75);
    table.add(n, h.num_edges(), davg, q.max_ratio, q.mean_ratio,
              q.dominating ? "yes" : "NO", bound);
    xs.push_back(n);
    ys.push_back(q.max_ratio);
  }
  ht::bench::print_table(table);
  ht::bench::print_shape("hypergraph", xs, ys, "<= 0.5 in n*davg (+polylog)");
}

void parallel_scaling_rows() {
  // Parallel decomposition engine: build + quality-evaluate the largest
  // unweighted instance (gnp n=288) with a 1-thread pool and with the
  // configured pool, and check the determinism contract (byte-identical
  // trees) along the way. On a multi-core machine the speedup column
  // should approach the core count; on 1 core it hovers around 1.0.
  ht::bench::print_header(
      "PAR-scaling: decomposition engine, 1 thread vs configured pool",
      "byte-identical trees at every thread count; wall time scales down");
  constexpr std::int32_t n = 288;
  auto run = [] {
    ht::Rng rng(1000 + static_cast<std::uint64_t>(n));
    const auto g = ht::graph::gnp_connected(n, 4.0 / n, rng);
    const auto built = ht::cuttree::build_vertex_cut_tree(g);
    auto pairs = evaluation_pairs(n, rng);
    const auto q = ht::cuttree::vertex_cut_tree_quality(g, built.tree, pairs);
    return std::make_pair(ht::cuttree::tree_signature(built.tree),
                          q.max_ratio);
  };

  ht::Table table({"threads", "build+quality (s)", "speedup", "quality(max)"});
  ht::obs::MetricsRegistry::global().reset_all();
  ht::ThreadPool::reset_global(1);
  ht::Timer t1;
  const auto serial = run();
  const double serial_s = t1.seconds();
  table.add(1, serial_s, 1.0, serial.second);

  ht::obs::MetricsRegistry::global().reset_all();
  ht::ThreadPool::reset_global();  // HT_THREADS env or hardware concurrency
  const auto threads = ht::ThreadPool::global().size();
  ht::Timer tn;
  const auto parallel = run();
  const double parallel_s = tn.seconds();
  table.add(static_cast<std::int64_t>(threads), parallel_s,
            serial_s / parallel_s, parallel.second);
  ht::bench::print_table(table);
  std::cout << "deterministic across thread counts: "
            << (serial.first == parallel.first ? "yes" : "NO") << "\n";
  std::cout << "metrics: " << ht::obs::MetricsRegistry::global().snapshot_json()
            << "\n";
}

}  // namespace

int main() {
  unweighted_rows();
  weighted_rows();
  hypergraph_rows();
  parallel_scaling_rows();
  return 0;
}
