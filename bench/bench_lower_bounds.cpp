// Experiments T1-LB-{hyp, w, unw}: Table 1's cut-tree quality lower bounds.
//
//   Theorem 7 (Figure 2)  : hypergraph cuts need quality Omega(sqrt(n))
//   Lemma 8  (Figure 3)   : weighted vertex cuts need quality Omega(sqrt(N))
//   Theorem 8 (blow-up)   : unweighted vertex cuts need quality Omega(N^{1/3})
//
// We cannot quantify over all trees; instead we build the *best* tree our
// Section 3.1 construction produces (plus simple alternatives) and evaluate
// the adversarial set families from the proofs. The measured ratio growing
// like the predicted root confirms the constructions behave as the paper
// argues.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "cuttree/quality.hpp"
#include "cuttree/vertex_cut_tree.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "reduction/star_expansion.hpp"
#include "util/rng.hpp"

namespace {

using ht::cuttree::Tree;
using ht::cuttree::VertexPair;

/// Adversarial family for Figure 2 / Figure 3: spread subsets of the u_i
/// of size ~sqrt(n) (every sqrt(n)-th u), plus random subsets of several
/// sizes. Pairs are (S, U \ S).
std::vector<VertexPair> spread_pairs(const std::vector<std::int32_t>& u,
                                     ht::Rng& rng) {
  const auto n = static_cast<std::int32_t>(u.size());
  const auto k = std::max<std::int32_t>(
      2, static_cast<std::int32_t>(std::floor(std::sqrt(n))));
  std::vector<VertexPair> pairs;
  {
    VertexPair p;
    for (std::int32_t i = 0; i < n; ++i)
      ((i % k == 0 && static_cast<std::int32_t>(p.first.size()) < k)
           ? p.first
           : p.second)
          .push_back(u[static_cast<std::size_t>(i)]);
    pairs.push_back(std::move(p));
  }
  for (std::int32_t size : {k / 2 + 1, k, 2 * k, n / 4}) {
    if (size < 1 || size >= n) continue;
    for (int rep = 0; rep < 4; ++rep) {
      auto pick = rng.sample_without_replacement(n, size);
      VertexPair p;
      std::vector<bool> chosen(static_cast<std::size_t>(n), false);
      for (auto idx : pick) chosen[static_cast<std::size_t>(idx)] = true;
      for (std::int32_t i = 0; i < n; ++i)
        (chosen[static_cast<std::size_t>(i)] ? p.first : p.second)
            .push_back(u[static_cast<std::size_t>(i)]);
      pairs.push_back(std::move(p));
    }
  }
  return pairs;
}

void figure2_rows() {
  ht::bench::print_header(
      "T1-LB-hypergraph: Figure 2 instance (Theorem 7)",
      "every vertex cut tree has quality Omega(sqrt(n)) for hypergraph cuts");
  ht::Table table({"n", "tree", "worst ratio", "sqrt(n)"});
  std::vector<double> xs, ys;
  for (std::int32_t n : {16, 36, 64, 121, 196}) {
    ht::Rng rng(100 + static_cast<std::uint64_t>(n));
    const auto fig = ht::hypergraph::figure2(n);
    const auto star = ht::reduction::star_expansion(fig.hypergraph);
    auto pairs = spread_pairs(fig.u, rng);
    double worst_over_trees = 1e300;
    std::string worst_name;
    // Section 3.1 tree at several thresholds: the *best* tree counts, since
    // the lower bound must defeat all of them.
    for (double threshold : {0.0, 0.05, 0.2, 0.4}) {
      ht::cuttree::VertexCutTreeOptions options;
      options.seed = 5 + static_cast<std::uint64_t>(n);
      if (threshold > 0.0) options.threshold_override = threshold;
      const auto built =
          ht::cuttree::build_vertex_cut_tree(star.graph, options);
      const auto q = ht::cuttree::hypergraph_cut_tree_quality(
          fig.hypergraph, built.tree, pairs);
      if (q.max_ratio < worst_over_trees) {
        worst_over_trees = q.max_ratio;
        worst_name = threshold == 0.0 ? "sec3.1(default)"
                                      : "sec3.1(t=" + std::to_string(threshold) +
                                            ")";
      }
    }
    table.add(n, worst_name, worst_over_trees,
              std::sqrt(static_cast<double>(n)));
    xs.push_back(n);
    ys.push_back(worst_over_trees);
  }
  ht::bench::print_table(table);
  ht::bench::print_shape("figure2-best-tree", xs, ys, ">= 0.5");
}

void figure3_rows() {
  ht::bench::print_header(
      "T1-LB-weighted: Figure 3 instance GH (Lemma 8)",
      "every vertex cut tree has quality Omega(sqrt(N)) for weighted vertex "
      "cuts");
  ht::Table table({"n", "N", "tree quality (best)", "sqrt(N)"});
  std::vector<double> xs, ys;
  for (std::int32_t n : {16, 36, 64, 121, 196}) {
    ht::Rng rng(200 + static_cast<std::uint64_t>(n));
    const auto fig = ht::graph::figure3_gh(n);
    const std::int32_t big_n = fig.graph.num_vertices();
    auto pairs = spread_pairs(fig.u, rng);
    double best_tree = 1e300;
    for (double threshold : {0.0, 0.05, 0.2, 0.4}) {
      ht::cuttree::VertexCutTreeOptions options;
      options.seed = 7 + static_cast<std::uint64_t>(n);
      if (threshold > 0.0) options.threshold_override = threshold;
      const auto built =
          ht::cuttree::build_vertex_cut_tree(fig.graph, options);
      const auto q =
          ht::cuttree::vertex_cut_tree_quality(fig.graph, built.tree, pairs);
      best_tree = std::min(best_tree, q.max_ratio);
    }
    table.add(n, big_n, best_tree, std::sqrt(static_cast<double>(big_n)));
    xs.push_back(big_n);
    ys.push_back(best_tree);
  }
  ht::bench::print_table(table);
  ht::bench::print_shape("figure3-best-tree", xs, ys, ">= 0.5");
}

void blowup_rows() {
  ht::bench::print_header(
      "T1-LB-unweighted: clique blow-up of GH (Theorem 8)",
      "every vertex cut tree has quality Omega(N^{1/3}) for unweighted "
      "vertex cuts");
  ht::Table table({"n", "N", "tree quality (best)", "N^{1/3}"});
  std::vector<double> xs, ys;
  for (std::int32_t n : {9, 16, 25, 36, 49}) {
    ht::Rng rng(300 + static_cast<std::uint64_t>(n));
    const auto blow = ht::graph::figure3_blowup(n);
    const std::int32_t big_n = blow.graph.num_vertices();
    // Adversarial family: choose ~2 sqrt(n) whole cliques spread apart (the
    // Lemma 9 construction) as A, rest of the core vertices as B.
    const auto s = static_cast<std::int32_t>(
        std::llround(std::sqrt(static_cast<double>(n))));
    std::vector<VertexPair> pairs;
    {
      VertexPair p;
      for (std::int32_t i = 0; i < n; ++i) {
        auto& side = (i % std::max(1, n / (2 * s)) == 0 &&
                      static_cast<std::int32_t>(p.first.size()) <
                          2 * s * s)
                         ? p.first
                         : p.second;
        for (auto v : blow.core[static_cast<std::size_t>(i)])
          side.push_back(v);
      }
      if (!p.first.empty() && !p.second.empty()) pairs.push_back(std::move(p));
    }
    for (int rep = 0; rep < 6; ++rep) {
      auto pick = rng.sample_without_replacement(n, std::max(2, 2 * s));
      std::vector<bool> chosen(static_cast<std::size_t>(n), false);
      for (auto idx : pick) chosen[static_cast<std::size_t>(idx)] = true;
      VertexPair p;
      for (std::int32_t i = 0; i < n; ++i)
        for (auto v : blow.core[static_cast<std::size_t>(i)])
          (chosen[static_cast<std::size_t>(i)] ? p.first : p.second)
              .push_back(v);
      pairs.push_back(std::move(p));
    }
    double best_tree = 1e300;
    for (double threshold : {0.0, 0.2}) {
      ht::cuttree::VertexCutTreeOptions options;
      options.seed = 9 + static_cast<std::uint64_t>(n);
      if (threshold > 0.0) options.threshold_override = threshold;
      const auto built =
          ht::cuttree::build_vertex_cut_tree(blow.graph, options);
      const auto q =
          ht::cuttree::vertex_cut_tree_quality(blow.graph, built.tree, pairs);
      best_tree = std::min(best_tree, q.max_ratio);
    }
    table.add(n, big_n, best_tree,
              std::pow(static_cast<double>(big_n), 1.0 / 3.0));
    xs.push_back(big_n);
    ys.push_back(best_tree);
  }
  ht::bench::print_table(table);
  ht::bench::print_shape("blowup-best-tree", xs, ys, ">= 1/3");
}

}  // namespace

int main() {
  figure2_rows();
  figure3_rows();
  blowup_rows();
  return 0;
}
