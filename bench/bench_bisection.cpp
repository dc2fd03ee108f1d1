// Experiments THM1 + COR3 + BASE: Minimum Hypergraph Bisection quality.
//
// Part 1 (ratio-to-OPT): on small random hypergraphs where the exact
// optimum is computable, chart the approximation ratio of Theorem 1's
// algorithm, the Corollary 3 cut-tree path, and baselines. Theorem 1
// promises O(sqrt(n) log^{5/4} n); measured ratios should sit far below
// that curve and grow slowly.
//
// Part 2 (planted recovery): on larger planted instances (OPT <= planted
// cross edges), measure cut / planted for every algorithm.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/bisection.hpp"
#include "hypergraph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/exact.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

/// Distribution of the theorem-1 approximation ratio over many seeds, per
/// instance size — the statistical version of the ratio table (32 seeds
/// per n, evaluated in parallel; deterministic per seed).
void ratio_distribution() {
  ht::bench::print_header(
      "THM1 ratio distribution, NO FM polish (32 seeds per size)",
      "the bare two-phase algorithm's ratio, far below O(sqrt(n) "
      "log^{5/4} n)");
  ht::Table table({"n", "mean", "sd", "median", "p90", "max", "bound"});
  for (std::int32_t n : {10, 12, 14, 16}) {
    const std::size_t seeds = 32;
    std::vector<double> ratios(seeds, 1.0);
    ht::parallel_for(seeds, [&](std::size_t s) {
      ht::Rng rng(static_cast<std::uint64_t>(n) * 1000 + s);
      const auto h = ht::hypergraph::random_uniform(n, 2 * n, 3, rng);
      const auto exact = ht::partition::exact_hypergraph_bisection(h);
      ht::core::Theorem1Options options;
      options.seed = s;
      options.guesses = 8;
      options.fm_polish = false;  // the bare paper algorithm
      const auto report = ht::core::bisect_theorem1(h, options);
      ratios[s] = exact.cut > 0 ? report.solution.cut / exact.cut : 1.0;
    });
    const auto summary = ht::summarize(ratios);
    const double bound = std::sqrt(static_cast<double>(n)) *
                         std::pow(std::log2(static_cast<double>(n)), 1.25);
    table.add(n, summary.mean, summary.stddev, summary.median, summary.p90,
              summary.max, bound);
  }
  ht::bench::print_table(table);
}

void ratio_to_exact() {
  ht::bench::print_header(
      "THM1/COR3 vs exact OPT (small instances)",
      "Theorem 1: O(sqrt(n) log^{5/4} n); measured ratio should be <<");
  ht::Table table({"n", "m", "r", "OPT", "thm1", "cor3", "fm", "random",
                   "thm1/OPT", "bound"});
  std::vector<double> xs, ys;
  for (std::int32_t n : {8, 12, 16, 20}) {
    double ratio_sum = 0.0;
    int ratio_count = 0;
    double opt_v = 0, t1_v = 0, c3_v = 0, fm_v = 0, rnd_v = 0;
    const std::int32_t m = 2 * n;
    for (int trial = 0; trial < 3; ++trial) {
      ht::Rng rng(static_cast<std::uint64_t>(n * 100 + trial));
      const auto h = ht::hypergraph::random_uniform(n, m, 3, rng);
      const auto exact = ht::partition::exact_hypergraph_bisection(h);
      ht::core::Theorem1Options t1_options;
      t1_options.seed = static_cast<std::uint64_t>(trial);
      const auto t1 = ht::core::bisect_theorem1(h, t1_options);
      ht::core::CutTreeBisectionOptions c3_options;
      c3_options.seed = static_cast<std::uint64_t>(trial);
      const auto c3 = ht::core::bisect_via_cut_tree(h, c3_options);
      ht::Rng brng(static_cast<std::uint64_t>(trial) + 77);
      const auto fm = ht::core::bisect_fm_baseline(h, brng);
      const auto rnd = ht::core::bisect_random_baseline(h, brng);
      opt_v += exact.cut;
      t1_v += t1.solution.cut;
      c3_v += c3.solution.cut;
      fm_v += fm.solution.cut;
      rnd_v += rnd.solution.cut;
      if (exact.cut > 0) {
        ratio_sum += t1.solution.cut / exact.cut;
        ++ratio_count;
      }
    }
    const double mean_ratio =
        ratio_count > 0 ? ratio_sum / ratio_count : 1.0;
    const double bound = std::sqrt(static_cast<double>(n)) *
                         std::pow(std::log2(static_cast<double>(n)), 1.25);
    table.add(n, m, 3, opt_v / 3, t1_v / 3, c3_v / 3, fm_v / 3, rnd_v / 3,
              mean_ratio, bound);
    xs.push_back(n);
    ys.push_back(std::max(mean_ratio, 1.0));
  }
  ht::bench::print_table(table);
  ht::bench::print_shape("thm1-ratio", xs, ys, "<= 0.5 (+polylog)");
}

void planted_recovery() {
  ht::bench::print_header(
      "THM1/COR3 planted recovery (larger instances)",
      "planted cross cut upper-bounds OPT; ratios near 1 mean recovery");
  ht::Table table({"n", "planted", "thm1", "cor3", "small-edge", "fm",
                   "random", "thm1 time(s)"});
  for (std::int32_t half : {16, 32, 64}) {
    ht::Rng rng(900 + static_cast<std::uint64_t>(half));
    const std::int32_t cross = std::max(2, half / 8);
    const auto h = ht::hypergraph::planted_bisection(
        half, 3, 4 * half, cross, rng);
    ht::Timer timer;
    const auto t1 = ht::core::bisect_theorem1(h);
    const double t1_time = timer.seconds();
    const auto c3 = ht::core::bisect_via_cut_tree(h);
    const auto small = ht::core::bisect_small_edges(h);
    ht::Rng brng(half);
    const auto fm = ht::core::bisect_fm_baseline(h, brng);
    const auto rnd = ht::core::bisect_random_baseline(h, brng);
    table.add(2 * half, cross, t1.solution.cut, c3.solution.cut,
              small.solution.cut, fm.solution.cut, rnd.solution.cut,
              t1_time);
  }
  ht::bench::print_table(table);
}

void engine_counters() {
  // What the parallel engine actually did on the largest planted
  // instance, plus a 1-thread / N-thread agreement check on its output.
  ht::bench::print_header(
      "PAR-engine: theorem-1 work profile and thread-count invariance",
      "same bisection at every thread count; pieces counts the pieces "
      "the sparsest-cut decomposition mapped");
  ht::Rng rng(900 + 64);
  const auto h = ht::hypergraph::planted_bisection(64, 3, 4 * 64,
                                                   std::max(2, 64 / 8), rng);
  ht::Table table({"threads", "time(s)", "cut", "pieces"});
  std::string first_side;
  bool identical = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    ht::ThreadPool::reset_global(threads);
    auto& metrics = ht::obs::MetricsRegistry::global();
    metrics.reset_all();
    ht::Timer timer;
    const auto report = ht::core::bisect_theorem1(h);
    const double elapsed = timer.seconds();
    std::string side(report.solution.side.size(), '0');
    for (std::size_t i = 0; i < side.size(); ++i)
      if (report.solution.side[i]) side[i] = '1';
    if (first_side.empty())
      first_side = side;
    else
      identical = identical && side == first_side;
    table.add(static_cast<std::int64_t>(ht::ThreadPool::global().size()),
              elapsed, report.solution.cut,
              static_cast<std::int64_t>(
                  metrics.counter("engine.pieces").value()));
  }
  ht::bench::print_table(table);
  std::cout << "identical bisection across thread counts: "
            << (identical ? "yes" : "NO") << "\n";
  std::cout << "metrics: " << ht::obs::MetricsRegistry::global().snapshot_json()
            << "\n";
  ht::ThreadPool::reset_global();
}

}  // namespace

int main() {
  if (ht::obs::tracing_enabled()) {
    std::cout << "tracing: enabled via HT_TRACE; Chrome trace-event JSON "
                 "written at exit (open in ui.perfetto.dev)\n";
  }
  ratio_to_exact();
  ratio_distribution();
  planted_recovery();
  engine_counters();
  return 0;
}
