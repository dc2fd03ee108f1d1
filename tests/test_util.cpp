#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <latch>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/run_context.hpp"
#include "util/stats.hpp"
#include "util/subsets.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/wavefront.hpp"

namespace {

TEST(Check, ThrowsOnFailure) {
  EXPECT_THROW(HT_CHECK(1 == 2), std::logic_error);
  EXPECT_NO_THROW(HT_CHECK(1 == 1));
  EXPECT_THROW(HT_CHECK_MSG(false, "context " << 42), std::logic_error);
}

TEST(Rng, DeterministicAcrossInstances) {
  ht::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  ht::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowRespectsBound) {
  ht::Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextIntInclusiveRange) {
  ht::Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  ht::Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, SampleWithoutReplacementDistinctSorted) {
  ht::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::int32_t>(5 + rng.next_below(50));
    const auto k = static_cast<std::int32_t>(rng.next_below(
        static_cast<std::uint64_t>(n) + 1));
    const auto sample = rng.sample_without_replacement(n, k);
    ASSERT_EQ(static_cast<std::int32_t>(sample.size()), k);
    std::set<std::int32_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), sample.size());
    for (auto v : sample) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, n);
    }
    EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  }
}

TEST(Rng, SampleFullRange) {
  ht::Rng rng(13);
  const auto all = rng.sample_without_replacement(8, 8);
  ASSERT_EQ(all.size(), 8u);
  for (std::int32_t i = 0; i < 8; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
}

TEST(Rng, ShufflePreservesMultiset) {
  ht::Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitStreamsAreIndependentButDeterministic) {
  ht::Rng a(42);
  ht::Rng b(42);
  ht::Rng as = a.split();
  ht::Rng bs = b.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(as(), bs());
}

TEST(Stats, SummaryBasics) {
  const auto s = ht::summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, 1.2909944, 1e-6);
}

TEST(Stats, SummarySingleValue) {
  const auto s = ht::summarize({7.0});
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, QuantileInterpolation) {
  const std::vector<double> sorted{0.0, 10.0};
  EXPECT_DOUBLE_EQ(ht::quantile_sorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ht::quantile_sorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(ht::quantile_sorted(sorted, 1.0), 10.0);
}

TEST(Stats, GeometricMean) {
  EXPECT_NEAR(ht::geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(ht::geometric_mean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, LogLogSlopeRecoversExponent) {
  std::vector<double> x, y;
  for (double v : {8.0, 16.0, 32.0, 64.0, 128.0}) {
    x.push_back(v);
    y.push_back(3.0 * v * std::sqrt(v));  // exponent 1.5
  }
  EXPECT_NEAR(ht::log_log_slope(x, y), 1.5, 1e-9);
}

TEST(Stats, LogLogSlopeConstant) {
  std::vector<double> x{2, 4, 8}, y{5, 5, 5};
  EXPECT_NEAR(ht::log_log_slope(x, y), 0.0, 1e-9);
}

TEST(Table, AlignedAndCsvOutput) {
  ht::Table t({"name", "value"});
  t.add("alpha", 1.5);
  t.add("b", 42);
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "name,value\nalpha,1.5\nb,42\n");
  std::ostringstream md;
  t.print_markdown(md);
  EXPECT_NE(md.str().find("| alpha | 1.5 |"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  ht::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(Subsets, EnumeratesAllMasks) {
  int count = 0;
  ht::for_each_subset(4, [&](std::uint32_t) { ++count; });
  EXPECT_EQ(count, 16);
}

TEST(Subsets, CombinationsCountAndOrder) {
  std::vector<std::vector<int>> combos;
  ht::for_each_combination(5, 3,
                           [&](const std::vector<int>& c) { combos.push_back(c); });
  EXPECT_EQ(combos.size(), 10u);  // C(5,3)
  EXPECT_EQ(combos.front(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(combos.back(), (std::vector<int>{2, 3, 4}));
  for (const auto& c : combos) EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
}

TEST(Subsets, ZeroCombination) {
  int count = 0;
  ht::for_each_combination(4, 0, [&](const std::vector<int>& c) {
    EXPECT_TRUE(c.empty());
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(Subsets, MaskToVertices) {
  const auto v = ht::mask_to_vertices(0b1011u, 4);
  EXPECT_EQ(v, (std::vector<std::int32_t>{0, 1, 3}));
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(257);
  ht::parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmpty) {
  bool called = false;
  ht::parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  EXPECT_THROW(ht::parallel_for(64,
                                [&](std::size_t i) {
                                  if (i == 13) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPool, DeterministicAggregation) {
  // Values derived from the index only — any schedule gives the same sum.
  std::vector<double> out(1000);
  ht::parallel_for(out.size(), [&](std::size_t i) {
    ht::Rng rng(static_cast<std::uint64_t>(i));
    out[i] = rng.next_double();
  });
  std::vector<double> expected(1000);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ht::Rng rng(static_cast<std::uint64_t>(i));
    expected[i] = rng.next_double();
  }
  EXPECT_EQ(out, expected);
}

TEST(ThreadPool, SubmitReturnsFutureValue) {
  auto fut = ht::ThreadPool::global().submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture) {
  auto fut = ht::ThreadPool::global().submit(
      []() -> int { throw std::runtime_error("submit boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, NestedParallelForFromPoolWorkers) {
  // The outer iterations run on pool workers; each spawns an inner
  // parallel_for. With blocking waits this deadlocks on a small pool —
  // the stealing wait (help_until) makes it safe.
  std::atomic<int> total{0};
  ht::parallel_for(8, [&](std::size_t) {
    ht::parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, EnqueueExceptionRethrownAtWaitIdle) {
  auto& pool = ht::ThreadPool::global();
  pool.enqueue([] { throw std::runtime_error("enqueue boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error must not leak into the next cycle.
  pool.enqueue([] {});
  EXPECT_NO_THROW(pool.wait_idle());
}

TEST(ThreadPool, WaitIdleUnderConcurrentProducers) {
  // Producer tasks themselves enqueue more work (nested submission);
  // wait_idle must only return once the transitive closure is drained.
  auto& pool = ht::ThreadPool::global();
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 32;
  std::atomic<int> total{0};
  for (int p = 0; p < kProducers; ++p) {
    pool.enqueue([&pool, &total] {
      for (int i = 0; i < kPerProducer; ++i)
        pool.enqueue([&total] { total.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(total.load(), kProducers * kPerProducer);
}

TEST(ThreadPool, TryRunOneEmptyQueue) {
  auto& pool = ht::ThreadPool::global();
  pool.wait_idle();
  EXPECT_FALSE(pool.try_run_one());
}

TEST(ThreadPool, ConfiguredThreadsParsesEnv) {
  // HT_THREADS is parsed once per process (util/run_context.hpp), so the
  // value is fixed by whichever call came first; a later setenv must not
  // move it. RunContextEnv.ParseThreadCount covers the parse cases.
  const std::size_t threads = ht::ThreadPool::configured_threads();
  EXPECT_EQ(threads, ht::env_default_threads());
  EXPECT_GE(threads, 1u);
  const char* before = std::getenv("HT_THREADS");
  const std::string saved = before == nullptr ? "" : before;
  ::setenv("HT_THREADS", threads == 3 ? "2" : "3", 1);
  EXPECT_EQ(ht::ThreadPool::configured_threads(), threads);
  if (before == nullptr) {
    ::unsetenv("HT_THREADS");
  } else {
    ::setenv("HT_THREADS", saved.c_str(), 1);
  }
}

TEST(ThreadPool, ParallelForCallerRunsItsChunksBeforeQueuedWork) {
  // Both workers are parked and a foreign task waits at the front of the
  // queue: parallel_for must run its own chunks on the calling thread
  // and return without running the foreign task first.
  ht::ThreadPool::reset_global(2);
  auto& pool = ht::ThreadPool::global();
  std::latch parked(2), release(1);
  for (int w = 0; w < 2; ++w)
    pool.enqueue([&] {
      parked.count_down();
      release.wait();
    });
  parked.wait();
  std::atomic<bool> foreign_ran{false};
  pool.enqueue([&] { foreign_ran = true; });
  std::atomic<int> chunks_run{0};
  ht::parallel_for(2, [&](std::size_t) { chunks_run.fetch_add(1); });
  EXPECT_EQ(chunks_run.load(), 2);
  EXPECT_FALSE(foreign_ran.load()) << "foreign task ran first";
  release.count_down();
  pool.wait_idle();
  EXPECT_TRUE(foreign_ran.load());
  ht::ThreadPool::reset_global();
}

TEST(ThreadPool, ResetGlobalChangesSize) {
  ht::ThreadPool::reset_global(2);
  EXPECT_EQ(ht::ThreadPool::global().size(), 2u);
  ht::ThreadPool::reset_global();  // back to the configured default
  EXPECT_GE(ht::ThreadPool::global().size(), 1u);
}

TEST(Wavefront, DeriveSeedIsStableAndSpreads) {
  const std::uint64_t a = ht::derive_seed(12345, 0);
  EXPECT_EQ(a, ht::derive_seed(12345, 0));
  EXPECT_NE(a, ht::derive_seed(12345, 1));
  EXPECT_NE(a, ht::derive_seed(12346, 0));
}

TEST(Wavefront, ProcessesItemsInFifoOrderWithEmission) {
  // Each item i < 4 emits two children; fold order must match the serial
  // FIFO queue: 0,1,2,3 then the children in emission order.
  std::vector<int> folded;
  std::vector<std::int64_t> seeds_seen;
  ht::parallel_wavefront<int, std::int64_t>(
      std::vector<int>{0, 1, 2, 3}, /*seed=*/99,
      [](const int& item, ht::Rng& rng) {
        (void)rng;
        return static_cast<std::int64_t>(item);
      },
      [&](int item, std::int64_t result, auto&& emit) {
        folded.push_back(item);
        seeds_seen.push_back(result);
        if (item < 4) {
          emit(item * 10 + 4);
          emit(item * 10 + 5);
        }
      });
  const std::vector<int> expected{0, 1,  2,  3,  4,  5,  14, 15,
                                  24, 25, 34, 35};
  EXPECT_EQ(folded, expected);
}

TEST(Wavefront, RngStreamsDependOnGlobalIndexOnly) {
  // Run the same wavefront twice with different pool sizes; the map-phase
  // RNG draws must be identical because they derive from (seed, index).
  auto run = [] {
    std::vector<std::uint64_t> draws;
    ht::parallel_wavefront<int, std::uint64_t>(
        std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}, /*seed=*/7,
        [](const int&, ht::Rng& rng) { return rng.next_below(1u << 30); },
        [&](int, std::uint64_t result, auto&&) { draws.push_back(result); });
    return draws;
  };
  ht::ThreadPool::reset_global(1);
  const auto serial = run();
  ht::ThreadPool::reset_global(4);
  const auto parallel = run();
  ht::ThreadPool::reset_global();
  EXPECT_EQ(serial, parallel);
}

}  // namespace
