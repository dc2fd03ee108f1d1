// Named metrics registry: counters, gauges and log2-bucket histograms.
//
// Instruments register a metric once (by name, at namespace scope or via a
// function-local static) and then update it through a plain reference —
// updates are relaxed atomics, never a lock or a map lookup on the hot
// path. The registry owns the metric objects for the process lifetime, so
// references stay valid forever; snapshot_json() renders every registered
// metric sorted by name, which benches embed in their BENCH_*.json output.
//
// Counters and histograms are striped: each keeps kStripes cache-line
// padded copies, a thread updates the copy picked by its dense
// thread_index(), and readers sum the copies. Threads updating one metric
// concurrently therefore write disjoint cache lines (until more than
// kStripes threads share it). The cost is memory — 1 KiB per counter and
// 9 KiB per histogram.
//
// Naming scheme: dot-separated "<subsystem>.<quantity>", e.g.
// "flow.builds", "pool.max_queue_depth", "arena.peak_bytes". Each count
// is registered once where its work happens, and readers (benches, tests,
// the exporter) look it up by that name.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/atomic_max.hpp"

namespace ht::obs {

/// Point-in-time copy of one histogram, with quantile estimation. count,
/// sum and max are exact; quantile(q) assumes values spread uniformly
/// within their log2 bucket (lower bound of the bucket at the bottom edge,
/// upper bound at the top), so the estimate is exact at bucket boundaries
/// and never leaves the containing bucket. The top occupied bucket is
/// clamped to the exact recorded max.
struct HistogramSnapshot {
  static constexpr int kBuckets = 65;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t buckets[kBuckets] = {};

  /// Value at cumulative fraction q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
};

/// Point-in-time copy of the whole registry, sorted by name (std::map).
/// The exporter (obs/export.hpp) renders this as Prometheus text or
/// versioned JSON.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

namespace detail {
std::uint32_t next_thread_index();
}  // namespace detail

/// Dense per-process index of the calling thread: 0, 1, 2, ... in order of
/// first use. Picks the metric stripes below, the serving layer's reader
/// counters, and is what flight records carry as their thread.
inline std::uint32_t thread_index() {
  thread_local const std::uint32_t index = detail::next_thread_index();
  return index;
}

/// Per-thread copies kept by every Counter and Histogram. Threads past the
/// kStripes-th share stripes (thread_index() % kStripes); that only costs
/// contention, never counts.
inline constexpr std::size_t kStripes = 16;
inline std::size_t thread_stripe() { return thread_index() % kStripes; }

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    stripes_[thread_stripe()].value.fetch_add(delta,
                                              std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() {
    for (Stripe& s : stripes_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };
  Stripe stripes_[kStripes];
};

/// Point-in-time signed value; supports set/add and monotone-max updates.
class Gauge {
 public:
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void update_max(std::int64_t value) { atomic_fetch_max(value_, value); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log2-bucket histogram over unsigned values: bucket b counts values with
/// bit_width b, i.e. bucket 0 is exactly {0} and bucket b >= 1 covers
/// [2^(b-1), 2^b - 1]. Also tracks sum and max exactly; the count is the
/// bucket total.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bit_width of a uint64 is 0..64

  void record(std::uint64_t value) {
    Stripe& s = stripes_[thread_stripe()];
    s.buckets[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
    atomic_fetch_max(s.max, value);
  }
  std::uint64_t count() const;
  std::uint64_t sum() const;
  std::uint64_t max() const;
  std::uint64_t bucket(int b) const;
  /// Inclusive upper bound of bucket b (0 for b == 0).
  static std::uint64_t bucket_upper_bound(int b) {
    if (b <= 0) return 0;
    if (b >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }
  /// Copies the live buckets out; count is the copied bucket total.
  /// Concurrent record() calls may land between reads, so sum and max can
  /// include a record the buckets missed (or the reverse) — each value is
  /// itself consistent.
  HistogramSnapshot snapshot() const;
  void reset();

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };
  Stripe stripes_[kStripes];
};

/// Process-wide name -> metric table. Registration (counter()/gauge()/
/// histogram()) takes a lock; the returned reference is update-path
/// lock-free and valid for the process lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Copies every registered metric out, sorted by name.
  RegistrySnapshot snapshot() const;

  /// One-line JSON object {"version":1,"counters":{...},"gauges":{...},
  /// "histograms":{...}} with names sorted and escaped; histogram buckets
  /// render as [upper_bound, count] pairs for the non-empty buckets only
  /// plus p50/p90/p99 quantile estimates. Equals
  /// export::registry_json(snapshot()); byte-comparable between runs with
  /// identical metric values.
  std::string snapshot_json() const;

  /// Zeroes every registered metric (registration survives). Benches and
  /// tests call this between measured sections.
  void reset_all();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace ht::obs
