#include "obs/metrics.hpp"

#include <algorithm>

#include "obs/export.hpp"

namespace ht::obs {

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) q = 0.0;
  if (q >= 1.0) return static_cast<double>(max);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = buckets[b];
    if (n == 0) continue;
    const double cum_end = static_cast<double>(cumulative + n);
    if (target <= cum_end) {
      if (b == 0) return 0.0;  // bucket 0 holds only the value 0
      const double lo = static_cast<double>(std::uint64_t{1} << (b - 1));
      double hi = static_cast<double>(Histogram::bucket_upper_bound(b));
      // The bucket holding the largest sample can't extend past it.
      if (static_cast<double>(max) < hi && static_cast<double>(max) >= lo)
        hi = static_cast<double>(max);
      const double frac =
          (target - static_cast<double>(cumulative)) / static_cast<double>(n);
      return lo + frac * (hi - lo);
    }
    cumulative += n;
  }
  return static_cast<double>(max);
}

std::uint32_t detail::next_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) total += bucket(b);
  return total;
}

std::uint64_t Histogram::sum() const {
  std::uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::max() const {
  std::uint64_t best = 0;
  for (const Stripe& s : stripes_) {
    best = std::max(best, s.max.load(std::memory_order_relaxed));
  }
  return best;
}

std::uint64_t Histogram::bucket(int b) const {
  std::uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    total += s.buckets[b].load(std::memory_order_relaxed);
  }
  return total;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  for (int b = 0; b < kBuckets; ++b) {
    s.buckets[b] = bucket(b);
    s.count += s.buckets[b];
  }
  s.sum = sum();
  s.max = max();
  return s;
}

void Histogram::reset() {
  for (Stripe& s : stripes_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::global() {
  // Never destroyed: the global pool's threads outlive static destruction
  // and may still be updating metrics at exit.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::scoped_lock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::scoped_lock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::scoped_lock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  std::scoped_lock lock(mutex_);
  RegistrySnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) s.histograms[name] = h->snapshot();
  return s;
}

std::string MetricsRegistry::snapshot_json() const {
  return registry_json(snapshot());
}

void MetricsRegistry::reset_all() {
  std::scoped_lock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace ht::obs
