// Lock-free monotone maximum over an atomic value.
//
// The metrics registry's gauges (Gauge::update_max, e.g. the pool's queue
// depth and the arena's peak bytes) and histograms (the exact max) share
// this single audited CAS-max loop.
#pragma once

#include <atomic>

namespace ht::obs {

/// Raises `target` to `value` if `value` is larger; no-op otherwise.
/// Wait-free for the common no-raise case (one relaxed load), lock-free
/// under contention. Returns the previous value.
template <typename T>
T atomic_fetch_max(std::atomic<T>& target, T value) {
  T current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
  return current;
}

}  // namespace ht::obs
