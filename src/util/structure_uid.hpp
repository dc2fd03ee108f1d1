// Process-unique ids for finalized structures.
#pragma once

#include <atomic>
#include <cstdint>

namespace ht {

/// Process-unique id for a finalized structure (Graph / Hypergraph), the
/// key under which the flow engine caches its networks. Never returns 0 —
/// that value is reserved for "not finalized / uncacheable".
inline std::uint64_t next_structure_uid() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace ht
