#include "util/work_arena.hpp"

#include <algorithm>
#include <atomic>

#include "obs/metrics.hpp"

namespace ht {

std::uint64_t next_structure_uid() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

WorkArena& WorkArena::local() {
  thread_local WorkArena arena;
  return arena;
}

WorkArena::Remap WorkArena::begin_remap(std::int32_t universe) {
  HT_CHECK(universe >= 0);
  const auto n = static_cast<std::size_t>(universe);
  if (remap_stamp_.size() < n) {
    remap_stamp_.resize(n, 0);
    remap_value_.resize(n, -1);
    note_bytes();
  }
  if (++epoch_ == 0) {
    // 32-bit epoch wrapped: stale stamps could alias, so wipe once.
    std::fill(remap_stamp_.begin(), remap_stamp_.end(), 0);
    epoch_ = 1;
  }
  Remap remap;
  remap.arena_ = this;
  remap.epoch_ = epoch_;
  return remap;
}

void WorkArena::clear_cache() { cache_.clear(); }

WorkArena::HolderBase* WorkArena::find(std::uint32_t kind,
                                       std::uint64_t uid) {
  static obs::Counter& hits =
      obs::MetricsRegistry::global().counter("arena.hits");
  static obs::Counter& misses =
      obs::MetricsRegistry::global().counter("arena.misses");
  HT_CHECK(uid != 0);
  for (auto& entry : cache_) {
    if (entry.kind == kind && entry.uid == uid) {
      entry.last_use = ++use_clock_;
      hits.add();
      return entry.object.get();
    }
  }
  misses.add();
  return nullptr;
}

std::size_t WorkArena::cached_bytes() const {
  std::size_t total = 0;
  for (const auto& entry : cache_) total += entry.bytes;
  return total;
}

void WorkArena::evict_oldest() {
  auto oldest = cache_.begin();
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->last_use < oldest->last_use) oldest = it;
  }
  cache_.erase(oldest);
}

void WorkArena::note_bytes() {
  // The largest footprint (cache plus remap buffers) seen on one thread.
  static obs::Gauge& peak =
      obs::MetricsRegistry::global().gauge("arena.peak_bytes");
  peak.update_max(static_cast<std::int64_t>(
      cached_bytes() + remap_stamp_.size() * sizeof(std::uint32_t) +
      remap_value_.size() * sizeof(std::int32_t)));
}

}  // namespace ht
