// Per-thread scratch arena for the zero-rebuild decomposition stack.
//
// Two services, both allocation-free on the steady path:
//
//  * Epoch-stamped remaps: SubsetView needs an old-id -> local-id map over
//    the parent universe at every recursion level. Allocating (or clearing)
//    an O(n) array per level turns the recursion quadratic in allocations;
//    the arena instead keeps one stamp array per thread and invalidates it
//    by bumping an epoch counter, so begin_remap() is O(1) amortized.
//
//  * A keyed object cache: flow engines (FlowNetwork) are expensive to
//    build and cheap to reset. acquire<T>() returns a cached instance for a
//    (kind, structure-uid) key, building it only on a miss. Hits, misses
//    and the peak bytes parked in one arena are the registry metrics
//    "arena.hits", "arena.misses" and "arena.peak_bytes", which is how the
//    benches measure the reuse rate.
//
// The arena is strictly thread-local (WorkArena::local()); no
// synchronization, and cached objects are never shared across threads.
// Callers must not hold a reference returned by acquire() across a thread
// pool wait: a task stolen onto this stack may acquire() too and evict the
// entry under the interrupted frame.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.hpp"

namespace ht {

/// Process-unique id for a finalized structure (Graph / Hypergraph), used
/// as the WorkArena cache key. Never returns 0 — that value is reserved
/// for "not finalized / uncacheable".
std::uint64_t next_structure_uid();

class WorkArena {
 public:
  /// The calling thread's arena (constructed on first use).
  static WorkArena& local();

  // --- epoch-stamped remap -------------------------------------------------

  /// Borrowed handle into the arena's remap buffers. Valid until the next
  /// begin_remap() on the same thread (enforced by HT_DCHECK).
  class Remap {
   public:
    void set(std::int32_t old_id, std::int32_t local_id) {
      HT_DCHECK(live());
      arena_->remap_stamp_[static_cast<std::size_t>(old_id)] = epoch_;
      arena_->remap_value_[static_cast<std::size_t>(old_id)] = local_id;
    }
    /// -1 when old_id was not set in this epoch.
    std::int32_t get(std::int32_t old_id) const {
      HT_DCHECK(live());
      return arena_->remap_stamp_[static_cast<std::size_t>(old_id)] == epoch_
                 ? arena_->remap_value_[static_cast<std::size_t>(old_id)]
                 : -1;
    }
    bool live() const { return arena_ != nullptr && arena_->epoch_ == epoch_; }

   private:
    friend class WorkArena;
    WorkArena* arena_ = nullptr;
    std::uint32_t epoch_ = 0;
  };

  /// Starts a fresh remap over ids [0, universe). Invalidates the previous
  /// Remap handle of this thread; O(universe) only when the buffer grows
  /// or the 32-bit epoch wraps.
  Remap begin_remap(std::int32_t universe);

  // --- keyed object cache --------------------------------------------------

  /// Returns the cached T for (kind, uid), building it with `build` (a
  /// callable returning T) on a miss. T must expose memory_bytes(). A small
  /// LRU keeps at most kCacheCapacity entries; uid 0 is reserved for
  /// "uncacheable" and must not be passed here.
  template <typename T, typename Build>
  T& acquire(std::uint32_t kind, std::uint64_t uid, Build&& build) {
    if (HolderBase* hit = find(kind, uid))
      return static_cast<Holder<T>*>(hit)->value;
    if (cache_.size() >= kCacheCapacity) evict_oldest();
    auto owned = std::make_unique<Holder<T>>(build());
    T& ref = owned->value;
    cache_.push_back(Entry{kind, uid, ++use_clock_, ref.memory_bytes(),
                           std::move(owned)});
    note_bytes();
    return ref;
  }

  /// Drops every cached object (tests and benches use this to compare cold
  /// and warm runs). Remap buffers are kept.
  void clear_cache();

  static constexpr std::size_t kCacheCapacity = 4;

 private:
  struct HolderBase {
    virtual ~HolderBase() = default;
  };
  template <typename T>
  struct Holder final : HolderBase {
    explicit Holder(T&& v) : value(std::move(v)) {}
    T value;
  };
  struct Entry {
    std::uint32_t kind = 0;
    std::uint64_t uid = 0;
    std::uint64_t last_use = 0;
    std::size_t bytes = 0;
    std::unique_ptr<HolderBase> object;
  };

  /// The cached object for (kind, uid), marked most recently used, or
  /// nullptr; counts the lookup as an arena hit or miss.
  HolderBase* find(std::uint32_t kind, std::uint64_t uid);
  void evict_oldest();
  /// Bytes currently parked in this arena's object cache.
  std::size_t cached_bytes() const;
  void note_bytes();

  std::vector<std::uint32_t> remap_stamp_;
  std::vector<std::int32_t> remap_value_;
  std::uint32_t epoch_ = 0;
  std::vector<Entry> cache_;
  std::uint64_t use_clock_ = 0;
};

}  // namespace ht
