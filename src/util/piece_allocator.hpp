// Bump/pool allocator for per-piece scratch memory.
//
// The decomposition engines allocate short-lived O(n) scratch on every
// piece they process, such as min-cut terminal marks. Allocating those
// with operator new puts a malloc/free pair on every piece and scatters
// the piece's working set across the heap; this allocator instead carves
// them out of a small set of thread-local chunks so one piece's scratch
// is contiguous and is released in O(1) by rewinding a mark.
//
// Usage is strictly scoped and LIFO:
//
//   auto& pool = WorkArena::local().pieces();
//   {
//     PieceAllocator::Scope scope(pool);
//     std::span<std::int32_t> level = scope.alloc_fill<std::int32_t>(n, -1);
//     std::span<char> side = scope.alloc_zero<char>(n);
//     ...                       // use freely; spans die with the scope
//   }                           // O(1): the pool rewinds to the mark
//
// Scopes nest (inner scopes must close before outer ones — enforced by
// HT_DCHECK), which matches the recursion structure of the tree builders.
// Only trivially-destructible element types are allowed: rewinding runs no
// destructors. Blocks grow geometrically and are kept for the thread's
// lifetime, so steady-state pieces allocate nothing; the
// "flow.pool_reuse" counter tracks scopes served entirely from retained
// blocks and the "flow.arena_bytes" gauge tracks the peak bytes reserved
// by any one thread's pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace ht {

class PieceAllocator {
 public:
  PieceAllocator() = default;
  PieceAllocator(const PieceAllocator&) = delete;
  PieceAllocator& operator=(const PieceAllocator&) = delete;

  /// RAII allocation scope: remembers the pool position at construction
  /// and rewinds to it on destruction. All allocation goes through the
  /// innermost live scope.
  class Scope {
   public:
    explicit Scope(PieceAllocator& pool)
        : pool_(&pool),
          mark_block_(pool.block_index_),
          mark_offset_(pool.offset_),
          mark_growths_(pool.growths_),
          depth_(++pool.depth_) {}

    ~Scope() {
      HT_DCHECK(pool_->depth_ == depth_);  // LIFO discipline
      --pool_->depth_;
      pool_->rewind(mark_block_, mark_offset_);
      // A scope that allocated without forcing any block growth ran
      // entirely out of retained memory — the steady-state fast path.
      if (allocated_ && pool_->growths_ == mark_growths_)
        pool_->note_reuse();
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Uninitialized storage for `count` elements of T.
    template <typename T>
    std::span<T> alloc(std::size_t count) {
      static_assert(std::is_trivially_destructible_v<T>,
                    "PieceAllocator rewind runs no destructors");
      static_assert(std::is_trivially_copyable_v<T>,
                    "PieceAllocator hands out raw storage");
      HT_DCHECK(pool_->depth_ == depth_);  // allocate via innermost scope
      allocated_ = true;
      void* p = pool_->allocate(count * sizeof(T), alignof(T));
      return {static_cast<T*>(p), count};
    }

    /// Zero-initialized storage for `count` elements of T.
    template <typename T>
    std::span<T> alloc_zero(std::size_t count) {
      auto s = alloc<T>(count);
      std::memset(static_cast<void*>(s.data()), 0, count * sizeof(T));
      return s;
    }

    /// Storage for `count` elements of T, each set to `value`.
    template <typename T>
    std::span<T> alloc_fill(std::size_t count, T value) {
      auto s = alloc<T>(count);
      for (auto& x : s) x = value;
      return s;
    }

   private:
    PieceAllocator* pool_;
    std::size_t mark_block_;
    std::size_t mark_offset_;
    std::uint64_t mark_growths_;
    std::uint32_t depth_;
    bool allocated_ = false;
  };

  /// Total bytes reserved across all blocks (retained for the thread's
  /// lifetime; the "flow.arena_bytes" gauge reports the process max).
  std::size_t bytes_reserved() const { return bytes_reserved_; }

  /// Bytes currently handed out to live scopes.
  std::size_t bytes_live() const;

  /// Number of blocks ever grown (monotone; 0 until first allocation).
  std::uint64_t growths() const { return growths_; }

 private:
  friend class Scope;

  static constexpr std::size_t kFirstBlockBytes = std::size_t{64} << 10;

  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* allocate(std::size_t bytes, std::size_t align);
  void rewind(std::size_t block, std::size_t offset);
  void grow(std::size_t min_bytes);
  void note_reuse();

  std::vector<Block> blocks_;
  std::size_t block_index_ = 0;  // block the bump pointer lives in
  std::size_t offset_ = 0;       // bump offset within blocks_[block_index_]
  std::size_t bytes_reserved_ = 0;
  std::uint64_t growths_ = 0;
  std::uint32_t depth_ = 0;
};

}  // namespace ht
