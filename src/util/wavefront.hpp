// Deterministic parallel wavefront engine for recursive decompositions.
//
// The paper's constructions share one shape: a FIFO queue of independent
// pieces where processing a piece either finalizes it or splits it into
// child pieces (vertex cut tree peeling, Theorem 1 phase-1 sparsest-cut
// peeling, decomposition-tree clustering). parallel_wavefront runs that
// queue in BFS waves over the global thread pool.
//
// Determinism contract: every item is assigned a global index in enqueue
// (FIFO) order, and its RNG stream is derived from (seed, index) alone —
// never from the executing thread or the thread count. The expensive map()
// step runs concurrently; the fold() step runs serially in item order and
// is the only place allowed to touch shared output state or emit children.
// 1-thread and N-thread runs therefore produce byte-identical results.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/run_context.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace ht {

/// Seed for work item `index` of a run seeded with `seed`; depends only on
/// (seed, index).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  return splitmix64(state);
}

/// Independent RNG stream for work item `index` of a run seeded with
/// `seed`.
inline Rng derive_stream(std::uint64_t seed, std::uint64_t index) {
  return Rng(derive_seed(seed, index));
}

/// Processes `roots` and all items emitted by fold() until the queue
/// drains, or until the ambient RunContext (if any) stops the run.
///
///   map(const Item&, Rng&) -> Result      concurrent, pure per item
///   fold(Item&&, Result&&, emit)          serial, in item-index order;
///                                         emit(Item&&) enqueues a child
///   drain(Item&&)                         serial; called once for every
///                                         item still queued when the run
///                                         stops early, in a deterministic
///                                         order (unfolded items of the
///                                         current wave by index, then
///                                         already-emitted children in
///                                         emission order)
///
/// Result must be default-constructible and movable.
///
/// Returns Ok when the queue fully drained; otherwise the run's stop
/// status (kCancelled / kDeadlineExceeded / kResourceExhausted). Stop
/// checks happen only at serial piece boundaries: the deadline/cancel poll
/// runs before each fold and each wave, and RunState::note_piece() counts
/// each *folded* piece against the piece budget. Because both live in the
/// serial fold loop, a run stopped by its piece budget stops after the
/// same logical piece for every thread count — the foundation of the
/// byte-identical-partial-tree guarantee. Wall-clock stops (deadline,
/// cancel) are schedule-dependent but still land on a piece boundary, so
/// drained builders always see a consistent frontier.
///
/// Tracing: each item runs under a "wavefront.piece" span whose parent is
/// the span of the fold() call that emitted it (roots parent under the
/// caller's span). The recorded span tree therefore mirrors the logical
/// recursion tree — which piece split into which — independent of the
/// thread schedule. Spans opened inside map() nest under the item's piece
/// span via the thread-local context.
template <typename Item, typename Result, typename Map, typename Fold,
          typename Drain>
Status parallel_wavefront(std::vector<Item> roots, std::uint64_t seed,
                          Map&& map, Fold&& fold, Drain&& drain) {
  // Work items (pieces, clusters, subproblems) mapped by the engines.
  static obs::Counter& pieces =
      obs::MetricsRegistry::global().counter("engine.pieces");
  RunState* run = current_run_state();
  std::vector<Item> wave = std::move(roots);
  std::vector<Item> next;
  // parents[i] is the logical parent span of wave[i]; span_ids[i] is the
  // piece span recorded for it (0 when tracing is off).
  std::vector<obs::SpanId> parents(wave.size(), obs::current_span());
  std::vector<obs::SpanId> next_parents;
  std::vector<obs::SpanId> span_ids;
  std::uint64_t next_index = 0;
  std::uint64_t wave_number = 0;
  obs::SpanId fold_parent = 0;
  const auto emit = [&next, &next_parents, &fold_parent](Item&& child) {
    next.push_back(std::move(child));
    next_parents.push_back(fold_parent);
  };
  while (!wave.empty()) {
    const std::size_t count = wave.size();
    if (run != nullptr && !run->check().ok()) {
      for (Item& item : wave) drain(std::move(item));
      return run->status();
    }
    const std::uint64_t base = next_index;
    next_index += count;
    std::vector<Result> results(count);
    span_ids.assign(count, 0);
    parallel_for(count, [&](std::size_t i) {
      obs::ContextGuard context(parents[i]);
      obs::TraceSpan span("wavefront.piece");
      span.arg("index", base + i);
      span.arg("wave", wave_number);
      span_ids[i] = span.id();
      Rng rng = derive_stream(seed, base + i);
      results[i] = map(static_cast<const Item&>(wave[i]), rng);
    });
    pieces.add(count);
    next.clear();
    next_parents.clear();
    std::size_t folded = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (run != nullptr && !run->check().ok()) break;
      fold_parent = span_ids[i];
      fold(std::move(wave[i]), std::move(results[i]), emit);
      ++folded;
      if (run != nullptr) run->note_piece();
    }
    if (folded < count) {
      // Stopped mid-wave: the unfolded tail first, then the children the
      // folded prefix emitted. Both orders are thread-count independent.
      for (std::size_t i = folded; i < count; ++i) drain(std::move(wave[i]));
      for (Item& child : next) drain(std::move(child));
      return run->status();
    }
    std::swap(wave, next);
    std::swap(parents, next_parents);
    ++wave_number;
  }
  // The queue fully drained: this wavefront's work is complete even if the
  // run latched a stop at the very end — partiality is per-builder.
  return Status::Ok();
}

/// Overload without a drain callback: items still queued at an early stop
/// are discarded. Use the drain overload when unprocessed pieces must
/// become leaves of a best-so-far result.
template <typename Item, typename Result, typename Map, typename Fold>
Status parallel_wavefront(std::vector<Item> roots, std::uint64_t seed,
                          Map&& map, Fold&& fold) {
  return parallel_wavefront<Item, Result>(std::move(roots), seed,
                                          std::forward<Map>(map),
                                          std::forward<Fold>(fold),
                                          [](Item&&) {});
}

}  // namespace ht
