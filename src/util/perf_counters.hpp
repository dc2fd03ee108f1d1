// Process-wide performance counters for the parallel decomposition engine.
//
// The engines (wavefront peeling, Gomory–Hu builds, the flow oracles)
// and the thread pool feed a small set of counters; benches reset them
// around a measured section and print report(). Counters are intentionally
// lossy about attribution (they are process-wide, not per-call) — they
// exist to make "what did this run actually do" visible, not to replace a
// profiler.
//
// Since the observability refactor this class is a facade: every counter
// is a named metric in ht::obs::MetricsRegistry ("engine.pieces",
// "flow.builds", "pool.max_queue_depth", ...), so metrics snapshots and
// bench JSON see the same numbers as these accessors. reset() resets the
// *whole* registry (benches want a clean slate for every metric, including
// ones registered outside this facade, e.g. "flow.augmenting_paths").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace ht {

class PerfCounters {
 public:
  static PerfCounters& global();

  /// Work items (pieces/clusters/subproblems) processed by the engines.
  void add_pieces(std::uint64_t count) { pieces_.add(count); }
  /// Max-flow invocations (min_edge_cut / min_vertex_cut /
  /// min_hyperedge_cut), complete or interrupted.
  void add_max_flow_call() { max_flow_calls_.add(); }
  /// Tasks executed by the thread pool (workers and stealing waiters).
  void add_task() { tasks_.add(); }
  /// Records an observed pool queue depth; keeps the maximum.
  void note_queue_depth(std::size_t depth) {
    max_queue_depth_.update_max(static_cast<std::int64_t>(depth));
  }

  /// WorkArena cache hit: a flow engine (or other keyed object) was reused
  /// instead of rebuilt.
  void add_arena_hit() { arena_hits_.add(); }
  /// WorkArena cache miss: the object had to be built.
  void add_arena_miss() { arena_misses_.add(); }
  /// FlowNetwork arena constructed from scratch (cache miss or fresh-build
  /// mode).
  void add_flow_build() { flow_builds_.add(); }
  /// FlowNetwork reset-and-reused for another max-flow call.
  void add_flow_reuse() { flow_reuses_.add(); }
  /// A SubsetView materialized a concrete induced sub(hyper)graph (oracle
  /// or contract() boundary).
  void add_materialization() { materializations_.add(); }
  /// Records one thread's current arena footprint; keeps the maximum seen
  /// on any single thread (peak per-thread scratch allocation).
  void note_arena_bytes(std::size_t bytes) {
    peak_arena_bytes_.update_max(static_cast<std::int64_t>(bytes));
  }

  std::uint64_t pieces() const { return pieces_.value(); }
  std::uint64_t max_flow_calls() const { return max_flow_calls_.value(); }
  std::uint64_t tasks() const { return tasks_.value(); }
  std::uint64_t max_queue_depth() const {
    return static_cast<std::uint64_t>(max_queue_depth_.value());
  }
  std::uint64_t arena_hits() const { return arena_hits_.value(); }
  std::uint64_t arena_misses() const { return arena_misses_.value(); }
  /// Arena hit rate in [0, 1]; 0 when no acquire happened.
  double arena_hit_rate() const;
  std::uint64_t flow_builds() const { return flow_builds_.value(); }
  std::uint64_t flow_reuses() const { return flow_reuses_.value(); }
  std::uint64_t materializations() const {
    return materializations_.value();
  }
  std::uint64_t peak_arena_bytes() const {
    return static_cast<std::uint64_t>(peak_arena_bytes_.value());
  }

  /// Zeroes every metric in the registry.
  void reset();

  /// Multi-line human-readable summary (benches print this after a run).
  std::string report() const;

 private:
  PerfCounters();

  obs::Counter& pieces_;
  obs::Counter& max_flow_calls_;
  obs::Counter& tasks_;
  obs::Gauge& max_queue_depth_;
  obs::Counter& arena_hits_;
  obs::Counter& arena_misses_;
  obs::Counter& flow_builds_;
  obs::Counter& flow_reuses_;
  obs::Counter& materializations_;
  obs::Gauge& peak_arena_bytes_;
};

}  // namespace ht
