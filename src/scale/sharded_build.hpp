// Sharded out-of-core snapshot builds (ROADMAP item 4).
//
// build_snapshot_sharded() never materializes the source hypergraph:
// the streaming ingest (stream_ingest.hpp) splits the hMetis file into
// K vertex-range shard spill files plus one boundary file, and the
// driver here walks them with at most `resident` shards mapped under a
// byte budget (ShardStore, deterministic FIFO eviction).
//
// Per shard i it solves the Gomory–Hu tree of H_i^c — shard i's
// vertices plus ONE supervertex x standing for everything outside the
// shard (every boundary hyperedge touching the shard keeps its weight,
// its outside pins collapse onto x). Every cut of H_i^c is a real cut
// of H with identical weight, so each subtree edge carries an exact cut
// value. The stitch pass then solves the boundary quotient exactly (all
// shard interiors contracted, hypergraph Gomory–Hu on the quotient) and
// grafts: each shard subtree is rooted at x, x's heaviest child becomes
// the shard anchor, the other children re-parent onto the anchor
// (value-preserving — the dropped x-edge was the path maximum), and the
// quotient edges connect anchors. The result is a dominating cut tree:
// path minima are exact within a shard, never under-report across
// shards, and the minimum over all tree edges equals the global min cut
// whenever that cut has one side inside a single shard or respects the
// shard partition (DESIGN.md §14 for the argument).
//
// Anytime semantics match the in-memory build: a RunContext stop leaves
// the shards not yet solved as stars of leaves with pessimistic
// parent_cut == 0, the kGomoryHuComplete flag cleared, and the snapshot
// still valid and byte-deterministic.
#pragma once

#include <cstdint>
#include <string>

#include "scale/stream_ingest.hpp"
#include "util/status.hpp"

namespace ht::scale {

struct ShardOptions {
  /// Vertex-range shard count K (clamped to [1, n]).
  std::int32_t shards = 8;
  /// Max shards mapped at once (>= 1; the boundary file is always
  /// resident on top of this).
  std::int32_t resident = 2;
  /// Byte budget for resident shard mappings (boundary included). 0
  /// means the `resident` count is the only cap.
  std::size_t memory_budget_bytes = 0;
  /// Provenance seed stored in the snapshot meta block.
  std::uint64_t seed = 0;
  std::string build_info;
  /// Spill directory; "" derives `<out_path>.shards`. On every return, a
  /// refused input included, the build removes the spill files it wrote
  /// there, and then the directory if that leaves it empty.
  std::string temp_dir;
};

struct ShardBuildReport {
  std::int64_t num_vertices = 0;
  std::int64_t num_edges = 0;
  std::int64_t num_pins = 0;
  std::int32_t num_shards = 0;
  std::int32_t shards_completed = 0;  // shard GH runs that finished
  std::int64_t boundary_edges = 0;
  std::int64_t boundary_pins = 0;
  /// Ingest segment flushes + post-eviction re-reads, in bytes.
  std::uint64_t spill_bytes = 0;
  /// High-water mark of mapped shard bytes (what the budget bounds).
  std::uint64_t peak_resident_bytes = 0;
  std::size_t snapshot_bytes = 0;
  /// Minimum over the stitched tree's edges — the global min cut under
  /// the §14 exactness conditions, an upper bound otherwise. Only
  /// meaningful when `complete`.
  double global_min_cut = 0.0;
  bool complete = false;  // every shard + the quotient ran to the end
  Status quotient_status;
};

/// Streams `hmetis_path` into shards under options.temp_dir, builds the
/// stitched snapshot, and atomically publishes it at `out_path` (same
/// .htsnap format the in-memory build writes; TreeServer serves it
/// unchanged). Observes the bound RunContext (deadline / cancel / piece
/// budget); an interrupted build still publishes a valid snapshot and
/// the stop reason is surfaced by the Solver wrapper.
Status build_snapshot_sharded(const std::string& hmetis_path,
                              const std::string& out_path,
                              const ShardOptions& options,
                              ShardBuildReport* report = nullptr);

/// The driver stage on an existing manifest (exposed for tests that
/// corrupt or hand-craft shard files before building).
Status build_from_manifest(const ShardManifest& manifest,
                           const std::string& out_path,
                           const ShardOptions& options,
                           ShardBuildReport* report = nullptr);

}  // namespace ht::scale
