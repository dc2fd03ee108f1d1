// Single-pass streaming hMetis ingest into K vertex-range shards.
//
// shard_hmetis_file() maps the input once, parses it with
// hypergraph::HmetisReader in one sequential scan, and classifies every
// hyperedge by the set of vertex ranges its pins touch: edges fully
// inside one range go to that shard's .htshard spill file, edges that
// straddle ranges go to the boundary pseudo-shard. The full hypergraph
// is never materialized; peak memory is the per-shard segment buffers
// (each bounded by the spill threshold) plus O(n) vertex weights.
//
// Vertex ranges are the contiguous blocks [k*n/K, (k+1)*n/K) — the same
// deterministic split for every run, so identical inputs and options
// yield byte-identical shard files (and downstream, byte-identical
// snapshots).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace ht::scale {

struct IngestOptions {
  /// Number of vertex-range shards K (clamped to [1, n]).
  std::int32_t shards = 8;
  /// Directory for the K+1 spill files; created if missing.
  std::string temp_dir;
  /// Byte budget the ingest derives its per-shard spill threshold from:
  /// budget / (4 * (K + 1)), floored at 64 KiB, or 1 MiB when 0 (no
  /// budget).
  std::size_t memory_budget_bytes = 0;
};

/// Everything the sharded build driver needs to proceed without touching
/// the source file again.
struct ShardManifest {
  std::int64_t num_vertices = 0;
  std::int64_t num_edges = 0;      // interior + boundary
  std::int64_t num_pins = 0;
  double total_edge_weight = 0.0;
  double total_vertex_weight = 0.0;
  std::int32_t num_shards = 0;     // K (after clamping)
  /// Range boundaries: shard k covers [ranges[k], ranges[k+1]).
  std::vector<std::int64_t> ranges;          // size K + 1
  /// Spill file paths: [0, K) interior shards, [K] the boundary file.
  std::vector<std::string> shard_paths;      // size K + 1
  std::int64_t boundary_edges = 0;
  std::int64_t boundary_pins = 0;
  /// Bytes written by threshold-forced segment flushes during ingest.
  std::uint64_t spill_bytes = 0;
};

/// Streams `path` into shard spill files under options.temp_dir. Refuses
/// malformed input with HmetisReader's kInvalidArgument (the same status
/// hypergraph::try_read_hmetis_file returns), and n = 0 with its own; a
/// refusal removes the spill files it had written.
StatusOr<ShardManifest> shard_hmetis_file(const std::string& path,
                                          const IngestOptions& options);

/// Validates a manifest whose shard files may have been produced (or
/// tampered with) externally: opens every file, checks each header's
/// declared range against the manifest, and rejects overlapping or
/// non-partitioning interior ranges. Used by the malformed-ingest tests
/// and defensively by the build driver.
Status validate_manifest(const ShardManifest& manifest);

}  // namespace ht::scale
