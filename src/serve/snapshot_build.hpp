// The offline build half of the build/serve split: run the expensive
// cut-tree machinery once over a hypergraph and freeze every artifact the
// query path needs into one .htsnap image.
//
// Artifacts per snapshot (each optional, recorded in the section table):
//  * the hypergraph itself (CSR pins + weights) — exact cut evaluation of
//    query answers, no flow required;
//  * the hypergraph Gomory–Hu tree — exact min s-t cut queries as a tree
//    walk (Section 3.2: singleton pairs admit an exact tree);
//  * the Section 3.1 vertex cut tree of the star expansion — Corollary 3
//    bisection and dominating delta_H(A, B) set-cut estimates as tree DPs
//    (Lemma 7 turns hyperedge cuts into vertex cuts);
//  * the decomposition tree of the clique expansion — balanced k-way
//    partition queries as edge-cut tree DPs (Lemma 1 distortion).
//
// The three trees are independent functions of the stored instance, so
// build() runs them concurrently: one fork-join on the global thread pool
// (no thread of its own), whose results are merged into the MetaBlock and
// BuildReport serially, in GH -> VCT -> decomposition order. With a
// 1-worker pool they run one after another in that order. The snapshot
// bytes are the same for every thread count.
//
// build() honours the ambient RunContext with the library's usual anytime
// semantics: a stop mid-build yields partial-but-valid dominating trees
// whose completeness bits are cleared in the MetaBlock, so a server can
// distinguish exact answers from degraded ones. Each tree runs under its
// own RunState for the caller's context:
//  * the deadline and cancel token are shared by the three concurrent
//    builders, so a short deadline leaves all three trees partial;
//  * piece_budget counts pieces per tree: each gets the full budget, and
//    a budget stop lands on the same logical piece for every thread count;
//  * a stop the run latched before the trees start (say, prep exhausting
//    the budget) stops all three, which still publish trivial trees.
// After the join each tree's stop is latched into the caller's RunState
// in GH -> VCT -> decomposition order, so the run's status is
// deterministic too.
#pragma once

#include <cstdint>
#include <string>

#include "hypergraph/hypergraph.hpp"
#include "prep/prep.hpp"
#include "serve/snapshot_format.hpp"
#include "serve/snapshot_writer.hpp"
#include "util/status.hpp"

namespace ht::snapshot {

struct BuildOptions {
  std::uint64_t seed = 0x5eedULL;
  /// Forwarded to the Section 3.1 oracle (<= 0 means sqrt(log2 n)).
  double alpha = 0.0;
  bool include_gomory_hu = true;
  bool include_vertex_cut_tree = true;
  bool include_decomposition = true;
  /// Free-form provenance text stored in the kBuildInfo section.
  std::string build_info;
  /// Preprocessing run before any artifact is built (default off). When
  /// a kernelization rule fires, the snapshot stores the REDUCED instance
  /// plus the kPrepMeta / kPrepVertexMap sections, and TreeServer lifts
  /// every answer back to original vertex ids.
  prep::PrepConfig prep;
};

struct BuildReport {
  /// Per-artifact builder statuses (Ok, or the run's stop status when the
  /// ambient RunContext ended that builder early — the artifact is still
  /// written, flagged incomplete).
  Status gomory_hu_status;
  Status vertex_cut_tree_status;
  Status decomposition_status;
  /// The prep pipeline's stop status (Ok when it ran to completion or was
  /// off; anytime: a deadline mid-pipeline keeps the rounds already
  /// applied).
  Status prep_status;
  std::size_t bytes = 0;
  /// Wall time of each tree's build task, its expansion included; 0 when
  /// the artifact is off. The tasks overlap, so the three can add up to
  /// more than the build's wall. Not stored in the snapshot.
  double gomory_hu_ms = 0.0;
  double vertex_cut_tree_ms = 0.0;
  double decomposition_ms = 0.0;
  /// Threads the offline build ran with (flag > HT_THREADS > hardware).
  /// Deliberately NOT stored in the snapshot so bytes stay identical
  /// across thread counts.
  std::uint32_t build_threads = 0;
  std::int32_t vct_nodes = 0;
  std::int32_t decomp_nodes = 0;
  /// Stored (post-prep) instance sizes; equal to the input's when no prep
  /// rule fired.
  std::int32_t stored_vertices = 0;
  std::int32_t stored_edges = 0;
  std::uint32_t prep_stage_flags = 0;
  bool prep_applied = false;
  bool gomory_hu_present = false;
  bool vertex_cut_tree_present = false;
  bool decomposition_present = false;
};

/// Builds all requested artifacts and serializes them; returns the file
/// image. kInvalidArgument on an unusable input (not finalized, n < 2).
StatusOr<std::string> build(const hypergraph::Hypergraph& h,
                            const BuildOptions& options = {},
                            BuildReport* report = nullptr);

/// build() + atomic file publish (tmp + rename), ready for a TreeServer
/// to hot-swap onto.
Status write(const hypergraph::Hypergraph& h, const std::string& path,
             const BuildOptions& options = {}, BuildReport* report = nullptr);

}  // namespace ht::snapshot
