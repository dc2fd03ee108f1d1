// The public facade: one header, one Solver.
//
// External consumers (examples/, downstream users) include only this
// header and drive everything through ht::Solver, which owns the run
// configuration (ht::RunContext: deadline, cancel token, piece/memory
// budgets, threads, seed, trace sink) and returns ht::StatusOr results
// with anytime semantics — a run stopped by its deadline still yields a
// usable best-so-far value, tagged with the stop status (see
// util/status.hpp for the ok()/has_value() contract).
//
// The per-layer headers underneath remain includable for internal code
// and tests; their builders (build_vertex_cut_tree, bisect_theorem1, ...)
// run to completion unless a RunScope is bound, which is what Solver adds.
// Migration table: DESIGN.md §9.
#pragma once

#include <string>

// Vocabulary: status, run context, RNG streams.
#include "util/run_context.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

// Inputs: graphs, hypergraphs, generators, hMetis IO.
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/io.hpp"

// Stable algorithm surface.
#include "core/bisection.hpp"
#include "cuttree/decomposition_tree.hpp"
#include "cuttree/dot.hpp"
#include "cuttree/quality.hpp"
#include "cuttree/tree.hpp"
#include "cuttree/vertex_cut_tree.hpp"
#include "flow/cut_engine.hpp"
#include "hardness/dense_vs_random.hpp"
#include "partition/kway.hpp"
#include "partition/mku.hpp"
#include "reduction/clique_expansion.hpp"
#include "reduction/mku_bisection.hpp"
#include "reduction/star_expansion.hpp"

// Exact preprocessing (kernelization) with id lifting.
#include "prep/prep.hpp"

// Persistence + serving: .htsnap snapshots and the TreeServer query
// surface (the build/serve split).
#include "serve/snapshot_build.hpp"
#include "serve/snapshot_reader.hpp"
#include "serve/snapshot_writer.hpp"
#include "serve/tree_server.hpp"

// Sharded out-of-core builds: streaming ingest into spill shards and the
// stitched-snapshot driver (ROADMAP item 4).
#include "scale/sharded_build.hpp"
#include "scale/stream_ingest.hpp"

// Serving observability: registry exporters (Prometheus text / versioned
// JSON) and the always-on per-query flight recorder.
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"

// Presentation helpers used by the examples.
#include "util/table.hpp"
#include "util/timer.hpp"

namespace ht {

/// The unified entry point. A Solver holds one RunContext and applies it
/// to every run: the context is bound to the run via a RunScope (so every
/// layer down to the flow engine's augmentation loops can poll it), the
/// thread pool is sized to context().threads, and context().seed — when
/// set — overrides the per-algorithm options seed.
///
/// Runs on the same Solver share the flow engine's per-thread network
/// caches; an interrupted run leaves them consistent, so the next run
/// reuses them with no leaked state.
///
/// All methods return StatusOr with anytime semantics: has_value() is
/// true even when ok() is false — the value is then a valid best-so-far
/// result (partial dominating tree, feasible degraded bisection) and
/// status() says why the run stopped (kDeadlineExceeded, kCancelled,
/// kResourceExhausted).
class Solver {
 public:
  /// Defaults from the environment (HT_THREADS, HT_TRACE) — the explicit
  /// replacement for the getenv calls that used to hide in the pool and
  /// tracer. Pass a custom RunContext to override.
  Solver();
  explicit Solver(RunContext ctx);

  RunContext& context() { return ctx_; }
  const RunContext& context() const { return ctx_; }

  /// Section 3.1 vertex cut tree (Theorem 5 quality) for a finalized
  /// graph. Anytime: pieces unpeeled at the stop become final pieces.
  StatusOr<cuttree::VertexCutTreeResult> build_vertex_cut_tree(
      const graph::Graph& g, cuttree::VertexCutTreeOptions options = {});

  /// Laminar decomposition tree (Räcke stand-in) for graph edge cuts.
  /// Anytime: clusters unsplit at the stop become stars of leaves.
  StatusOr<cuttree::DecompositionTreeResult> decomposition_tree(
      const graph::Graph& g, cuttree::DecompositionOptions options = {});

  /// Theorem 1 minimum hypergraph bisection. Anytime: always returns a
  /// feasible balanced partition, degrading to the trivial one when the
  /// stop precedes every OPT guess.
  StatusOr<core::BisectionReport> bisect(const hypergraph::Hypergraph& h,
                                         core::Theorem1Options options = {});

  /// Corollary 3 bisection through the vertex cut tree.
  StatusOr<core::BisectionReport> bisect_via_cut_tree(
      const hypergraph::Hypergraph& h,
      core::CutTreeBisectionOptions options = {});

  /// Gusfield Gomory–Hu tree for graph edge cuts. Anytime: vertices not
  /// applied at the stop keep pessimistic parent_cut == 0.
  StatusOr<flow::GomoryHuRunResult> gomory_hu(const graph::Graph& g);

  /// Gomory–Hu tree for hypergraph s-t cuts (Lawler-expansion oracle).
  StatusOr<flow::HypergraphGomoryHuRunResult> gomory_hu(
      const hypergraph::Hypergraph& h);

  /// Runs the exact kernelization pipeline on a finalized hypergraph. The
  /// result carries the reduced instance, the composed original ->
  /// reduced Lifting and the stage flags of the rules that fired.
  /// Anytime: a deadline mid-pipeline keeps the rounds already applied
  /// (always a valid, consistent instance).
  StatusOr<prep::PrepResult> preprocess(const hypergraph::Hypergraph& h,
                                        prep::PrepConfig config = {});

  /// Builds every snapshot artifact (Gomory–Hu, vertex cut tree,
  /// decomposition tree) and atomically publishes the .htsnap file.
  /// Anytime: a deadline mid-build still writes a valid snapshot whose
  /// incomplete artifacts have their completeness flags cleared (the
  /// report carries the per-artifact statuses); the returned status is
  /// the run's stop status.
  Status build_snapshot(const hypergraph::Hypergraph& h,
                        const std::string& path,
                        snapshot::BuildOptions options = {},
                        snapshot::BuildReport* report = nullptr);

  /// Out-of-core variant: streams an hMetis file into vertex-range spill
  /// shards, builds per-shard Gomory–Hu subtrees with a bounded resident
  /// set, solves the boundary quotient exactly, and publishes a stitched
  /// .htsnap at `path` that TreeServer serves unchanged (cross-shard
  /// answers are dominating; see scale/sharded_build.hpp). Anytime: a
  /// stop mid-build still publishes a valid snapshot with the unfinished
  /// shards as stars of leaves; the returned status is the run's stop
  /// status.
  Status build_snapshot_sharded(const std::string& hmetis_path,
                                const std::string& path,
                                scale::ShardOptions options = {},
                                scale::ShardBuildReport* report = nullptr);

  /// Opens a .htsnap snapshot for serving, with the solver's thread
  /// configuration applied before any query runs and the serving
  /// observability knobs (flight recorder, slow-query threshold,
  /// on-error auto-dump) fixed for the server's lifetime. Per-query
  /// deadlines are passed to the individual query calls, not through the
  /// solver's context.
  StatusOr<TreeServer> serve(const std::string& path,
                             serve::ServeOptions options = {});

  /// Parses an hMetis file; kInvalidArgument (no value) on malformed
  /// input. No RunContext involvement — IO is not interruptible.
  static StatusOr<hypergraph::Hypergraph> read_hmetis(
      const std::string& path);

  /// Drains the pool and writes the Chrome trace to context().trace_path
  /// (no-op returning false when the path is empty or the write fails).
  bool write_trace() const;

 private:
  /// Sizes the global pool to ctx_.threads (when set) before a run.
  void prepare_pool() const;

  RunContext ctx_;
};

}  // namespace ht
