#include "serve/snapshot_build.hpp"

#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cuttree/decomposition_tree.hpp"
#include "cuttree/vertex_cut_tree.hpp"
#include "flow/cut_engine.hpp"
#include "obs/trace.hpp"
#include "reduction/clique_expansion.hpp"
#include "reduction/star_expansion.hpp"
#include "util/run_context.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ht::snapshot {

namespace {

using hypergraph::EdgeId;
using hypergraph::Hypergraph;
using hypergraph::VertexId;

template <typename T>
std::span<const T> to_span(const std::vector<T>& v) {
  return {v.data(), v.size()};
}

/// Flattens a cuttree::Tree into the four snapshot arrays.
struct TreeArrays {
  std::vector<std::int32_t> parent;
  std::vector<double> node_weight;
  std::vector<double> edge_weight;
  std::vector<std::int32_t> vertex_node;
  std::int32_t root = 0;

  TreeArrays() = default;
  explicit TreeArrays(const cuttree::Tree& t) : root(t.root()) {
    const auto n = static_cast<std::size_t>(t.num_nodes());
    parent.reserve(n);
    node_weight.reserve(n);
    edge_weight.reserve(n);
    for (cuttree::NodeId v = 0; v < t.num_nodes(); ++v) {
      parent.push_back(t.parent(v));
      node_weight.push_back(t.node_weight(v));
      edge_weight.push_back(t.edge_weight(v));
    }
    const auto vertices = static_cast<std::size_t>(t.num_embedded_vertices());
    vertex_node.reserve(vertices);
    for (cuttree::VertexId v = 0; v < t.num_embedded_vertices(); ++v) {
      vertex_node.push_back(t.node_of_vertex(v));
    }
  }

  std::int32_t num_nodes() const {
    return static_cast<std::int32_t>(parent.size());
  }
};

/// What one artifact task hands back: its arrays, the MetaBlock and
/// BuildReport fields it owns, and its statuses. A task writes only its
/// own result, so the fork has no shared writes; build() merges the
/// three serially after the join.
struct ArtifactRun {
  bool present = false;
  /// The builder's status (Ok, or the stop that ended it early).
  Status status;
  /// The stop latched in the artifact's own RunState (kOk when no run is
  /// bound or it never stopped).
  StatusCode stop = StatusCode::kOk;
  /// The task's wall time, its expansion included.
  double ms = 0.0;
};

struct GomoryHuArtifact : ArtifactRun {
  flow::HypergraphGomoryHuTree tree;
  VertexId applied = 0;
};

struct VertexCutTreeArtifact : ArtifactRun {
  TreeArrays tree;
  std::vector<std::int32_t> separators;
  std::int32_t num_pieces = 0;
  double separator_weight = 0.0;
  double threshold = 0.0;
};

struct DecompositionArtifact : ArtifactRun {
  TreeArrays tree;
};

/// Gomory–Hu tree: exact min s-t cut answers. Needs connectivity.
GomoryHuArtifact build_gomory_hu(const Hypergraph& stored) {
  GomoryHuArtifact out;
  if (!hypergraph::is_connected(stored)) return out;
  auto result = CutEngine().gomory_hu(stored);
  out.present = true;
  out.status = result.status;
  out.tree = std::move(result.tree);
  out.applied = result.applied;
  return out;
}

/// Section 3.1 vertex cut tree of the star expansion (Corollary 3's
/// serving artifact: bisection + set-cut queries become tree DPs).
VertexCutTreeArtifact build_vertex_cut_tree(const Hypergraph& stored,
                                            const BuildOptions& options) {
  const auto star = reduction::star_expansion(stored);
  cuttree::VertexCutTreeOptions vct_options;
  vct_options.seed = options.seed;
  vct_options.alpha = options.alpha;
  auto result = cuttree::build_vertex_cut_tree(star.graph, vct_options);
  VertexCutTreeArtifact out;
  out.present = true;
  out.status = result.status;
  out.tree = TreeArrays(result.tree);
  out.separators = std::move(result.separator_vertices);
  out.num_pieces = result.num_pieces;
  out.separator_weight = result.separator_weight;
  out.threshold = result.threshold;
  return out;
}

/// Decomposition tree of the clique expansion (k-way queries via the
/// edge-cut tree DP, Lemma 1 distortion).
DecompositionArtifact build_decomposition(const Hypergraph& stored,
                                          std::uint64_t seed) {
  graph::Graph expansion = reduction::clique_expansion(stored);
  if (!expansion.finalized()) expansion.finalize();
  cuttree::DecompositionOptions decomp_options;
  decomp_options.seed = seed;
  const auto result =
      cuttree::build_decomposition_tree_run(expansion, decomp_options);
  DecompositionArtifact out;
  out.present = true;
  out.status = result.status;
  out.tree = TreeArrays(result.tree);
  return out;
}

/// Runs one artifact task and times it. Under a bound run the task gets
/// its own RunState for the caller's RunContext: the same deadline and
/// cancel token, but its own piece counter, so a piece-budget stop lands
/// on the same logical piece however the other artifacts are scheduled.
/// A stop the caller already latched (say, by prep) carries over, so a
/// stopped run stays stopped for every artifact.
template <typename Build>
auto run_artifact(const RunState* caller, Build&& build)
    -> decltype(build()) {
  const Timer timer;
  std::optional<RunScope> scope;
  if (caller != nullptr) {
    scope.emplace(caller->context());
    scope->state().latch(caller->status().code());
  }
  auto out = build();
  if (scope.has_value()) out.stop = scope->status().code();
  out.ms = timer.millis();
  return out;
}

}  // namespace

StatusOr<std::string> build(const Hypergraph& h, const BuildOptions& options,
                            BuildReport* report) {
  obs::TraceSpan span("snapshot.build");
  if (!h.finalized()) {
    return Status::InvalidArgument("snapshot build needs a finalized "
                                   "hypergraph");
  }
  const VertexId n = h.num_vertices();
  if (n < 2) {
    return Status::InvalidArgument("snapshot build needs >= 2 vertices");
  }

  BuildReport local_report;
  BuildReport& rep = report != nullptr ? *report : local_report;
  rep = BuildReport{};

  // Preprocessing first: every artifact below is built on the reduced
  // instance, and the lifting map is frozen into the snapshot so the
  // server can keep answering in original vertex ids.
  prep::PrepResult prep_result;
  const Hypergraph* instance = &h;
  bool prep_applied = false;
  if (options.prep.mode != prep::PrepConfig::Mode::kOff) {
    auto pipeline = prep::run_pipeline(h, options.prep);
    rep.prep_status = pipeline.status();
    prep_result = std::move(*pipeline);
    prep_applied = prep_result.applied();
    if (prep_applied) instance = &prep_result.reduced;
  }
  const Hypergraph& stored = *instance;
  const VertexId stored_n = stored.num_vertices();
  const EdgeId stored_m = stored.num_edges();
  rep.stored_vertices = stored_n;
  rep.stored_edges = stored_m;
  rep.prep_applied = prep_applied;
  rep.prep_stage_flags = prep_result.stage_flags;

  MetaBlock meta;
  std::memset(&meta, 0, sizeof(meta));
  meta.build_seed = options.seed;
  meta.num_vertices = stored_n;
  meta.num_edges = stored_m;
  meta.total_edge_weight = stored.total_edge_weight();
  meta.total_vertex_weight = stored.total_vertex_weight();
  // meta.build_threads stays 0: like created_unix_s, the live thread count
  // is provenance that would break byte-determinism across thread counts,
  // so it is reported in BuildReport instead of the checksummed artifact.
  RunState* caller = current_run_state();
  rep.build_threads = static_cast<std::uint32_t>(env_default_threads());
  if (caller != nullptr && caller->context().threads != 0) {
    rep.build_threads = static_cast<std::uint32_t>(caller->context().threads);
  }

  // Hypergraph CSR — rebuilt from the public accessors, written as the
  // flat arrays the reader serves zero-copy.
  std::vector<double> vertex_weights(static_cast<std::size_t>(stored_n));
  for (VertexId v = 0; v < stored_n; ++v) {
    vertex_weights[static_cast<std::size_t>(v)] = stored.vertex_weight(v);
  }
  std::vector<double> edge_weights(static_cast<std::size_t>(stored_m));
  std::vector<std::int64_t> pin_offsets;
  std::vector<std::int32_t> pins;
  pin_offsets.reserve(static_cast<std::size_t>(stored_m) + 1);
  pin_offsets.push_back(0);
  for (EdgeId e = 0; e < stored_m; ++e) {
    edge_weights[static_cast<std::size_t>(e)] = stored.edge_weight(e);
    for (VertexId v : stored.pins(e)) pins.push_back(v);
    pin_offsets.push_back(static_cast<std::int64_t>(pins.size()));
  }
  meta.num_pins = static_cast<std::int64_t>(pins.size());

  Writer writer;

  // The three artifacts are independent functions of `stored`: build them
  // as one fork-join on the global pool. The caller claims artifacts
  // itself before it helps by stealing, each builder's nested parallel
  // work shares the same pool, and a 1-worker pool runs them serially in
  // GH -> VCT -> decomposition order.
  GomoryHuArtifact gh;
  VertexCutTreeArtifact vct;
  DecompositionArtifact decomp;
  parallel_for(3, [&](std::size_t artifact) {
    if (artifact == 0 && options.include_gomory_hu) {
      gh = run_artifact(caller, [&] { return build_gomory_hu(stored); });
    } else if (artifact == 1 && options.include_vertex_cut_tree) {
      vct = run_artifact(caller,
                         [&] { return build_vertex_cut_tree(stored, options); });
    } else if (artifact == 2 && options.include_decomposition) {
      decomp = run_artifact(
          caller, [&] { return build_decomposition(stored, options.seed); });
    }
  });

  // Merge serially, in a fixed order, so the MetaBlock, the report and
  // the run's first latched stop are the same for every schedule.
  rep.gomory_hu_ms = gh.ms;
  rep.vertex_cut_tree_ms = vct.ms;
  rep.decomposition_ms = decomp.ms;
  if (gh.present) {
    rep.gomory_hu_status = gh.status;
    rep.gomory_hu_present = true;
    meta.gh_root = gh.tree.root;
    meta.gh_applied = gh.applied;
    if (gh.status.ok()) meta.artifact_flags |= kGomoryHuComplete;
  }
  if (vct.present) {
    rep.vertex_cut_tree_status = vct.status;
    rep.vertex_cut_tree_present = true;
    rep.vct_nodes = vct.tree.num_nodes();
    meta.vct_num_nodes = vct.tree.num_nodes();
    meta.vct_num_pieces = vct.num_pieces;
    meta.vct_separator_weight = vct.separator_weight;
    meta.vct_threshold = vct.threshold;
    meta.vct_root = vct.tree.root;
    if (vct.status.ok()) meta.artifact_flags |= kVertexCutTreeComplete;
  }
  if (decomp.present) {
    rep.decomposition_status = decomp.status;
    rep.decomposition_present = true;
    rep.decomp_nodes = decomp.tree.num_nodes();
    meta.decomp_num_nodes = decomp.tree.num_nodes();
    meta.decomp_root = decomp.tree.root;
    if (decomp.status.ok()) meta.artifact_flags |= kDecompositionComplete;
  }
  if (caller != nullptr) {
    for (const StatusCode stop : {gh.stop, vct.stop, decomp.stop}) {
      caller->latch(stop);
    }
  }

  writer.add_meta(meta);
  writer.add_span(SectionKind::kVertexWeights, to_span(vertex_weights));
  writer.add_span(SectionKind::kEdgeWeights, to_span(edge_weights));
  writer.add_span(SectionKind::kPinOffsets, to_span(pin_offsets));
  writer.add_span(SectionKind::kPins, to_span(pins));
  if (gh.present) {
    writer.add_span(SectionKind::kGhParent, to_span(gh.tree.parent));
    writer.add_span(SectionKind::kGhParentCut, to_span(gh.tree.parent_cut));
  }
  if (vct.present) {
    writer.add_span(SectionKind::kVctParent, to_span(vct.tree.parent));
    writer.add_span(SectionKind::kVctNodeWeight,
                    to_span(vct.tree.node_weight));
    writer.add_span(SectionKind::kVctEdgeWeight,
                    to_span(vct.tree.edge_weight));
    writer.add_span(SectionKind::kVctVertexNode,
                    to_span(vct.tree.vertex_node));
    writer.add_span(SectionKind::kVctSeparators, to_span(vct.separators));
  }
  if (decomp.present) {
    writer.add_span(SectionKind::kDecompParent, to_span(decomp.tree.parent));
    writer.add_span(SectionKind::kDecompNodeWeight,
                    to_span(decomp.tree.node_weight));
    writer.add_span(SectionKind::kDecompEdgeWeight,
                    to_span(decomp.tree.edge_weight));
    writer.add_span(SectionKind::kDecompVertexNode,
                    to_span(decomp.tree.vertex_node));
  }
  std::vector<std::int32_t> prep_map;
  std::string prep_stages_text;
  if (prep_applied) {
    PrepBlock prep_block;
    std::memset(&prep_block, 0, sizeof(prep_block));
    prep_block.orig_num_pins = prep_result.total_pins_before;
    // Reserved; every prep snapshot has carried this value.
    prep_block.prep_seed = 0x5eedULL;
    prep_block.orig_num_vertices = n;
    prep_block.orig_num_edges = h.num_edges();
    prep_block.stage_flags = prep_result.stage_flags;
    prep_block.mode = static_cast<std::uint32_t>(options.prep.mode);
    prep_block.rounds = prep_result.rounds;
    writer.add_bytes(SectionKind::kPrepMeta, sizeof(PrepBlock), &prep_block,
                     sizeof(PrepBlock));
    prep_map.assign(prep_result.lifting.map().begin(),
                    prep_result.lifting.map().end());
    writer.add_span(SectionKind::kPrepVertexMap, to_span(prep_map));
    // One provenance line for the kernelization pass.
    prep_stages_text =
        "kernelize exact n " + std::to_string(n) + "->" +
        std::to_string(stored_n) + " m " + std::to_string(h.num_edges()) +
        "->" + std::to_string(stored_m) + " pins " +
        std::to_string(prep_result.total_pins_before) + "->" +
        std::to_string(prep::total_pins(stored)) + " rounds " +
        std::to_string(prep_result.rounds) + "\n";
    writer.add_bytes(SectionKind::kPrepStages, 1, prep_stages_text.data(),
                     prep_stages_text.size());
  }
  if (!options.build_info.empty()) {
    writer.add_build_info(options.build_info);
  }

  auto bytes = writer.serialize();
  if (!bytes.ok()) return bytes.status();
  rep.bytes = bytes->size();
  return bytes;
}

Status write(const Hypergraph& h, const std::string& path,
             const BuildOptions& options, BuildReport* report) {
  auto bytes = build(h, options, report);
  if (!bytes.ok()) return bytes.status();
  return write_bytes_atomic(path, *bytes);
}

}  // namespace ht::snapshot
