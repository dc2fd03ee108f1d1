// Long-lived serving layer over .htsnap snapshots — the "serve" half of
// the OSRM-style extract→customize→serve split.
//
// A TreeServer loads one snapshot and answers queries purely through the
// precomputed trees — min s-t cut (Gomory–Hu tree walk), dominating
// delta_H(A, B) set-cut estimates (vertex-cut tree DP, Lemma 7),
// balanced bisection (Corollary 3 tree DP) and balanced k-way partition
// (decomposition-tree edge DP). No flow is ever solved on the query
// path; the expensive build is amortized over unbounded queries.
//
// Hot-swap: swap(path) loads and fully validates a new snapshot OFF the
// query path, then publishes it through two epoch slots indexed by epoch
// parity. A query registers as a reader of the current parity in its
// thread's cache-line padded counter stripe, re-reads the epoch (retrying
// if a swap got in between) and serves from the slot's raw pointer, so
// in-flight queries on the old snapshot finish against the old mapping.
// swap() installs into the other slot once that slot's readers (queries
// begun two epochs ago) are gone, then bumps the epoch; it waits for them
// without holding the mutex that state(), info() and reclaims take. The
// state it replaced stays mapped until its last reader leaves; the first
// query to finish after that unmaps it (under a try_lock, so never
// blocking), and swap() frees it itself only if no query did by the next
// swap (an idle server). At most two epochs stay mapped, plus any state() handles still
// held. A failed swap keeps the current snapshot serving (the
// "mmap.bytes" gauge lets tests assert no mapping leaks across swap
// storms). TreeServer is a copyable handle; copies share the served epoch.
//
// Every query accepts a per-query RunContext (deadline / cancel), checked
// once at admission, and runs under a trace span with "serve.*" metrics.
// The point queries (min_cut, global_min_cut, set_cut) run in O(tree
// path) and never poll, so they bind no RunScope; bisection() and kway()
// bind one around their DPs, whose cooperative polls observe it. The
// query path writes only per-thread stripes: metric and reader stripes
// and the flight recorder's ring for the thread's stripe.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cuttree/tree.hpp"
#include "flow/cut_engine.hpp"
#include "prep/prep.hpp"
#include "serve/snapshot_reader.hpp"
#include "util/run_context.hpp"
#include "util/status.hpp"

namespace ht {

namespace serve {

/// Serving-layer observability knobs, fixed at open()/from_state() time
/// and shared by every copy of the handle.
///
/// The flight recorder (obs/flight_recorder.hpp) gets one fixed-size
/// record per query — kind, epoch, deadline headroom, latency, status,
/// cut value, prep-exactness, thread — appended lock-free after the
/// answer is produced to the ring of the serving thread's metrics stripe
/// (~tens of ns, no write shared with threads on other stripes; disable
/// per-server only for A/B overhead measurements). Queries slower than
/// slow_query_ns additionally record a "serve.slow_query" trace span
/// carrying the same fields as span args (tracing must be enabled to see
/// them; the span is timing-dependent by design, unlike the deterministic
/// serve.* spans). When flight_dump_path is non-empty, a query that
/// finishes non-ok rewrites that file with the recorder's JSON dump — a
/// post-mortem of the last `capacity` queries of each ring, merged by
/// completion time, leading up to the error. The rewrite runs on the
/// failing query's thread, at most once a second per server and never
/// two at once: the first failure of a burst dumps, and later ones show
/// up in the next dump after the window. Each dump is written to a tmp
/// file and renamed over the path, so readers never see a partial file.
struct ServeOptions {
  bool flight_recorder = true;
  std::uint64_t slow_query_ns = 100'000'000;  // 100 ms
  std::string flight_dump_path;               // "" = no auto-dump
};

/// One fully validated, immutable serving epoch. The hypergraph CSR is
/// served zero-copy out of the mapping; each tree's flat arrays are
/// validated and copied once at load (Tree::from_arrays, a fixed number
/// of allocations per tree whatever its size), so every query can run the
/// existing (tested) tree DPs without touching the file again.
///
/// Preprocessed snapshots (kPrepMeta present) store the REDUCED instance;
/// at load the prep vertex map is validated and the cut/decomposition
/// trees are lifted so their embeddings are indexed by ORIGINAL vertex
/// ids (a contracted cluster's originals all embed at the cluster's tree
/// node — the tree DPs aggregate multiplicities per node, so balance
/// constraints count original vertices). Every TreeServer answer is in
/// original ids; only the Gomory–Hu walk maps through the prep map, and
/// rejects pairs the preprocessing merged.
struct LoadedSnapshot {
  snapshot::Snapshot snap;  // owns the mapping the spans point into
  snapshot::MetaBlock meta;

  // Zero-copy views into the mapping.
  std::span<const double> vertex_weights;
  std::span<const double> edge_weights;
  std::span<const std::int64_t> pin_offsets;
  std::span<const std::int32_t> pins;

  // Preprocessing provenance; has_prep == false leaves prep zeroed and
  // prep_map empty (identity).
  snapshot::PrepBlock prep{};
  std::span<const std::int32_t> prep_map;  // original -> stored vertex
  bool has_prep = false;
  /// No lossy stage touched the served instance (true without prep). Not
  /// "every cut is preserved": heavy contraction keeps this true while
  /// its per-pair min cuts only dominate.
  bool prep_exact() const {
    return !has_prep || prep::stages_exact(prep.stage_flags);
  }

  // Sharded-build provenance; has_shards == false leaves shard zeroed and
  // shard_ranges empty. With num_shards > 1 the Gomory–Hu tree is a
  // stitched dominating tree (scale/sharded_build.hpp): walk answers
  // never under-report but are only guaranteed exact within the §14
  // conditions, so min_cut() demotes `exact` and raises `dominating`.
  snapshot::ShardBlock shard{};
  std::span<const std::int64_t> shard_ranges;  // num_shards + 1 boundaries
  bool has_shards = false;
  bool sharded_tree() const { return has_shards && shard.num_shards > 1; }

  std::optional<flow::HypergraphGomoryHuTree> gomory_hu;
  std::optional<cuttree::Tree> vertex_cut_tree;   // star expansion,
                                                  // embedding over orig n
  std::optional<cuttree::Tree> decomposition;     // clique expansion, ditto

  /// Validates and assembles a serving epoch from a mapped snapshot.
  /// Every structural claim the file makes (array lengths vs. meta
  /// counts, CSR monotonicity, pin ranges, tree invariants, Gomory–Hu
  /// forest shape) is re-checked here — a checksum-valid but semantically
  /// corrupt file is a Status, never UB.
  static StatusOr<std::shared_ptr<const LoadedSnapshot>> load(
      snapshot::Snapshot snap);
  static StatusOr<std::shared_ptr<const LoadedSnapshot>> load_file(
      const std::string& path);

  /// The id space queries use: the original vertex count (== stored count
  /// without preprocessing).
  std::int32_t original_vertices() const {
    return has_prep ? prep.orig_num_vertices : meta.num_vertices;
  }
  std::int32_t to_stored(std::int32_t original) const {
    return has_prep ? prep_map[static_cast<std::size_t>(original)]
                    : original;
  }

  /// delta_H of a side assignment over ORIGINAL ids, evaluated on the
  /// stored CSR. Exact for the stored instance; when the bisection DP
  /// splits a contracted cluster, the cluster counts on both sides of
  /// every incident stored hyperedge (the dominating reading).
  double cut_weight(const std::vector<bool>& side) const;
  /// (cut, connectivity) of a k-way assignment over ORIGINAL ids on the
  /// stored CSR. The edge-cut DP never splits a cluster, so under
  /// preprocessing a cluster takes the part of its first original member.
  std::pair<double, double> kway_cost(
      const std::vector<std::int32_t>& part) const;
};

namespace detail {
struct ServerShared;  // the state TreeServer copies share (tree_server.cpp)
}  // namespace detail

}  // namespace serve

class TreeServer {
 public:
  struct MinCutAnswer {
    double value = 0.0;
    /// True when the value is the cut on the original instance: the
    /// snapshot's Gomory–Hu build ran to completion and prep changed no
    /// cut the query reads. A snapshot frozen mid-build serves
    /// pessimistic lower bounds for vertices beyond its stop point.
    bool exact = false;
    /// True when the answer is an upper bound that never under-reports
    /// the true cut: the tree came from a sharded build (num_shards > 1;
    /// exact under the DESIGN.md §14 conditions), or a complete tree
    /// serves min_cut on a heavy-contraction snapshot. Neither flag on a
    /// snapshot with the reserved lossy prep bits: an estimate.
    bool dominating = false;
  };

  struct SetCutAnswer {
    /// gamma_T estimate of delta_H(A, B): dominating (never below the
    /// true cut is NOT guaranteed — it never *under*-reports: gamma_T >=
    /// delta_H by Lemma 5 + Lemma 7), quality bounded by the tree's.
    double value = 0.0;
  };

  struct BisectionAnswer {
    std::vector<bool> side;  // per vertex, true = side 1; exactly n/2 each
    double cut = 0.0;        // exact delta_H of `side`, evaluated on CSR
    double tree_cut = 0.0;   // the DP objective w(X) on the cut tree
  };

  struct KwayAnswer {
    std::vector<std::int32_t> part;  // per vertex in [0, k)
    double cut = 0.0;                // exact delta_H over the CSR
    double connectivity = 0.0;       // exact (lambda - 1) objective
    double tree_cut = 0.0;           // accumulated tree-DP objective
  };

  struct Info {
    /// The id space queries address: ORIGINAL vertices/edges (equal to
    /// the stored counts when the snapshot is not preprocessed).
    std::int32_t num_vertices = 0;
    std::int32_t num_edges = 0;
    /// The instance actually stored in (and served from) the snapshot.
    std::int32_t stored_vertices = 0;
    std::int32_t stored_edges = 0;
    std::uint32_t format_version = 0;
    std::uint32_t prep_stage_flags = 0;  // ht::prep::kStage* bits
    std::size_t snapshot_bytes = 0;
    bool preprocessed = false;
    /// No lossy prep stage touched the served instance, so the global
    /// min-cut value is preserved (true when not preprocessed; the same
    /// bit every flight record of this epoch carries).
    bool prep_exact = false;
    bool has_gomory_hu = false;
    bool has_vertex_cut_tree = false;
    bool has_decomposition = false;
    bool gomory_hu_exact = false;
    /// Sharded out-of-core build provenance (0 / false when the snapshot
    /// came from the in-memory builder).
    bool sharded = false;
    std::int32_t num_shards = 0;
    std::int32_t shards_completed = 0;
    std::int64_t boundary_edges = 0;
    std::uint64_t queries = 0;  // served by this handle's shared state
    std::uint64_t swaps = 0;
    std::uint32_t epoch = 0;  // 1 at open, +1 per successful swap
  };

  /// Opens and validates a snapshot; the server is serving on return.
  static StatusOr<TreeServer> open(const std::string& path,
                                   serve::ServeOptions options = {});

  /// Serves an already-loaded epoch (tests; in-process builds).
  static TreeServer from_state(
      std::shared_ptr<const serve::LoadedSnapshot> state,
      serve::ServeOptions options = {});

  /// Hot-swap: validate `path` off the query path, then atomically
  /// publish it. On failure the current snapshot keeps serving and the
  /// error is returned.
  Status swap(const std::string& path);

  /// The current epoch (pins the mapping for the caller's lifetime).
  std::shared_ptr<const serve::LoadedSnapshot> state() const;

  /// The current epoch number (what flight records of new queries carry).
  std::uint32_t epoch() const;

  /// The observability knobs this server was opened with.
  const serve::ServeOptions& options() const;

  /// Exact min s-t hyperedge cut via the Gomory–Hu tree walk (no heap
  /// allocation on the answered path).
  StatusOr<MinCutAnswer> min_cut(std::int32_t s, std::int32_t t,
                                 const RunContext& ctx = {}) const;

  /// Global minimum cut read off the Gomory–Hu tree (min over its
  /// edges). Exact for a complete in-memory tree; `dominating` for a
  /// sharded tree — then it equals the true global min cut whenever that
  /// cut lives inside one shard or respects the shard partition
  /// (DESIGN.md §14), and never under-reports otherwise.
  StatusOr<MinCutAnswer> global_min_cut(const RunContext& ctx = {}) const;

  /// Dominating delta_H(A, B) estimate via the vertex-cut-tree DP over
  /// the star expansion (A, B disjoint, non-empty sets of vertex ids);
  /// visits only the root paths of A's and B's tree nodes. Refusals are
  /// kInvalidArgument, checked in this order: an empty side; a vertex of
  /// A out of range; per vertex of B in order, out of range or also in
  /// A; sides whose vertices share a tree node (merged by preprocessing).
  StatusOr<SetCutAnswer> set_cut(const std::vector<std::int32_t>& a,
                                 const std::vector<std::int32_t>& b,
                                 const RunContext& ctx = {}) const;

  /// Corollary 3 balanced bisection from the stored cut tree (n even).
  StatusOr<BisectionAnswer> bisection(const RunContext& ctx = {}) const;

  /// Balanced k-way partition by peeling the decomposition tree with the
  /// edge-cut DP (k >= 2, k divides n).
  StatusOr<KwayAnswer> kway(std::int32_t k, const RunContext& ctx = {}) const;

  Info info() const;

 private:
  explicit TreeServer(std::shared_ptr<serve::detail::ServerShared> shared)
      : shared_(std::move(shared)) {}

  std::shared_ptr<serve::detail::ServerShared> shared_;
};

}  // namespace ht
