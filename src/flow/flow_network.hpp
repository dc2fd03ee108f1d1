// Reusable flow network: build the arc structure once, then answer
// many max-flow queries by reset-and-reuse instead of reallocation.
//
// The cut-tree stack (Gomory–Hu, the Section 3.1 vertex cut tree, the
// min-ratio oracle) issues O(n) max-flow calls over near-identical
// networks. Rebuilding a Dinic instance per call makes allocation the
// dominant serial cost inside parallel wavefronts; KaHyPar and Mt-KaHyPar
// attribute large constant-factor wins to materializing the flow structure
// once and resetting between calls, and this class ports that pattern.
//
// Arc storage is CSR/SoA (since the cache-layout refactor): freeze() packs
// the builder's arc list into per-node contiguous ranges with separate
// head[]/rev[]/cap[] arrays, so the BFS/DFS inner loops stream through
// memory instead of chasing arc_next_ pointers. The packing preserves the
// pre-CSR traversal order exactly (reverse insertion order per node), so a
// packed network answers every query byte-identically to the linked-list
// layout it replaced — the golden-hash tests in test_flow_engine.cpp pin
// this down.
//
// A FlowNetwork materializes one of three expansions:
//   * edge_cut_network      — the graph itself (undirected arcs)
//   * vertex_cut_network    — the vertex-split graph (v_in -> v_out)
//   * hyperedge_cut_network — the Lawler expansion of a hypergraph
// plus two super terminals s/t with one *preallocated* zero-capacity
// terminal arc pair per vertex. A query is then:
//
//   net.reset();                        // restore the arcs the last query
//                                       // changed, no alloc
//   net.attach_source(v); ...           // flip terminal arcs to infinity
//   net.attach_sink(u);  ...
//   net.max_flow();                     // Dinic, in place
//   const auto& side = net.source_side();
//
// Because reset() restores the exact pre-query capacities, a reused
// network answers every query bit-identically to a freshly built one.
//
// A query's work follows its shortest augmenting paths rather than the
// whole network: each Dinic level search grows a ball from s and a ball
// from t until they meet, the per-phase scratch is cleared only on the
// nodes the previous search labelled, and reset() rewrites only the arcs
// the previous query changed. (The super terminals still scan their one
// dormant arc per vertex slot in every phase.)
//
// The flow engine (cut_engine.cpp) caches the four most recently used
// networks per thread, keyed by FlowNetworkKind and the structure uid of
// the underlying (hyper)graph; FlowReuseScope(false) disables the cache so
// tests can compare the fresh-build path.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "util/check.hpp"

namespace ht::flow {

using NodeId = std::int32_t;

/// The shared "practically infinite" capacity used for terminal and
/// expansion arcs (the reference Dinic the tests cross-check against uses
/// the same value — asserted in tests/test_flow_engine.cpp).
inline constexpr double kInfiniteCapacity =
    std::numeric_limits<double>::max() / 4;

/// Which expansion a FlowNetwork materializes; with the structure uid it
/// keys the engine's network cache (one uid can back several kinds).
enum FlowNetworkKind : std::uint32_t {
  kEdgeCutNetwork = 1,
  kVertexCutNetwork = 2,
  kHyperedgeCutNetwork = 3,
};

/// True when min-cut queries may be served from thread-local cached
/// engines (the default). Toggled by FlowReuseScope.
bool flow_reuse_enabled();

/// RAII switch for the engine cache; FlowReuseScope off(false) forces the
/// pre-refactor build-per-call behaviour (the reference path the
/// equivalence and flow-count tests compare the cache against).
class FlowReuseScope {
 public:
  explicit FlowReuseScope(bool enable);
  ~FlowReuseScope();
  FlowReuseScope(const FlowReuseScope&) = delete;
  FlowReuseScope& operator=(const FlowReuseScope&) = delete;

 private:
  bool previous_;
};

class FlowNetwork {
 public:
  FlowNetwork() = default;

  /// Network for edge min cuts on g: node per vertex, undirected arc per
  /// edge, terminal slots at every vertex.
  static FlowNetwork edge_cut_network(const ht::graph::Graph& g);
  /// Network for vertex min cuts on g: node splitting v_in = 2v, v_out =
  /// 2v+1, capacity w(v) on the split arc; source attaches at v_in,
  /// sink at v_out (the cut may pick terminal vertices themselves).
  static FlowNetwork vertex_cut_network(const ht::graph::Graph& g);
  /// Network for hyperedge min cuts on h: Lawler expansion with hyperedge
  /// nodes n+2e / n+2e+1 and infinite membership arcs.
  static FlowNetwork hyperedge_cut_network(const ht::hypergraph::Hypergraph& h);

  NodeId num_nodes() const {
    return static_cast<NodeId>(offs_.empty() ? 0 : offs_.size() - 1);
  }
  NodeId source() const { return source_; }
  NodeId sink() const { return sink_; }
  std::int64_t num_arcs() const {
    return static_cast<std::int64_t>(head_.size());
  }
  /// Augmenting paths pushed by the most recent max_flow() call.
  /// Deterministic per query — reset() restores exact capacities, so the
  /// same (network, terminals) always walks the same paths.
  std::uint64_t last_augmenting_paths() const {
    return last_augmenting_paths_;
  }
  /// Nodes labelled by the level searches of the most recent max_flow()
  /// call: the sizes of both balls, summed over every phase including the
  /// last (failed) one. Deterministic per query, like the path count.
  std::uint64_t last_search_nodes() const { return last_search_nodes_; }
  /// False when the most recent solve was interrupted by the ambient
  /// RunContext (deadline/cancel polled every flow_check_rounds augmenting
  /// rounds). An interrupted solve returns a partial flow value whose
  /// residual reachability need not be a cut; callers must not treat it as
  /// a min cut. The network itself stays healthy — the next reset() restores
  /// exact capacities as usual.
  bool last_flow_complete() const { return last_flow_complete_; }

  /// Restores every capacity to its build-time value (terminal arcs back
  /// to zero) with no allocation, rewriting only the arcs that the previous
  /// query changed — an interrupted one included. Must precede attach_*.
  void reset();
  /// Activates the preallocated s -> slot arc at infinite capacity.
  /// `slot` is the original vertex id the builder registered.
  void attach_source(std::int32_t slot);
  /// Activates the preallocated slot -> t arc at infinite capacity.
  /// Refuses (HT_CHECK) a slot already attached as a source.
  void attach_sink(std::int32_t slot);

  /// Dinic max flow s -> t over the current capacities, in place.
  double max_flow();

  /// After a solve: vertices reachable from s in the residual network (the
  /// canonical inclusion-minimal min cut's source side). The reference is
  /// into a scratch buffer invalidated by the next query on this network.
  const std::vector<char>& source_side();

  /// Approximate heap footprint, for the network cache's "arena.peak_bytes".
  std::size_t memory_bytes() const;

 private:
  void init(NodeId inner_nodes, std::int32_t terminal_slots);
  std::int32_t add_pair(NodeId u, NodeId v, double cap_fwd, double cap_bwd);
  std::int32_t add_arc(NodeId u, NodeId v, double cap) {
    return add_pair(u, v, cap, 0.0);
  }
  std::int32_t add_undirected(NodeId u, NodeId v, double cap) {
    return add_pair(u, v, cap, cap);
  }
  void add_terminal_pair(std::int32_t slot, NodeId source_entry,
                         NodeId sink_exit);
  void freeze();

  static bool positive(double c) { return c > 1e-11; }
  bool bfs();
  double dfs(NodeId v, double limit);

  // Build-time arc list (cleared by freeze()): arcs come in pairs, arc a
  // and its reverse a ^ 1.
  std::vector<NodeId> build_from_;
  std::vector<NodeId> build_to_;
  std::vector<double> build_cap_;

  // Static CSR structure (immutable after freeze()): node u's arcs are
  // head_[offs_[u] .. offs_[u+1]), ordered exactly as the pre-CSR linked
  // list traversed them (reverse insertion order). rev_[a] is the packed
  // id of a's reverse arc.
  std::vector<std::int32_t> offs_;
  std::vector<NodeId> head_;
  std::vector<std::int32_t> rev_;
  std::vector<double> base_cap_;
  std::vector<std::int32_t> source_arc_of_;  // per terminal slot, packed ids
  std::vector<std::int32_t> sink_arc_of_;
  NodeId source_ = -1;
  NodeId sink_ = -1;

  // Per-query state. touched_ lists every arc pair whose capacities left
  // their base values since the last reset(): one entry per pair (the
  // first push on it) plus one per attach_*, so it never outgrows the
  // arcs and the attach calls.
  std::vector<double> cap_;
  std::vector<std::int32_t> touched_;
  std::uint64_t last_augmenting_paths_ = 0;
  std::uint64_t last_search_nodes_ = 0;
  bool last_flow_complete_ = true;

  // Dinic scratch, reused across queries (sized once at freeze()). A level
  // search labels the nodes it enqueues and nothing else, so the two
  // queues and their lengths are also the list of labels the next search
  // must clear.
  std::vector<std::int32_t> level_;       // forward distance, then DFS level
  std::vector<std::int32_t> back_level_;  // distance to t (backward ball)
  std::vector<std::int32_t> iter_;        // current arc index per node
  std::vector<NodeId> fwd_q_;             // forward ball, in BFS order
  std::vector<NodeId> back_q_;            // backward ball, in BFS order
  std::int32_t fwd_len_ = 0;
  std::int32_t back_len_ = 0;
  std::vector<char> reach_;
};

}  // namespace ht::flow
