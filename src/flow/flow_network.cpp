#include "flow/flow_network.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "obs/metrics.hpp"
#include "util/run_context.hpp"

namespace ht::flow {

namespace {

std::atomic<bool> g_flow_reuse_enabled{true};

/// Registered once; per-query augmenting-path counts land here so a
/// metrics snapshot shows the flow-work distribution of a whole run.
ht::obs::Histogram& augmenting_paths_histogram() {
  static ht::obs::Histogram& h =
      ht::obs::MetricsRegistry::global().histogram("flow.augmenting_paths");
  return h;
}

/// Per-query level-search work (FlowNetwork::last_search_nodes()).
ht::obs::Histogram& search_nodes_histogram() {
  static ht::obs::Histogram& h =
      ht::obs::MetricsRegistry::global().histogram("flow.search_nodes");
  return h;
}

/// Networks built from scratch (engine-cache misses and fresh builds).
ht::obs::Counter& builds_counter() {
  static ht::obs::Counter& c =
      ht::obs::MetricsRegistry::global().counter("flow.builds");
  return c;
}

}  // namespace

bool flow_reuse_enabled() {
  return g_flow_reuse_enabled.load(std::memory_order_relaxed);
}

FlowReuseScope::FlowReuseScope(bool enable)
    : previous_(g_flow_reuse_enabled.exchange(enable,
                                              std::memory_order_relaxed)) {}

FlowReuseScope::~FlowReuseScope() {
  g_flow_reuse_enabled.store(previous_, std::memory_order_relaxed);
}

void FlowNetwork::init(NodeId inner_nodes, std::int32_t terminal_slots) {
  HT_CHECK(inner_nodes >= 0 && terminal_slots >= 0);
  // offs_ doubles as the node-count carrier during the build phase; its
  // contents only become CSR offsets in freeze().
  offs_.assign(static_cast<std::size_t>(inner_nodes) + 3, 0);
  source_ = inner_nodes;
  sink_ = inner_nodes + 1;
  source_arc_of_.assign(static_cast<std::size_t>(terminal_slots), -1);
  sink_arc_of_.assign(static_cast<std::size_t>(terminal_slots), -1);
}

std::int32_t FlowNetwork::add_pair(NodeId u, NodeId v, double cap_fwd,
                                   double cap_bwd) {
  HT_DCHECK(0 <= u && u < num_nodes());
  HT_DCHECK(0 <= v && v < num_nodes());
  HT_DCHECK(cap_fwd >= 0.0 && cap_bwd >= 0.0);
  const auto a = static_cast<std::int32_t>(build_to_.size());
  build_from_.push_back(u);
  build_to_.push_back(v);
  build_cap_.push_back(cap_fwd);
  build_from_.push_back(v);
  build_to_.push_back(u);
  build_cap_.push_back(cap_bwd);
  return a;
}

void FlowNetwork::add_terminal_pair(std::int32_t slot, NodeId source_entry,
                                    NodeId sink_exit) {
  // Dormant at capacity 0: positive() filters them out of every traversal
  // until attach_* flips them to kInfiniteCapacity for one query.
  source_arc_of_[static_cast<std::size_t>(slot)] =
      add_arc(source_, source_entry, 0.0);
  sink_arc_of_[static_cast<std::size_t>(slot)] =
      add_arc(sink_exit, sink_, 0.0);
}

void FlowNetwork::freeze() {
  const auto n = static_cast<std::size_t>(num_nodes());
  const std::size_t arcs = build_to_.size();

  // Pack the arc list into CSR, preserving the traversal order of the
  // linked-list layout this replaced: that layout walked each node's arcs
  // in reverse insertion order, so fill each node's range from the back
  // while scanning arcs in insertion order. Golden-hash tests depend on
  // this order being exact.
  std::fill(offs_.begin(), offs_.end(), 0);
  for (std::size_t a = 0; a < arcs; ++a)
    ++offs_[static_cast<std::size_t>(build_from_[a]) + 1];
  for (std::size_t u = 0; u < n; ++u) offs_[u + 1] += offs_[u];
  std::vector<std::int32_t> fill(offs_.begin() + 1, offs_.begin() + 1 +
                                                        static_cast<std::ptrdiff_t>(n));
  std::vector<std::int32_t> pos(arcs);
  for (std::size_t a = 0; a < arcs; ++a)
    pos[a] = --fill[static_cast<std::size_t>(build_from_[a])];

  head_.resize(arcs);
  rev_.resize(arcs);
  base_cap_.resize(arcs);
  for (std::size_t a = 0; a < arcs; ++a) {
    const auto p = static_cast<std::size_t>(pos[a]);
    head_[p] = build_to_[a];
    base_cap_[p] = build_cap_[a];
    rev_[p] = pos[a ^ 1];
  }
  for (auto& a : source_arc_of_) a = pos[static_cast<std::size_t>(a)];
  for (auto& a : sink_arc_of_) a = pos[static_cast<std::size_t>(a)];

  build_from_ = {};
  build_to_ = {};
  build_cap_ = {};

  cap_ = base_cap_;
  level_.assign(n, -1);
  back_level_.assign(n, -1);
  iter_.assign(n, 0);
  fwd_q_.assign(n, 0);
  back_q_.assign(n, 0);
  reach_.assign(n, 0);
  builds_counter().add();
}

FlowNetwork FlowNetwork::edge_cut_network(const ht::graph::Graph& g) {
  HT_CHECK(g.finalized());
  FlowNetwork net;
  net.init(g.num_vertices(), g.num_vertices());
  for (ht::graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    net.add_undirected(edge.u, edge.v, edge.weight);
  }
  for (ht::graph::VertexId v = 0; v < g.num_vertices(); ++v)
    net.add_terminal_pair(v, v, v);
  net.freeze();
  return net;
}

FlowNetwork FlowNetwork::vertex_cut_network(const ht::graph::Graph& g) {
  HT_CHECK(g.finalized());
  const ht::graph::VertexId n = g.num_vertices();
  auto v_in = [](ht::graph::VertexId v) { return static_cast<NodeId>(2 * v); };
  auto v_out = [](ht::graph::VertexId v) {
    return static_cast<NodeId>(2 * v + 1);
  };
  FlowNetwork net;
  net.init(2 * n, n);
  for (ht::graph::VertexId v = 0; v < n; ++v)
    net.add_arc(v_in(v), v_out(v), g.vertex_weight(v));
  for (const auto& edge : g.edges()) {
    net.add_arc(v_out(edge.u), v_in(edge.v), kInfiniteCapacity);
    net.add_arc(v_out(edge.v), v_in(edge.u), kInfiniteCapacity);
  }
  // Entering at v_in (before the capacity arc) lets the cut pick A and B
  // vertices themselves, matching the paper's definition of a vertex cut.
  for (ht::graph::VertexId v = 0; v < n; ++v)
    net.add_terminal_pair(v, v_in(v), v_out(v));
  net.freeze();
  return net;
}

FlowNetwork FlowNetwork::hyperedge_cut_network(
    const ht::hypergraph::Hypergraph& h) {
  HT_CHECK(h.finalized());
  const auto n = h.num_vertices();
  const auto m = h.num_edges();
  auto e_in = [n](ht::hypergraph::EdgeId e) {
    return static_cast<NodeId>(n + 2 * e);
  };
  auto e_out = [n](ht::hypergraph::EdgeId e) {
    return static_cast<NodeId>(n + 2 * e + 1);
  };
  FlowNetwork net;
  net.init(n + 2 * m, n);
  for (ht::hypergraph::EdgeId e = 0; e < m; ++e) {
    net.add_arc(e_in(e), e_out(e), h.edge_weight(e));
    for (auto v : h.pins(e)) {
      net.add_arc(v, e_in(e), kInfiniteCapacity);
      net.add_arc(e_out(e), v, kInfiniteCapacity);
    }
  }
  for (ht::hypergraph::VertexId v = 0; v < n; ++v)
    net.add_terminal_pair(v, v, v);
  net.freeze();
  return net;
}

void FlowNetwork::reset() {
  HT_CHECK(source_ >= 0);
  for (const std::int32_t a : touched_) {
    const auto r = static_cast<std::size_t>(rev_[static_cast<std::size_t>(a)]);
    cap_[static_cast<std::size_t>(a)] = base_cap_[static_cast<std::size_t>(a)];
    cap_[r] = base_cap_[r];
  }
  touched_.clear();
}

void FlowNetwork::attach_source(std::int32_t slot) {
  HT_CHECK(0 <= slot &&
           slot < static_cast<std::int32_t>(source_arc_of_.size()));
  const std::int32_t a = source_arc_of_[static_cast<std::size_t>(slot)];
  cap_[static_cast<std::size_t>(a)] = kInfiniteCapacity;
  touched_.push_back(a);
}

void FlowNetwork::attach_sink(std::int32_t slot) {
  HT_CHECK(0 <= slot &&
           slot < static_cast<std::int32_t>(sink_arc_of_.size()));
  const std::int32_t s = source_arc_of_[static_cast<std::size_t>(slot)];
  HT_CHECK_MSG(cap_[static_cast<std::size_t>(s)] != kInfiniteCapacity,
               "A and B intersect at vertex " << slot);
  const std::int32_t a = sink_arc_of_[static_cast<std::size_t>(slot)];
  cap_[static_cast<std::size_t>(a)] = kInfiniteCapacity;
  touched_.push_back(a);
}

// Meet-in-the-middle level search. A forward ball grows from s over
// residual arcs and a backward ball from t over reversed residual arcs
// (arc b leaving v stands for head_[b] -> v through rev_[b]), one whole
// level at a time, always on the side with the smaller frontier (ties go
// forward). The search stops after the first level in which a node carries
// both labels; then every such node has ds + dt = d, the s-t distance, and
// the balls' radii add up to d. Neither terminal is ever expanded: the
// meet ends the search before its frontier would be.
//
// The DFS then sees level ds on forward-ball nodes and d - dt on nodes
// only in the backward ball (t gets d). Every node of a shortest residual
// s-t path lies in one ball and so carries its true ds; an off-path node
// only in the backward ball gets d - dt < ds, and the DFS, which starts at
// level 0 and steps from l to l + 1 only, never reaches it. The level
// graph therefore has exactly the s-t paths of a full BFS, the DFS pushes
// the same paths in the same arc order, and only dead ends it used to
// enter and leave are gone — every phase, flow, residual and witness is
// bit-identical to a forward search.
bool FlowNetwork::bfs() {
  const std::int32_t* offs = offs_.data();
  const NodeId* head = head_.data();
  const std::int32_t* rev = rev_.data();
  const double* cap = cap_.data();
  std::int32_t* level = level_.data();
  std::int32_t* back = back_level_.data();
  std::int32_t* iter = iter_.data();
  NodeId* fq = fwd_q_.data();
  NodeId* bq = back_q_.data();
  // Clear only what the previous search labelled.
  for (std::int32_t i = 0; i < fwd_len_; ++i) level[fq[i]] = -1;
  for (std::int32_t i = 0; i < back_len_; ++i) {
    level[bq[i]] = -1;
    back[bq[i]] = -1;
  }

  constexpr std::int32_t kNoMeet = std::numeric_limits<std::int32_t>::max();
  std::int32_t d = kNoMeet;
  std::int32_t fhead = 0, ftail = 0, fradius = 0;
  std::int32_t bhead = 0, btail = 0, bradius = 0;
  level[source_] = 0;
  fq[ftail++] = source_;
  back[sink_] = 0;
  bq[btail++] = sink_;
  // An empty frontier closes its ball without a meet: no augmenting path.
  while (d == kNoMeet && fhead < ftail && bhead < btail) {
    if (ftail - fhead <= btail - bhead) {
      const std::int32_t next = ++fradius;
      for (const std::int32_t frontier_end = ftail; fhead < frontier_end;
           ++fhead) {
        const NodeId v = fq[fhead];
        const std::int32_t end = offs[v + 1];
        for (std::int32_t a = offs[v]; a < end; ++a) {
          if (!positive(cap[a])) continue;
          const NodeId to = head[a];
          if (level[to] != -1) continue;
          level[to] = next;
          fq[ftail++] = to;
          if (back[to] != -1) d = std::min(d, next + back[to]);
        }
      }
    } else {
      const std::int32_t next = ++bradius;
      for (const std::int32_t frontier_end = btail; bhead < frontier_end;
           ++bhead) {
        const NodeId v = bq[bhead];
        const std::int32_t end = offs[v + 1];
        for (std::int32_t b = offs[v]; b < end; ++b) {
          if (!positive(cap[rev[b]])) continue;
          const NodeId from = head[b];
          if (back[from] != -1) continue;
          back[from] = next;
          bq[btail++] = from;
          if (level[from] != -1) d = std::min(d, level[from] + next);
        }
      }
    }
  }
  fwd_len_ = ftail;
  back_len_ = btail;
  last_search_nodes_ += static_cast<std::uint64_t>(ftail + btail);
  if (d == kNoMeet) return false;

  // Hand the DFS its levels and a fresh current-arc pointer on exactly the
  // labelled nodes; it never steps onto an unlabelled one.
  for (std::int32_t i = 0; i < ftail; ++i) iter[fq[i]] = offs[fq[i]];
  for (std::int32_t i = 0; i < btail; ++i) {
    const NodeId v = bq[i];
    if (level[v] == -1) level[v] = d - back[v];
    iter[v] = offs[v];
  }
  return true;
}

double FlowNetwork::dfs(NodeId v, double limit) {
  if (v == sink_) return limit;
  const std::int32_t end = offs_[static_cast<std::size_t>(v) + 1];
  const std::int32_t next_level = level_[static_cast<std::size_t>(v)] + 1;
  for (std::int32_t& a = iter_[static_cast<std::size_t>(v)]; a < end; ++a) {
    const double cap = cap_[static_cast<std::size_t>(a)];
    if (!positive(cap)) continue;
    const NodeId to = head_[static_cast<std::size_t>(a)];
    if (level_[static_cast<std::size_t>(to)] != next_level) continue;
    const double pushed = dfs(to, cap < limit ? cap : limit);
    if (positive(pushed)) {
      const auto fa = static_cast<std::size_t>(a);
      const auto r = static_cast<std::size_t>(rev_[fa]);
      // Record the pair the first time it leaves its base capacities;
      // while it differs from them it is already on the list.
      if (cap_[fa] == base_cap_[fa] && cap_[r] == base_cap_[r])
        touched_.push_back(a);
      cap_[fa] -= pushed;
      cap_[r] += pushed;
      return pushed;
    }
  }
  return 0.0;
}

double FlowNetwork::max_flow() {
  HT_CHECK(source_ >= 0);
  RunState* run = current_run_state();
  const std::uint64_t stride =
      run != nullptr
          ? std::max<std::uint32_t>(1, run->context().flow_check_rounds)
          : 0;
  double total = 0.0;
  std::uint64_t paths = 0;
  std::uint64_t rounds = 0;
  last_flow_complete_ = true;
  last_search_nodes_ = 0;
  while (bfs()) {
    // One poll per `stride` BFS phases (one relaxed load per phase once a
    // stop has latched elsewhere): an interrupted solve abandons the
    // remaining phases and reports last_flow_complete() == false.
    if (run != nullptr) {
      ++rounds;
      if (run->stopped() ||
          (rounds % stride == 0 && !run->check().ok())) {
        last_flow_complete_ = false;
        break;
      }
    }
    for (;;) {
      const double pushed = dfs(source_, kInfiniteCapacity);
      if (!positive(pushed)) break;
      total += pushed;
      ++paths;
    }
  }
  last_augmenting_paths_ = paths;
  augmenting_paths_histogram().record(paths);
  search_nodes_histogram().record(last_search_nodes_);
  return total;
}

const std::vector<char>& FlowNetwork::source_side() {
  HT_CHECK(source_ >= 0);
  std::fill(reach_.begin(), reach_.end(), 0);
  // iter_ is dead between solves; borrow it as the DFS stack.
  std::int32_t top = 0;
  iter_[static_cast<std::size_t>(top++)] = source_;
  reach_[static_cast<std::size_t>(source_)] = 1;
  while (top > 0) {
    const NodeId v = iter_[static_cast<std::size_t>(--top)];
    const std::int32_t end = offs_[static_cast<std::size_t>(v) + 1];
    for (std::int32_t a = offs_[static_cast<std::size_t>(v)]; a < end; ++a) {
      if (!positive(cap_[static_cast<std::size_t>(a)])) continue;
      const NodeId to = head_[static_cast<std::size_t>(a)];
      if (reach_[static_cast<std::size_t>(to)]) continue;
      reach_[static_cast<std::size_t>(to)] = 1;
      iter_[static_cast<std::size_t>(top++)] = to;
    }
  }
  return reach_;
}

std::size_t FlowNetwork::memory_bytes() const {
  auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return bytes(offs_) + bytes(head_) + bytes(rev_) + bytes(base_cap_) +
         bytes(cap_) + bytes(touched_) + bytes(source_arc_of_) +
         bytes(sink_arc_of_) + bytes(level_) + bytes(back_level_) +
         bytes(iter_) + bytes(fwd_q_) + bytes(back_q_) + bytes(reach_) +
         bytes(build_from_) + bytes(build_to_) + bytes(build_cap_);
}

}  // namespace ht::flow
