#include "flow/flow_network.hpp"

#include <algorithm>
#include <atomic>

#include "obs/metrics.hpp"
#include "util/perf_counters.hpp"
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
  iter_.assign(n, 0);
  bfs_q_.assign(n, 0);
  reach_.assign(n, 0);
  PerfCounters::global().add_flow_build();
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
  std::copy(base_cap_.begin(), base_cap_.end(), cap_.begin());
  ++queries_;
}

void FlowNetwork::attach_source(std::int32_t slot) {
  HT_CHECK(0 <= slot &&
           slot < static_cast<std::int32_t>(source_arc_of_.size()));
  cap_[static_cast<std::size_t>(
      source_arc_of_[static_cast<std::size_t>(slot)])] = kInfiniteCapacity;
}

void FlowNetwork::attach_sink(std::int32_t slot) {
  HT_CHECK(0 <= slot &&
           slot < static_cast<std::int32_t>(sink_arc_of_.size()));
  cap_[static_cast<std::size_t>(
      sink_arc_of_[static_cast<std::size_t>(slot)])] = kInfiniteCapacity;
}

bool FlowNetwork::bfs() {
  std::fill(level_.begin(), level_.end(), -1);
  const std::int32_t* offs = offs_.data();
  const NodeId* head = head_.data();
  const double* cap = cap_.data();
  NodeId* q = bfs_q_.data();
  std::int32_t qhead = 0;
  std::int32_t qtail = 0;
  std::int32_t sink_level = -1;
  level_[static_cast<std::size_t>(source_)] = 0;
  q[qtail++] = source_;
  while (qhead < qtail) {
    const NodeId v = q[qhead++];
    const std::int32_t lv = level_[static_cast<std::size_t>(v)];
    // Once the sink's level L is known, nodes at level >= L - 1 cannot
    // start a shortest s-t path segment: their out-neighbors would sit at
    // level >= L, and only the (already labelled) sink is useful there.
    // The queue is level-ordered, so the first such pop ends the phase.
    // Nodes this skips are exactly the ones the blocking-flow DFS would
    // enter and leave without pushing, so pruning them keeps the
    // augmentation sequence — and therefore every output — bit-identical.
    if (sink_level != -1 && lv + 1 >= sink_level) break;
    const std::int32_t end = offs[v + 1];
    for (std::int32_t a = offs[v]; a < end; ++a) {
      if (!positive(cap[a])) continue;
      const NodeId to = head[a];
      if (level_[static_cast<std::size_t>(to)] != -1) continue;
      level_[static_cast<std::size_t>(to)] = lv + 1;
      if (to == sink_) {
        sink_level = lv + 1;
        continue;  // never expand the sink
      }
      q[qtail++] = to;
    }
  }
  return sink_level != -1;
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
      cap_[static_cast<std::size_t>(a)] -= pushed;
      cap_[static_cast<std::size_t>(rev_[static_cast<std::size_t>(a)])] +=
          pushed;
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
    std::copy(offs_.begin(), offs_.begin() + num_nodes(), iter_.begin());
    for (;;) {
      const double pushed = dfs(source_, kInfiniteCapacity);
      if (!positive(pushed)) break;
      total += pushed;
      ++paths;
    }
  }
  last_augmenting_paths_ = paths;
  augmenting_paths_histogram().record(paths);
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
         bytes(cap_) + bytes(source_arc_of_) + bytes(sink_arc_of_) +
         bytes(level_) + bytes(iter_) + bytes(bfs_q_) + bytes(reach_) +
         bytes(build_from_) + bytes(build_to_) + bytes(build_cap_);
}

}  // namespace ht::flow
