// Standalone Dinic max-flow on a directed network, templated on capacity
// type: the reference the Dinic.* and FlowEngine.* tests cross-check the
// library's one solver (FlowNetwork::max_flow) against. It shares no code
// with the FlowNetwork arena.
//
// Cap = double matches the library: the clique expansion of Lemma 1
// produces capacities 1/(|h|-1), so integral flow is not available. All
// comparisons go through a relative epsilon.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "util/check.hpp"

namespace ht::flow {

using NodeId = std::int32_t;

template <typename Cap>
class Dinic {
 public:
  static constexpr Cap kInfinity = std::numeric_limits<Cap>::max() / 4;

  explicit Dinic(NodeId num_nodes) : first_out_(num_nodes, -1) {}

  NodeId num_nodes() const { return static_cast<NodeId>(first_out_.size()); }

  NodeId add_node() {
    first_out_.push_back(-1);
    return num_nodes() - 1;
  }

  /// Directed arc u -> v with capacity cap (reverse capacity 0).
  /// Returns the arc index; the paired reverse arc is index+1.
  std::int32_t add_arc(NodeId u, NodeId v, Cap cap) {
    return add_pair(u, v, cap, Cap{0});
  }

  /// Undirected edge: capacity cap in both directions sharing residual.
  std::int32_t add_undirected(NodeId u, NodeId v, Cap cap) {
    return add_pair(u, v, cap, cap);
  }

  struct Arc {
    NodeId to;
    std::int32_t next;  // next arc out of the same tail, -1 terminates
    Cap cap;            // remaining capacity
  };

  const Arc& arc(std::int32_t a) const {
    return arcs_[static_cast<std::size_t>(a)];
  }
  Cap original_capacity(std::int32_t a) const {
    // cap(a) + flow(a) where flow(a) = residual gained by reverse arc; for a
    // forward arc of a directed pair this is cap + (rev.cap - rev.orig).
    return orig_[static_cast<std::size_t>(a)];
  }
  Cap flow_on(std::int32_t a) const {
    return orig_[static_cast<std::size_t>(a)] -
           arcs_[static_cast<std::size_t>(a)].cap;
  }
  std::int32_t num_arcs() const { return static_cast<std::int32_t>(arcs_.size()); }

  /// Computes max flow from s to t. May be called once per instance.
  Cap max_flow(NodeId s, NodeId t) {
    HT_CHECK(s != t);
    source_ = s;
    sink_ = t;
    Cap total{0};
    while (bfs(s, t)) {
      iter_.assign(first_out_.begin(), first_out_.end());
      for (;;) {
        const Cap pushed = dfs(s, t, kInfinity);
        if (!positive(pushed)) break;
        total += pushed;
      }
    }
    return total;
  }

  /// After max_flow: vertices reachable from the source in the residual
  /// network (the canonical minimum cut's source side).
  std::vector<bool> min_cut_source_side() const {
    std::vector<bool> reachable(static_cast<std::size_t>(num_nodes()), false);
    std::vector<NodeId> stack{source_};
    reachable[static_cast<std::size_t>(source_)] = true;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (std::int32_t a = first_out_[static_cast<std::size_t>(v)]; a != -1;
           a = arcs_[static_cast<std::size_t>(a)].next) {
        const Arc& arc = arcs_[static_cast<std::size_t>(a)];
        if (!positive(arc.cap)) continue;
        if (reachable[static_cast<std::size_t>(arc.to)]) continue;
        reachable[static_cast<std::size_t>(arc.to)] = true;
        stack.push_back(arc.to);
      }
    }
    return reachable;
  }

 private:
  static bool positive(Cap c) {
    if constexpr (std::numeric_limits<Cap>::is_integer) {
      return c > 0;
    } else {
      return c > Cap(1e-11);
    }
  }

  std::int32_t add_pair(NodeId u, NodeId v, Cap cap_fwd, Cap cap_bwd) {
    HT_CHECK(0 <= u && u < num_nodes());
    HT_CHECK(0 <= v && v < num_nodes());
    HT_CHECK(cap_fwd >= Cap{0} && cap_bwd >= Cap{0});
    const auto a = static_cast<std::int32_t>(arcs_.size());
    arcs_.push_back(Arc{v, first_out_[static_cast<std::size_t>(u)], cap_fwd});
    orig_.push_back(cap_fwd);
    first_out_[static_cast<std::size_t>(u)] = a;
    arcs_.push_back(Arc{u, first_out_[static_cast<std::size_t>(v)], cap_bwd});
    orig_.push_back(cap_bwd);
    first_out_[static_cast<std::size_t>(v)] = a + 1;
    return a;
  }

  bool bfs(NodeId s, NodeId t) {
    level_.assign(static_cast<std::size_t>(num_nodes()), -1);
    std::queue<NodeId> q;
    level_[static_cast<std::size_t>(s)] = 0;
    q.push(s);
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      for (std::int32_t a = first_out_[static_cast<std::size_t>(v)]; a != -1;
           a = arcs_[static_cast<std::size_t>(a)].next) {
        const Arc& arc = arcs_[static_cast<std::size_t>(a)];
        if (!positive(arc.cap)) continue;
        if (level_[static_cast<std::size_t>(arc.to)] != -1) continue;
        level_[static_cast<std::size_t>(arc.to)] =
            level_[static_cast<std::size_t>(v)] + 1;
        q.push(arc.to);
      }
    }
    return level_[static_cast<std::size_t>(t)] != -1;
  }

  Cap dfs(NodeId v, NodeId t, Cap limit) {
    if (v == t) return limit;
    for (std::int32_t& a = iter_[static_cast<std::size_t>(v)]; a != -1;
         a = arcs_[static_cast<std::size_t>(a)].next) {
      Arc& arc = arcs_[static_cast<std::size_t>(a)];
      if (!positive(arc.cap)) continue;
      if (level_[static_cast<std::size_t>(arc.to)] !=
          level_[static_cast<std::size_t>(v)] + 1)
        continue;
      const Cap pushed =
          dfs(arc.to, t, arc.cap < limit ? arc.cap : limit);
      if (positive(pushed)) {
        arc.cap -= pushed;
        arcs_[static_cast<std::size_t>(a ^ 1)].cap += pushed;
        return pushed;
      }
    }
    return Cap{0};
  }

  std::vector<std::int32_t> first_out_;
  std::vector<Arc> arcs_;
  std::vector<Cap> orig_;
  std::vector<std::int32_t> level_;
  std::vector<std::int32_t> iter_;
  NodeId source_ = -1;
  NodeId sink_ = -1;
};

}  // namespace ht::flow
