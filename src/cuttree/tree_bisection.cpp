#include "cuttree/tree_bisection.hpp"

#include <algorithm>
#include <array>

#include "util/check.hpp"
#include "util/run_context.hpp"

namespace ht::cuttree {

namespace {

constexpr double kUnreachable = 1e200;
enum State : int { kCut = 0, kSide0 = 1, kSide1 = 2 };

struct NodeDp {
  // dp[state][j]: min cut weight in the subtree with j counted vertices on
  // side 1; j ranges over [0, subtree_count].
  std::array<std::vector<double>, 3> dp;
};

struct Solver {
  const Tree& t;
  std::vector<std::int32_t> cnt;  // counted vertices embedded at node
  std::vector<std::int32_t> sub;  // counted vertices in subtree
  std::vector<NodeDp> table;
  // Assignment output: per node, how many of its own counted vertices go
  // to side 1.
  std::vector<std::int32_t> own_to_side1;

  explicit Solver(const Tree& tree) : t(tree) {}

  /// Base DP for the node itself (before children merge).
  std::array<std::vector<double>, 3> base(NodeId v) const {
    const auto c = cnt[static_cast<std::size_t>(v)];
    std::array<std::vector<double>, 3> out;
    for (auto& arr : out)
      arr.assign(static_cast<std::size_t>(c) + 1, kUnreachable);
    for (std::int32_t j = 0; j <= c; ++j)
      out[kCut][static_cast<std::size_t>(j)] = t.node_weight(v);
    out[kSide0][0] = 0.0;
    out[kSide1][static_cast<std::size_t>(c)] = 0.0;
    return out;
  }

  /// Best child cost at count j, given the parent's state.
  double child_option(NodeId c, int parent_state, std::int32_t j) const {
    const auto& d = table[static_cast<std::size_t>(c)].dp;
    const auto idx = static_cast<std::size_t>(j);
    double best = d[kCut][idx];
    if (parent_state == kCut) {
      best = std::min(best, std::min(d[kSide0][idx], d[kSide1][idx]));
    } else {
      best = std::min(best, d[static_cast<std::size_t>(parent_state)][idx]);
    }
    return best;
  }

  /// False when the ambient RunContext stopped the run mid-DP (serving
  /// queries carry per-query deadlines); the caller then reports an
  /// invalid result tagged with the run's stop status.
  bool solve() {
    const NodeId n = t.num_nodes();
    table.resize(static_cast<std::size_t>(n));
    sub.assign(static_cast<std::size_t>(n), 0);
    own_to_side1.assign(static_cast<std::size_t>(n), 0);
    for (NodeId v = n - 1; v >= 0; --v) {
      if ((v & 255) == 0 && ht::run_stopped()) return false;
      const auto idx = static_cast<std::size_t>(v);
      sub[idx] = cnt[idx];
      for (NodeId c : t.children(v)) sub[idx] += sub[static_cast<std::size_t>(c)];
      auto dp = base(v);
      for (int s = 0; s < 3; ++s) {
        std::vector<double> cur = dp[static_cast<std::size_t>(s)];
        for (NodeId c : t.children(v)) {
          const auto csub = sub[static_cast<std::size_t>(c)];
          std::vector<double> next(cur.size() + static_cast<std::size_t>(csub),
                                   kUnreachable);
          for (std::size_t j = 0; j < cur.size(); ++j) {
            if (cur[j] >= kUnreachable) continue;
            for (std::int32_t jc = 0; jc <= csub; ++jc) {
              const double cost = cur[j] + child_option(c, s, jc);
              auto& slot = next[j + static_cast<std::size_t>(jc)];
              if (cost < slot) slot = cost;
            }
          }
          cur = std::move(next);
        }
        dp[static_cast<std::size_t>(s)] = std::move(cur);
      }
      table[idx].dp = std::move(dp);
    }
    return true;
  }

  /// Reconstructs the assignment for node v in `state` hitting exactly j.
  void reconstruct(NodeId v, int state, std::int32_t j) {
    const auto idx = static_cast<std::size_t>(v);
    // Recompute the sequential merge to backtrack the child allocations.
    auto dp0 = base(v);
    std::vector<std::vector<double>> steps;
    steps.push_back(dp0[static_cast<std::size_t>(state)]);
    // Copied: the backtrack below walks the children in reverse.
    const auto range = t.children(v);
    const std::vector<NodeId> kids(range.begin(), range.end());
    for (NodeId c : kids) {
      const auto csub = sub[static_cast<std::size_t>(c)];
      const auto& cur = steps.back();
      std::vector<double> next(cur.size() + static_cast<std::size_t>(csub),
                               kUnreachable);
      for (std::size_t jj = 0; jj < cur.size(); ++jj) {
        if (cur[jj] >= kUnreachable) continue;
        for (std::int32_t jc = 0; jc <= csub; ++jc) {
          const double cost = cur[jj] + child_option(c, state, jc);
          auto& slot = next[jj + static_cast<std::size_t>(jc)];
          if (cost < slot) slot = cost;
        }
      }
      steps.push_back(std::move(next));
    }
    // Walk backwards through the children.
    std::int32_t remaining = j;
    std::vector<std::pair<NodeId, std::int32_t>> child_alloc;
    for (std::size_t i = kids.size(); i > 0; --i) {
      const NodeId c = kids[i - 1];
      const auto csub = sub[static_cast<std::size_t>(c)];
      const double target = steps[i][static_cast<std::size_t>(remaining)];
      bool found = false;
      for (std::int32_t jc = 0; jc <= csub && !found; ++jc) {
        if (jc > remaining) break;
        const auto prev = static_cast<std::size_t>(remaining - jc);
        if (prev >= steps[i - 1].size()) continue;
        const double cand =
            steps[i - 1][prev] + child_option(c, state, jc);
        if (std::abs(cand - target) <= 1e-9 * (1.0 + std::abs(target))) {
          child_alloc.push_back({c, jc});
          remaining -= jc;
          found = true;
        }
      }
      HT_CHECK_MSG(found, "tree bisection backtrack failed");
    }
    // Own allocation.
    own_to_side1[idx] = remaining;
    HT_CHECK(0 <= remaining && remaining <= cnt[idx]);
    if (state == kSide0) HT_CHECK(remaining == 0);
    if (state == kSide1) HT_CHECK(remaining == cnt[idx]);
    // Recurse into children with their chosen states.
    for (const auto& [c, jc] : child_alloc) {
      const auto& d = table[static_cast<std::size_t>(c)].dp;
      const double want = child_option(c, state, jc);
      int child_state = kCut;
      const auto jidx = static_cast<std::size_t>(jc);
      if (std::abs(d[kCut][jidx] - want) <= 1e-12 * (1.0 + std::abs(want))) {
        child_state = kCut;
      } else if (state == kCut) {
        child_state =
            d[kSide0][jidx] <= d[kSide1][jidx] ? kSide0 : kSide1;
        if (std::abs(d[static_cast<std::size_t>(child_state)][jidx] - want) >
            1e-9 * (1.0 + std::abs(want))) {
          child_state = child_state == kSide0 ? kSide1 : kSide0;
        }
      } else {
        child_state = state;
      }
      node_state_[static_cast<std::size_t>(c)] =
          static_cast<std::int8_t>(child_state);
      reconstruct(c, child_state, jc);
    }
  }

  std::vector<std::int8_t> node_state_;
};

}  // namespace

TreeBisectionResult balanced_tree_bisection(
    const Tree& t, const std::vector<VertexId>& counted_vertices) {
  TreeBisectionResult out;
  HT_CHECK(counted_vertices.size() % 2 == 0);
  HT_CHECK(!counted_vertices.empty());
  Solver solver(t);
  solver.cnt.assign(static_cast<std::size_t>(t.num_nodes()), 0);
  for (VertexId v : counted_vertices) {
    const NodeId node = t.node_of_vertex(v);
    HT_CHECK(node != -1);
    ++solver.cnt[static_cast<std::size_t>(node)];
  }
  if (!solver.solve()) return out;
  const auto half =
      static_cast<std::int32_t>(counted_vertices.size() / 2);
  const auto& root_dp = solver.table[static_cast<std::size_t>(t.root())].dp;
  int best_state = -1;
  double best = kUnreachable;
  for (int s = 0; s < 3; ++s) {
    const double v = root_dp[static_cast<std::size_t>(s)]
                            [static_cast<std::size_t>(half)];
    if (v < best) {
      best = v;
      best_state = s;
    }
  }
  if (best_state < 0 || best >= kUnreachable) return out;
  solver.node_state_.assign(static_cast<std::size_t>(t.num_nodes()), kCut);
  solver.node_state_[static_cast<std::size_t>(t.root())] =
      static_cast<std::int8_t>(best_state);
  solver.reconstruct(t.root(), best_state, half);

  // Emit per-counted-vertex sides: within a node, the first
  // own_to_side1[node] occurrences go to side 1.
  std::vector<std::int32_t> used(static_cast<std::size_t>(t.num_nodes()), 0);
  out.side.assign(counted_vertices.size(), false);
  for (std::size_t i = 0; i < counted_vertices.size(); ++i) {
    const NodeId node = t.node_of_vertex(counted_vertices[i]);
    const auto nidx = static_cast<std::size_t>(node);
    const int state = solver.node_state_[nidx];
    if (state == kSide1) {
      out.side[i] = true;
    } else if (state == kSide0) {
      out.side[i] = false;
    } else {
      out.side[i] = used[nidx] < solver.own_to_side1[nidx];
      ++used[nidx];
    }
  }
  std::size_t on_one = 0;
  for (bool b : out.side) on_one += b ? 1 : 0;
  HT_CHECK_MSG(on_one == counted_vertices.size() / 2,
               "tree bisection produced unbalanced sides");
  out.tree_cut = best;
  out.valid = true;
  return out;
}

}  // namespace ht::cuttree
