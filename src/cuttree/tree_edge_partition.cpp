#include "cuttree/tree_edge_partition.hpp"

#include <algorithm>
#include <array>

#include "util/check.hpp"
#include "util/run_context.hpp"

namespace ht::cuttree {

namespace {

constexpr double kUnreachable = 1e200;

struct Solver {
  const Tree& t;
  std::vector<std::int32_t> cnt;   // counted vertices at node
  std::vector<std::int32_t> sub;   // counted vertices in subtree
  // dp[node][side][j]: min edge cut inside the subtree with the node's own
  // component on `side` and j counted vertices on side 1.
  std::vector<std::array<std::vector<double>, 2>> dp;

  explicit Solver(const Tree& tree) : t(tree) {}

  /// False when the ambient RunContext stopped the run mid-DP (per-query
  /// deadlines on the serving path); the caller reports invalid then.
  bool solve() {
    const NodeId n = t.num_nodes();
    dp.resize(static_cast<std::size_t>(n));
    sub.assign(static_cast<std::size_t>(n), 0);
    for (NodeId v = n - 1; v >= 0; --v) {
      if ((v & 255) == 0 && ht::run_stopped()) return false;
      const auto idx = static_cast<std::size_t>(v);
      sub[idx] = cnt[idx];
      for (NodeId c : t.children(v))
        sub[idx] += sub[static_cast<std::size_t>(c)];
      auto& d = dp[idx];
      const auto own = cnt[idx];
      // Base: the node's own counted vertices follow the node's side.
      for (int s = 0; s < 2; ++s) {
        d[static_cast<std::size_t>(s)].assign(
            static_cast<std::size_t>(own) + 1, kUnreachable);
        d[static_cast<std::size_t>(s)]
         [static_cast<std::size_t>(s == 1 ? own : 0)] = 0.0;
      }
      for (NodeId c : t.children(v)) {
        const auto& dc = dp[static_cast<std::size_t>(c)];
        const double ew = t.edge_weight(c);
        const auto csub = sub[static_cast<std::size_t>(c)];
        for (int s = 0; s < 2; ++s) {
          auto& cur = d[static_cast<std::size_t>(s)];
          std::vector<double> next(cur.size() + static_cast<std::size_t>(csub),
                                   kUnreachable);
          for (std::size_t j = 0; j < cur.size(); ++j) {
            if (cur[j] >= kUnreachable) continue;
            for (std::int32_t jc = 0; jc <= csub; ++jc) {
              const auto cidx = static_cast<std::size_t>(jc);
              const double same = dc[static_cast<std::size_t>(s)][cidx];
              const double flip =
                  dc[static_cast<std::size_t>(1 - s)][cidx] + ew;
              const double best = std::min(same, flip);
              if (best >= kUnreachable) continue;
              auto& slot = next[j + cidx];
              slot = std::min(slot, cur[j] + best);
            }
          }
          cur = std::move(next);
        }
      }
    }
    return true;
  }

  void reconstruct(NodeId v, int side, std::int64_t j,
                   std::vector<std::int8_t>& node_side) {
    node_side[static_cast<std::size_t>(v)] = static_cast<std::int8_t>(side);
    // Re-run the sequential merge to backtrack child allocations/sides.
    const auto idx = static_cast<std::size_t>(v);
    const auto own = cnt[idx];
    std::vector<std::vector<double>> steps;
    {
      std::vector<double> base(static_cast<std::size_t>(own) + 1,
                               kUnreachable);
      base[static_cast<std::size_t>(side == 1 ? own : 0)] = 0.0;
      steps.push_back(std::move(base));
    }
    // Copied: the backtrack below walks the children in reverse.
    const auto range = t.children(v);
    const std::vector<NodeId> kids(range.begin(), range.end());
    for (NodeId c : kids) {
      const auto& dc = dp[static_cast<std::size_t>(c)];
      const double ew = t.edge_weight(c);
      const auto csub = sub[static_cast<std::size_t>(c)];
      const auto& cur = steps.back();
      std::vector<double> next(cur.size() + static_cast<std::size_t>(csub),
                               kUnreachable);
      for (std::size_t jj = 0; jj < cur.size(); ++jj) {
        if (cur[jj] >= kUnreachable) continue;
        for (std::int32_t jc = 0; jc <= csub; ++jc) {
          const auto cidx = static_cast<std::size_t>(jc);
          const double best =
              std::min(dc[static_cast<std::size_t>(side)][cidx],
                       dc[static_cast<std::size_t>(1 - side)][cidx] + ew);
          if (best >= kUnreachable) continue;
          auto& slot = next[jj + cidx];
          slot = std::min(slot, cur[jj] + best);
        }
      }
      steps.push_back(std::move(next));
    }
    std::int64_t remaining = j;
    for (std::size_t i = kids.size(); i > 0; --i) {
      const NodeId c = kids[i - 1];
      const auto& dc = dp[static_cast<std::size_t>(c)];
      const double ew = t.edge_weight(c);
      const auto csub = sub[static_cast<std::size_t>(c)];
      const double target = steps[i][static_cast<std::size_t>(remaining)];
      bool found = false;
      for (std::int32_t jc = 0; jc <= csub && !found; ++jc) {
        if (jc > remaining) break;
        const auto prev = static_cast<std::size_t>(remaining - jc);
        if (prev >= steps[i - 1].size() ||
            steps[i - 1][prev] >= kUnreachable)
          continue;
        const auto cidx = static_cast<std::size_t>(jc);
        const double same = dc[static_cast<std::size_t>(side)][cidx];
        const double flip = dc[static_cast<std::size_t>(1 - side)][cidx] + ew;
        for (int child_side_choice = 0; child_side_choice < 2;
             ++child_side_choice) {
          const int cs = child_side_choice == 0 ? side : 1 - side;
          const double cost = child_side_choice == 0 ? same : flip;
          if (cost >= kUnreachable) continue;
          if (std::abs(steps[i - 1][prev] + cost - target) <=
              1e-9 * (1.0 + std::abs(target))) {
            reconstruct(c, cs, jc, node_side);
            remaining -= jc;
            found = true;
            break;
          }
        }
      }
      HT_CHECK_MSG(found, "tree edge partition backtrack failed");
    }
    HT_CHECK(remaining == (side == 1 ? own : 0));
  }
};

}  // namespace

TreeEdgePartitionResult tree_edge_partition(
    const Tree& t, const std::vector<VertexId>& counted,
    std::int64_t target_side1) {
  TreeEdgePartitionResult out;
  HT_CHECK(!counted.empty());
  HT_CHECK(0 <= target_side1 &&
           target_side1 <= static_cast<std::int64_t>(counted.size()));
  Solver solver(t);
  solver.cnt.assign(static_cast<std::size_t>(t.num_nodes()), 0);
  for (VertexId v : counted) {
    const NodeId node = t.node_of_vertex(v);
    HT_CHECK(node != -1);
    ++solver.cnt[static_cast<std::size_t>(node)];
  }
  if (!solver.solve()) return out;
  const auto& root_dp = solver.dp[static_cast<std::size_t>(t.root())];
  int best_side = -1;
  double best = kUnreachable;
  for (int s = 0; s < 2; ++s) {
    const double v =
        root_dp[static_cast<std::size_t>(s)]
               [static_cast<std::size_t>(target_side1)];
    if (v < best) {
      best = v;
      best_side = s;
    }
  }
  if (best_side < 0 || best >= kUnreachable) return out;

  std::vector<std::int8_t> node_side(
      static_cast<std::size_t>(t.num_nodes()), 0);
  solver.reconstruct(t.root(), best_side, target_side1, node_side);
  out.side.assign(counted.size(), false);
  for (std::size_t i = 0; i < counted.size(); ++i) {
    const NodeId node = t.node_of_vertex(counted[i]);
    out.side[i] = node_side[static_cast<std::size_t>(node)] == 1;
  }
  std::int64_t on_one = 0;
  for (bool b : out.side) on_one += b ? 1 : 0;
  HT_CHECK_MSG(on_one == target_side1, "tree edge partition imbalance");
  out.tree_cut = best;
  out.valid = true;
  return out;
}

TreeEdgePartitionResult balanced_tree_edge_bisection(
    const Tree& t, const std::vector<VertexId>& counted) {
  HT_CHECK(counted.size() % 2 == 0);
  return tree_edge_partition(t, counted,
                             static_cast<std::int64_t>(counted.size() / 2));
}

}  // namespace ht::cuttree
