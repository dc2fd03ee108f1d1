#include "partition/kway.hpp"

#include <algorithm>

#include "partition/fm.hpp"
#include "partition/unbalanced_kcut.hpp"

namespace ht::partition {

using ht::hypergraph::EdgeId;
using ht::hypergraph::Hypergraph;
using ht::hypergraph::VertexId;

double kway_cut(const Hypergraph& h, const std::vector<std::int32_t>& part) {
  double total = 0.0;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    const auto pins = h.pins(e);
    const std::int32_t first = part[static_cast<std::size_t>(pins.front())];
    for (VertexId v : pins) {
      if (part[static_cast<std::size_t>(v)] != first) {
        total += h.edge_weight(e);
        break;
      }
    }
  }
  return total;
}

double kway_connectivity(const Hypergraph& h,
                         const std::vector<std::int32_t>& part) {
  double total = 0.0;
  std::vector<std::int32_t> seen;
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    seen.clear();
    for (VertexId v : h.pins(e)) {
      const std::int32_t p = part[static_cast<std::size_t>(v)];
      if (std::find(seen.begin(), seen.end(), p) == seen.end())
        seen.push_back(p);
    }
    total += h.edge_weight(e) *
             static_cast<double>(static_cast<std::int32_t>(seen.size()) - 1);
  }
  return total;
}

void validate_kway(const Hypergraph& h, const KWaySolution& solution) {
  HT_CHECK(solution.valid);
  const VertexId n = h.num_vertices();
  HT_CHECK(solution.part.size() == static_cast<std::size_t>(n));
  HT_CHECK(solution.k >= 1 && n % solution.k == 0);
  std::vector<std::int32_t> counts(static_cast<std::size_t>(solution.k), 0);
  for (std::int32_t p : solution.part) {
    HT_CHECK(0 <= p && p < solution.k);
    ++counts[static_cast<std::size_t>(p)];
  }
  for (std::int32_t c : counts)
    HT_CHECK_MSG(c == n / solution.k, "unbalanced k-way part");
  HT_CHECK(std::abs(kway_cut(h, solution.part) - solution.cut) <= 1e-6);
  HT_CHECK(std::abs(kway_connectivity(h, solution.part) -
                    solution.connectivity) <= 1e-6);
}

namespace {

KWaySolution finish(const Hypergraph& h, std::vector<std::int32_t> part,
                    std::int32_t k) {
  KWaySolution out;
  out.part = std::move(part);
  out.k = k;
  out.cut = kway_cut(h, out.part);
  out.connectivity = kway_connectivity(h, out.part);
  out.valid = true;
  return out;
}

/// Recursive helper: bisect the sub-hypergraph induced by `vertices` into
/// `parts` final parts, writing ids [first_part, first_part + parts).
void recurse(const Hypergraph& h, const std::vector<VertexId>& vertices,
             std::int32_t parts, std::int32_t first_part,
             std::vector<std::int32_t>& out, ht::Rng& rng) {
  if (parts == 1) {
    for (VertexId v : vertices)
      out[static_cast<std::size_t>(v)] = first_part;
    return;
  }
  // FM runs on the piece's induced copy; local id i is vertices[i].
  const auto sub = ht::hypergraph::induced_subhypergraph(h, vertices);
  BisectionSolution bisection;
  if (sub.hypergraph.num_edges() == 0) {
    bisection.side.assign(vertices.size(), false);
    for (std::size_t i = vertices.size() / 2; i < vertices.size(); ++i)
      bisection.side[i] = true;
    bisection.valid = true;
  } else {
    bisection = fm_bisection(sub.hypergraph, rng, 4);
  }
  std::vector<VertexId> left, right;
  for (std::size_t i = 0; i < vertices.size(); ++i)
    (bisection.side[i] ? right : left).push_back(vertices[i]);
  recurse(h, left, parts / 2, first_part, out, rng);
  recurse(h, right, parts / 2, first_part + parts / 2, out, rng);
}

}  // namespace

KWaySolution kway_recursive_bisection(const Hypergraph& h, std::int32_t k,
                                      ht::Rng& rng) {
  HT_CHECK(h.finalized());
  const VertexId n = h.num_vertices();
  HT_CHECK(k >= 1 && (k & (k - 1)) == 0);  // power of two
  // n divisible by k guarantees every recursion level splits an even set.
  HT_CHECK(n % k == 0);
  std::vector<VertexId> all(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
  std::vector<std::int32_t> part(static_cast<std::size_t>(n), 0);
  recurse(h, all, k, 0, part, rng);
  return finish(h, std::move(part), k);
}

KWaySolution kway_peel(const Hypergraph& h, std::int32_t k, ht::Rng& rng) {
  HT_CHECK(h.finalized());
  const VertexId n = h.num_vertices();
  HT_CHECK(k >= 1 && n % k == 0);
  const VertexId per = n / k;
  std::vector<std::int32_t> part(static_cast<std::size_t>(n), -1);
  std::vector<VertexId> remaining(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) remaining[static_cast<std::size_t>(v)] = v;
  for (std::int32_t p = 0; p + 1 < k; ++p) {
    const auto sub = ht::hypergraph::induced_subhypergraph(h, remaining);
    std::vector<VertexId> peeled_local;
    if (sub.hypergraph.num_edges() == 0 ||
        static_cast<VertexId>(remaining.size()) <= per) {
      for (VertexId i = 0; i < per; ++i) peeled_local.push_back(i);
    } else {
      const auto cut = unbalanced_kcut(sub.hypergraph, per, rng);
      HT_CHECK(cut.valid);
      peeled_local = cut.set;
    }
    std::vector<bool> peeled(remaining.size(), false);
    for (VertexId local : peeled_local) {
      const auto i = static_cast<std::size_t>(local);
      part[static_cast<std::size_t>(remaining[i])] = p;
      peeled[i] = true;
    }
    std::vector<VertexId> next;
    next.reserve(remaining.size() - peeled_local.size());
    for (std::size_t i = 0; i < remaining.size(); ++i)
      if (!peeled[i]) next.push_back(remaining[i]);
    remaining = std::move(next);
  }
  for (VertexId v : remaining) part[static_cast<std::size_t>(v)] = k - 1;
  return finish(h, std::move(part), k);
}

KWaySolution kway_random(const Hypergraph& h, std::int32_t k, ht::Rng& rng) {
  HT_CHECK(h.finalized());
  const VertexId n = h.num_vertices();
  HT_CHECK(k >= 1 && n % k == 0);
  std::vector<VertexId> perm(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
  rng.shuffle(perm);
  std::vector<std::int32_t> part(static_cast<std::size_t>(n), 0);
  for (VertexId i = 0; i < n; ++i)
    part[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
        i / (n / k);
  return finish(h, std::move(part), k);
}

}  // namespace ht::partition
