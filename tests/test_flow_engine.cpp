// Equivalence of the flow engine's cached networks with the build-per-call
// path, the cache's eviction order, and the induced copies that every
// recursive builder cuts its pieces out with.
//
// Two layers of evidence:
//  * Direct A/B: every min-cut primitive is run with the engine cache on
//    (reset-and-reuse) and off (FlowReuseScope — fresh build per call, the
//    pre-refactor behaviour) and must agree exactly, bit for bit.
//  * Golden hashes: tree signatures / Gomory–Hu trees / Theorem 1 outputs
//    captured from the pre-refactor seed build. The refactor must not move
//    a single byte of output.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/bisection.hpp"
#include "cuttree/decomposition_tree.hpp"
#include "cuttree/tree.hpp"
#include "cuttree/vertex_cut_tree.hpp"
#include "dinic.hpp"
#include "flow/cut_engine.hpp"
#include "flow/flow_network.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "obs/metrics.hpp"
#include "reduction/clique_expansion.hpp"
#include "reduction/star_expansion.hpp"
#include "util/rng.hpp"
#include "util/run_context.hpp"
#include "util/thread_pool.hpp"

namespace {

using ht::flow::FlowNetwork;
using ht::flow::FlowReuseScope;

// FNV-1a 64-bit over a string, printed as hex — the same digest the
// pre-refactor goldens below were captured with.
std::string hash_hex(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string gomory_hu_string(const std::vector<std::int32_t>& parent,
                             const std::vector<double>& parent_cut) {
  std::string s;
  for (auto p : parent) s += std::to_string(p) + ",";
  for (auto c : parent_cut) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g,", c);
    s += buf;
  }
  return s;
}

std::vector<ht::graph::VertexId> random_terminals(ht::Rng& rng,
                                                  std::int32_t n,
                                                  std::vector<char>& taken) {
  std::vector<ht::graph::VertexId> out;
  const auto want = 1 + static_cast<std::int32_t>(rng.next_below(3));
  for (std::int32_t tries = 0;
       static_cast<std::int32_t>(out.size()) < want && tries < 8 * n;
       ++tries) {
    const auto v =
        static_cast<ht::graph::VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (taken[static_cast<std::size_t>(v)]) continue;
    taken[static_cast<std::size_t>(v)] = 1;
    out.push_back(v);
  }
  return out;
}

// Two disjoint connected random graphs on [0, n1) and [n1, n1 + n2): a
// query across them has no augmenting path at all.
ht::graph::Graph two_components(ht::Rng& rng, std::int32_t n1,
                                std::int32_t n2) {
  const auto left = ht::graph::gnp_connected(n1, 4.0 / n1, rng);
  const auto right = ht::graph::gnp_connected(n2, 4.0 / n2, rng);
  ht::graph::Graph g(n1 + n2);
  for (const auto& e : left.edges()) g.add_edge(e.u, e.v, e.weight);
  for (const auto& e : right.edges())
    g.add_edge(n1 + e.u, n1 + e.v, e.weight);
  g.finalize();
  return g;
}

TEST(FlowEngine, EdgeCutReuseMatchesFreshBuild) {
  ht::Rng rng(51);
  for (int round = 0; round < 12; ++round) {
    const auto n = static_cast<std::int32_t>(20 + rng.next_below(30));
    const auto g = ht::graph::gnp_connected(n, 4.0 / n, rng);
    for (int q = 0; q < 6; ++q) {
      std::vector<char> taken(static_cast<std::size_t>(n), 0);
      const auto a = random_terminals(rng, n, taken);
      const auto b = random_terminals(rng, n, taken);
      if (a.empty() || b.empty()) continue;
      const auto reused = ht::CutEngine().min_edge_cut(g, a, b);
      FlowReuseScope off(false);
      const auto fresh = ht::CutEngine().min_edge_cut(g, a, b);
      EXPECT_EQ(reused.value, fresh.value);
      EXPECT_EQ(reused.cut_edges, fresh.cut_edges);
      EXPECT_EQ(reused.source_side, fresh.source_side);
    }
  }
  // Terminals in different components: both balls close without meeting,
  // the value is 0 and the witness is the source's whole component. The
  // second query runs on the network the first one cached.
  const auto g = two_components(rng, 14, 11);
  const std::vector<ht::graph::VertexId> left{2, 5}, right{17};
  for (const bool from_left : {true, false}) {
    const auto& a = from_left ? left : right;
    const auto& b = from_left ? right : left;
    const auto reused = ht::CutEngine().min_edge_cut(g, a, b);
    FlowReuseScope off(false);
    const auto fresh = ht::CutEngine().min_edge_cut(g, a, b);
    EXPECT_EQ(reused.value, 0.0);
    EXPECT_TRUE(reused.cut_edges.empty());
    for (ht::graph::VertexId v = 0; v < g.num_vertices(); ++v)
      EXPECT_EQ(reused.source_side[static_cast<std::size_t>(v)],
                (v < 14) == from_left)
          << "v=" << v;
    EXPECT_EQ(reused.value, fresh.value);
    EXPECT_EQ(reused.source_side, fresh.source_side);
  }
}

TEST(FlowEngine, VertexCutReuseMatchesFreshBuild) {
  ht::Rng rng(52);
  for (int round = 0; round < 12; ++round) {
    const auto n = static_cast<std::int32_t>(20 + rng.next_below(30));
    const auto g = ht::graph::gnp_connected(n, 4.0 / n, rng);
    for (int q = 0; q < 6; ++q) {
      std::vector<char> taken(static_cast<std::size_t>(n), 0);
      const auto a = random_terminals(rng, n, taken);
      const auto b = random_terminals(rng, n, taken);
      if (a.empty() || b.empty()) continue;
      const auto reused = ht::CutEngine().min_vertex_cut(g, a, b);
      FlowReuseScope off(false);
      const auto fresh = ht::CutEngine().min_vertex_cut(g, a, b);
      EXPECT_EQ(reused.value, fresh.value);
      EXPECT_EQ(reused.cut_vertices, fresh.cut_vertices);
    }
  }
  // Terminals in different components: value 0, nothing to cut.
  const auto g = two_components(rng, 13, 10);
  const std::vector<ht::graph::VertexId> left{1, 8}, right{15, 20};
  for (const bool from_left : {true, false}) {
    const auto& a = from_left ? left : right;
    const auto& b = from_left ? right : left;
    const auto reused = ht::CutEngine().min_vertex_cut(g, a, b);
    FlowReuseScope off(false);
    const auto fresh = ht::CutEngine().min_vertex_cut(g, a, b);
    EXPECT_TRUE(reused.complete);
    EXPECT_EQ(reused.value, 0.0);
    EXPECT_TRUE(reused.cut_vertices.empty());
    EXPECT_EQ(reused.value, fresh.value);
    EXPECT_EQ(reused.cut_vertices, fresh.cut_vertices);
  }
}

TEST(FlowEngine, HyperedgeCutReuseMatchesFreshBuild) {
  ht::Rng rng(53);
  for (int round = 0; round < 10; ++round) {
    const auto n = static_cast<std::int32_t>(16 + rng.next_below(20));
    const auto h = ht::hypergraph::random_uniform(n, 2 * n, 3, rng);
    for (int q = 0; q < 6; ++q) {
      std::vector<char> taken(static_cast<std::size_t>(n), 0);
      const auto a = random_terminals(rng, n, taken);
      const auto b = random_terminals(rng, n, taken);
      if (a.empty() || b.empty()) continue;
      const auto reused = ht::CutEngine().min_hyperedge_cut(h, a, b);
      FlowReuseScope off(false);
      const auto fresh = ht::CutEngine().min_hyperedge_cut(h, a, b);
      EXPECT_EQ(reused.value, fresh.value);
      EXPECT_EQ(reused.cut_edges, fresh.cut_edges);
    }
  }
  // Terminals in different components (two disjoint triangle chains on
  // [0, 12) and [12, 20)): value 0, nothing to cut.
  ht::hypergraph::Hypergraph h(20);
  for (ht::hypergraph::VertexId v = 0; v + 2 < 12; ++v)
    h.add_edge({v, v + 1, v + 2}, 1.0 + v % 3);
  for (ht::hypergraph::VertexId v = 12; v + 2 < 20; ++v)
    h.add_edge({v, v + 1, v + 2}, 2.0);
  h.finalize();
  const std::vector<ht::hypergraph::VertexId> left{0, 6}, right{15};
  for (const bool from_left : {true, false}) {
    const auto& a = from_left ? left : right;
    const auto& b = from_left ? right : left;
    const auto reused = ht::CutEngine().min_hyperedge_cut(h, a, b);
    FlowReuseScope off(false);
    const auto fresh = ht::CutEngine().min_hyperedge_cut(h, a, b);
    EXPECT_TRUE(reused.complete);
    EXPECT_EQ(reused.value, 0.0);
    EXPECT_TRUE(reused.cut_edges.empty());
    EXPECT_EQ(reused.value, fresh.value);
    EXPECT_EQ(reused.cut_edges, fresh.cut_edges);
  }
}

TEST(FlowEngine, RepeatedQueriesAreIdentical) {
  // reset() restores the exact build-time capacities, so asking the same
  // question twice on one engine must answer bit-identically.
  ht::Rng rng(54);
  const auto g = ht::graph::gnp_connected(40, 5.0 / 40, rng);
  const std::vector<ht::graph::VertexId> a{0, 3}, b{11, 17};
  const auto first = ht::CutEngine().min_edge_cut(g, a, b);
  const auto second = ht::CutEngine().min_edge_cut(g, a, b);
  EXPECT_EQ(first.value, second.value);
  EXPECT_EQ(first.cut_edges, second.cut_edges);
  EXPECT_EQ(first.source_side, second.source_side);

  // An abandoned solve on the cached network must be undone by the next
  // reset() too: a pre-latched stop abandons it after the first level
  // search, before any push; an expired deadline polled every second
  // phase abandons it after one phase of pushes.
  ht::flow::EdgeCutResult fresh;
  {
    FlowReuseScope off(false);
    fresh = ht::CutEngine().min_edge_cut(g, a, b);
  }
  auto& paths =
      ht::obs::MetricsRegistry::global().histogram("flow.augmenting_paths");
  for (const std::uint32_t check_rounds : {1u, 2u}) {
    ht::RunContext ctx;
    ctx.deadline = ht::RunContext::Clock::now() - std::chrono::milliseconds(1);
    ctx.flow_check_rounds = check_rounds;
    const auto paths_before = paths.sum();
    {
      ht::RunScope scope(ctx);
      if (check_rounds == 1) scope.state().check();  // latch the stop
      EXPECT_FALSE(ht::CutEngine().min_edge_cut(g, a, b).complete);
    }
    EXPECT_EQ(paths.sum() > paths_before, check_rounds == 2);
    const auto after = ht::CutEngine().min_edge_cut(g, a, b);
    EXPECT_TRUE(after.complete);
    EXPECT_EQ(after.value, fresh.value);
    EXPECT_EQ(after.cut_edges, fresh.cut_edges);
    EXPECT_EQ(after.source_side, fresh.source_side);
  }
}

TEST(FlowEngine, ReuseCountersShowReuse) {
  ht::ThreadPool::reset_global(1);
  ht::Rng rng(55);
  const auto g = ht::graph::gnp_connected(48, 6.0 / 48, rng);
  auto& metrics = ht::obs::MetricsRegistry::global();
  metrics.reset_all();
  const auto tree = ht::CutEngine().gomory_hu(g).tree;
  ht::ThreadPool::reset_global();
  EXPECT_EQ(tree.parent.size(), 48u);
  // Gusfield issues n-1 flows on the same graph: a handful of engine
  // builds (one per participating thread), everything else reuse.
  const std::uint64_t flows = metrics.counter("flow.max_flow_calls").value();
  EXPECT_GT(flows, 0u);
  EXPECT_GT(metrics.counter("arena.hits").value(), 0u);
  EXPECT_LT(metrics.counter("flow.builds").value(), flows);
  EXPECT_GT(metrics.gauge("arena.peak_bytes").value(), 0);
}

TEST(FlowEngine, NetworkCacheKeepsTheFourMostRecentStructures) {
  // A thread caches the networks of the four structures it queried last
  // and rebuilds in place of the least recently used one. One query per
  // graph, in this order: 0 1 2 3 miss, 0 hits, 4 misses and evicts 1,
  // 0 2 3 4 hit, 1 misses. Evicting the oldest build instead of the least
  // recently used would evict 0 for 4 and miss 7 times.
  ht::Rng rng(61);
  std::vector<ht::graph::Graph> graphs;
  for (int i = 0; i < 5; ++i)
    graphs.push_back(ht::graph::gnp_connected(12, 0.4, rng));
  ht::flow::clear_network_cache();
  auto& metrics = ht::obs::MetricsRegistry::global();
  metrics.reset_all();
  for (const std::size_t i : {0, 1, 2, 3, 0, 4, 0, 2, 3, 4, 1})
    (void)ht::CutEngine().min_edge_cut(graphs[i], {0}, {1});
  EXPECT_EQ(metrics.counter("arena.misses").value(), 6u);
  EXPECT_EQ(metrics.counter("arena.hits").value(), 5u);
  EXPECT_EQ(metrics.counter("flow.builds").value(), 6u);
}

// The reference solver's terminal arcs below carry the arena's infinity;
// the two must agree on what "infinite" means.
static_assert(ht::flow::kInfiniteCapacity ==
              ht::flow::Dinic<double>::kInfinity);

TEST(FlowEngine, ArenaDinicAgreesWithReferenceDinic) {
  ht::Rng rng(56);
  for (int round = 0; round < 8; ++round) {
    const auto n = static_cast<std::int32_t>(12 + rng.next_below(24));
    const auto g = ht::graph::gnp_connected(n, 5.0 / n, rng);
    FlowNetwork net = FlowNetwork::edge_cut_network(g);
    const auto s =
        static_cast<ht::graph::VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
    auto t = static_cast<ht::graph::VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (t == s) t = (t + 1) % n;
    net.reset();
    net.attach_source(s);
    net.attach_sink(t);
    const double dinic_flow = net.max_flow();
    // Cross-check against the standalone Dinic on the same instance.
    ht::flow::Dinic<double> ref(n + 2);
    for (const auto& e : g.edges()) ref.add_undirected(e.u, e.v, e.weight);
    ref.add_arc(n, s, ht::flow::kInfiniteCapacity);
    ref.add_arc(t, n + 1, ht::flow::kInfiniteCapacity);
    EXPECT_NEAR(dinic_flow, ref.max_flow(n, n + 1), 1e-6);
  }
  // The cases below run queries on one reused network and also compare
  // the canonical (inclusion-minimal) source side, which is unique.
  const auto expect_reference = [](FlowNetwork& net, const ht::graph::Graph& g,
                                   const std::vector<ht::graph::VertexId>& a,
                                   const std::vector<ht::graph::VertexId>& b) {
    const std::int32_t n = g.num_vertices();
    net.reset();
    for (const auto v : a) net.attach_source(v);
    for (const auto v : b) net.attach_sink(v);
    ht::flow::Dinic<double> ref(n + 2);
    for (const auto& e : g.edges()) ref.add_undirected(e.u, e.v, e.weight);
    for (const auto v : a) ref.add_arc(n, v, ht::flow::kInfiniteCapacity);
    for (const auto v : b) ref.add_arc(v, n + 1, ht::flow::kInfiniteCapacity);
    EXPECT_NEAR(net.max_flow(), ref.max_flow(n, n + 1), 1e-6);
    const auto ref_side = ref.min_cut_source_side();
    const auto& side = net.source_side();
    for (ht::graph::VertexId v = 0; v < n; ++v)
      EXPECT_EQ(side[static_cast<std::size_t>(v)] != 0,
                ref_side[static_cast<std::size_t>(v)])
          << "v=" << v;
  };
  // A hub source and a leaf sink: after the hub's level the backward ball
  // has the smaller frontier, so the search grows from the sink.
  ht::graph::Graph hub(32);
  for (ht::graph::VertexId v = 1; v <= 30; ++v) {
    hub.add_edge(0, v, 1.0 + v % 3);
    hub.add_edge(v, v % 30 + 1, 2.0);
  }
  hub.add_edge(17, 31, 5.0);
  hub.add_edge(23, 31, 1.5);
  hub.finalize();
  FlowNetwork hub_net = FlowNetwork::edge_cut_network(hub);
  expect_reference(hub_net, hub, {0}, {31});
  expect_reference(hub_net, hub, {31}, {0});
  // Multi-terminal queries in a row: each one starts from the capacities
  // and search scratch the previous one left behind.
  ht::Rng multi(58);
  const auto g = ht::graph::gnp_connected(48, 4.0 / 48, multi);
  FlowNetwork net = FlowNetwork::edge_cut_network(g);
  for (int q = 0; q < 24; ++q) {
    std::vector<char> taken(48, 0);
    const auto a = random_terminals(multi, 48, taken);
    const auto b = random_terminals(multi, 48, taken);
    if (a.empty() || b.empty()) continue;
    expect_reference(net, g, a, b);
  }
}

// --- goldens captured from the pre-refactor seed build -------------------
// A failure here means the refactor changed an output byte; the cached
// networks and the induced copies are required to be observationally
// identical to the paths they replaced.

TEST(FlowEngineGolden, DecompositionTreeUnchanged) {
  ht::Rng rng(4242);
  const auto g = ht::graph::gnp_connected(80, 5.0 / 80, rng);
  const auto t = ht::cuttree::build_decomposition_tree_run(g).tree;
  EXPECT_EQ(hash_hex(ht::cuttree::tree_signature(t)), "9267f129397d94b9");
}

TEST(FlowEngineGolden, VertexCutTreeUnchanged) {
  ht::Rng rng(2024);
  const auto g = ht::graph::gnp_connected(60, 5.0 / 60, rng);
  const auto r = ht::cuttree::build_vertex_cut_tree(g);
  EXPECT_EQ(hash_hex(ht::cuttree::tree_signature(r.tree)),
            "794ee03a599a44d6");
  EXPECT_EQ(r.separator_weight, 0.0);
}

TEST(FlowEngineGolden, VertexCutTreeDeepRecursionUnchanged) {
  // threshold_override high enough to force splits all the way down — the
  // path that exercises the induced copies and the vertex-cut network
  // cache hardest.
  ht::Rng rng(2024);
  const auto g = ht::graph::gnp_connected(60, 5.0 / 60, rng);
  ht::cuttree::VertexCutTreeOptions opt;
  opt.threshold_override = 0.75;
  const auto r = ht::cuttree::build_vertex_cut_tree(g, opt);
  EXPECT_EQ(hash_hex(ht::cuttree::tree_signature(r.tree)),
            "eadb86157db492ca");
  EXPECT_EQ(r.separator_weight, 33.0);
  EXPECT_EQ(r.num_pieces, 22);
}

TEST(FlowEngineGolden, VertexCutTreeGridUnchanged) {
  const auto g = ht::graph::grid(10, 10);
  const auto r = ht::cuttree::build_vertex_cut_tree(g);
  EXPECT_EQ(hash_hex(ht::cuttree::tree_signature(r.tree)),
            "d1862126fa304004");
}

TEST(FlowEngineGolden, GomoryHuUnchanged) {
  ht::Rng rng(1313);
  const auto g = ht::graph::gnp_connected(60, 6.0 / 60, rng);
  const auto t = ht::CutEngine().gomory_hu(g).tree;
  EXPECT_EQ(hash_hex(gomory_hu_string(t.parent, t.parent_cut)),
            "7d301c7c0431f7f7");
}

TEST(FlowEngineGolden, HypergraphGomoryHuUnchanged) {
  ht::Rng rng(99);
  const auto h = ht::hypergraph::random_uniform(36, 70, 3, rng);
  const auto t = ht::CutEngine().gomory_hu(h).tree;
  EXPECT_EQ(hash_hex(gomory_hu_string(t.parent, t.parent_cut)),
            "89aacea13cfa79eb");
}

TEST(FlowEngineGolden, Theorem1BisectionUnchanged) {
  ht::Rng rng(777);
  const auto h = ht::hypergraph::random_uniform(40, 80, 3, rng);
  const auto rep = ht::core::bisect_theorem1(h);
  std::string s;
  for (bool b : rep.solution.side) s += b ? '1' : '0';
  EXPECT_EQ(rep.solution.cut, 37.0);
  EXPECT_EQ(hash_hex(s), "75cceafb461218bb");
}

// Copy of `h` with hyperedge weights drawn from [0.3, 2.0). Sums of such
// weights round, so a golden over them pins the order of every weighted
// reduction on the way, not just the set of terms.
ht::hypergraph::Hypergraph with_fractional_weights(
    const ht::hypergraph::Hypergraph& h, ht::Rng& rng) {
  ht::hypergraph::Hypergraph out(h.num_vertices());
  for (ht::hypergraph::EdgeId e = 0; e < h.num_edges(); ++e) {
    const auto pins = h.pins(e);
    out.add_edge({pins.begin(), pins.end()}, 0.3 + 1.7 * rng.next_double());
  }
  out.finalize();
  return out;
}

TEST(FlowEngineGolden, VertexCutTreeFractionalStarExpansionUnchanged) {
  // Star-node weights are fractional here, so the min-ratio sweep's
  // boundary sums and the Fiedler mass all round. Captured before the
  // crossing-set sweep and the gather-form Fiedler iteration.
  ht::Rng rng(5150);
  const auto h = with_fractional_weights(
      ht::hypergraph::random_uniform(40, 80, 3, rng), rng);
  const auto star = ht::reduction::star_expansion(h);
  const auto served = ht::cuttree::build_vertex_cut_tree(star.graph);
  EXPECT_EQ(hash_hex(ht::cuttree::tree_signature(served.tree)),
            "517a33cd9da5a87c");
  ht::cuttree::VertexCutTreeOptions deep;
  deep.threshold_override = 0.75;
  const auto r = ht::cuttree::build_vertex_cut_tree(star.graph, deep);
  EXPECT_EQ(hash_hex(ht::cuttree::tree_signature(r.tree)),
            "00221188891ae118");
  EXPECT_EQ(r.num_pieces, 40);
}

TEST(FlowEngineGolden, DecompositionTreeFourUniformCliqueExpansionUnchanged) {
  // Clique-expansion edges of a 4-uniform hypergraph weigh w/3, and with
  // fractional w no two terms of a cluster cut need be equal, so the cut
  // rounds differently in a different order. Captured before the
  // piece-local cuts.
  ht::Rng rng(6160);
  const auto h = with_fractional_weights(
      ht::hypergraph::random_uniform(60, 90, 4, rng), rng);
  const auto g = ht::reduction::clique_expansion(h);
  const auto t = ht::cuttree::build_decomposition_tree_run(g).tree;
  EXPECT_EQ(hash_hex(ht::cuttree::tree_signature(t)), "0afd316a937a2d2a");
}

TEST(FlowEngineGolden, GoldensHoldWithReuseDisabled) {
  // The fresh-build path must produce the same bytes as the arena path.
  FlowReuseScope off(false);
  {
    ht::Rng rng(1313);
    const auto g = ht::graph::gnp_connected(60, 6.0 / 60, rng);
    const auto t = ht::CutEngine().gomory_hu(g).tree;
    EXPECT_EQ(hash_hex(gomory_hu_string(t.parent, t.parent_cut)),
              "7d301c7c0431f7f7");
  }
  {
    ht::Rng rng(2024);
    const auto g = ht::graph::gnp_connected(60, 5.0 / 60, rng);
    ht::cuttree::VertexCutTreeOptions opt;
    opt.threshold_override = 0.75;
    const auto r = ht::cuttree::build_vertex_cut_tree(g, opt);
    EXPECT_EQ(hash_hex(ht::cuttree::tree_signature(r.tree)),
              "eadb86157db492ca");
  }
}


TEST(FlowEngineGolden, GoldensHoldAcrossThreadCounts) {
  // The pool size must not move a byte: the 1- and 4-thread pools
  // reproduce the pre-refactor hashes.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ht::ThreadPool::reset_global(threads);
    {
      ht::Rng rng(1313);
      const auto g = ht::graph::gnp_connected(60, 6.0 / 60, rng);
      const auto t = ht::CutEngine().gomory_hu(g).tree;
      EXPECT_EQ(hash_hex(gomory_hu_string(t.parent, t.parent_cut)),
                "7d301c7c0431f7f7")
          << "threads=" << threads;
    }
    {
      ht::Rng rng(99);
      const auto h = ht::hypergraph::random_uniform(36, 70, 3, rng);
      const auto t = ht::CutEngine().gomory_hu(h).tree;
      EXPECT_EQ(hash_hex(gomory_hu_string(t.parent, t.parent_cut)),
                "89aacea13cfa79eb")
          << "threads=" << threads;
    }
  }
  ht::ThreadPool::reset_global();
}

// Empty and one-vertex pieces come up in every recursion that cuts a
// (hyper)graph into pieces.
TEST(InducedCopies, EmptySubsetsAreValidAndMaterializeEmpty) {
  ht::Rng rng(7);
  const auto g = ht::graph::gnp_connected(12, 0.4, rng);
  {
    const auto sub = ht::graph::induced_subgraph(g, {});
    EXPECT_TRUE(sub.graph.finalized());
    EXPECT_EQ(sub.graph.num_vertices(), 0);
    EXPECT_EQ(sub.graph.num_edges(), 0);
    EXPECT_DOUBLE_EQ(sub.graph.total_vertex_weight(), 0.0);
    EXPECT_TRUE(sub.old_of_new.empty());
  }
  ht::Rng hrng(8);
  const auto h = ht::hypergraph::random_uniform(12, 24, 3, hrng);
  {
    const auto sub = ht::hypergraph::induced_subhypergraph(h, {});
    EXPECT_TRUE(sub.hypergraph.finalized());
    EXPECT_EQ(sub.hypergraph.num_vertices(), 0);
    EXPECT_EQ(sub.hypergraph.num_edges(), 0);
    EXPECT_DOUBLE_EQ(sub.hypergraph.total_vertex_weight(), 0.0);
    EXPECT_TRUE(sub.old_of_new.empty());
  }
}

TEST(InducedCopies, SingletonSubsetsKeepTheVertexAndDropAllEdges) {
  ht::Rng rng(9);
  auto g = ht::graph::gnp_connected(10, 0.5, rng);
  g.set_vertex_weight(4, 2.5);
  {
    const auto sub = ht::graph::induced_subgraph(g, {4});
    EXPECT_EQ(sub.graph.num_vertices(), 1);
    EXPECT_EQ(sub.old_of_new, (std::vector<ht::graph::VertexId>{4}));
    EXPECT_EQ(sub.graph.vertex_weight(0), 2.5);
    EXPECT_EQ(sub.graph.num_edges(), 0);  // no 2-pin edge survives
  }
  ht::Rng hrng(10);
  auto h = ht::hypergraph::random_uniform(10, 30, 3, hrng);
  h.set_vertex_weight(4, 3.5);
  {
    const auto sub = ht::hypergraph::induced_subhypergraph(h, {4});
    EXPECT_EQ(sub.hypergraph.num_vertices(), 1);
    EXPECT_EQ(sub.old_of_new, (std::vector<ht::hypergraph::VertexId>{4}));
    EXPECT_EQ(sub.hypergraph.vertex_weight(0), 3.5);
    EXPECT_EQ(sub.hypergraph.num_edges(), 0);  // < 2 surviving pins
  }
}

// --- flow-work gate -------------------------------------------------------
// Max-flow calls, network builds, augmenting paths and level-search nodes
// of three cut-tree workloads, on a one-thread and a four-thread pool. The
// Gomory–Hu builders run Gusfield's flows one at a time on the calling
// thread and the vertex cut tree's flows are fixed per piece, so the work
// does not follow the pool size, and everything about it is deterministic
// (fixed seeds, fixed arc order, reset() restores exact capacities): any
// change is an algorithmic change; update the expectations deliberately,
// in review. The one schedule-dependent number is how many threads build
// a vertex-cut-tree piece's network: its oracle runs its flows under
// parallel_for, and each thread that takes one builds its own.

struct FlowWork {
  std::uint64_t flows = 0;
  std::uint64_t builds = 0;
  std::uint64_t augmenting_paths = 0;
  std::uint64_t search_nodes = 0;
  bool operator==(const FlowWork&) const = default;
};

void PrintTo(const FlowWork& w, std::ostream* os) {
  *os << "{flows=" << w.flows << ", builds=" << w.builds
      << ", augmenting_paths=" << w.augmenting_paths
      << ", search_nodes=" << w.search_nodes << "}";
}

template <typename Fn>
FlowWork count_flow_work(Fn&& workload) {
  ht::flow::clear_network_cache();
  auto& metrics = ht::obs::MetricsRegistry::global();
  metrics.reset_all();
  workload();
  return {metrics.counter("flow.max_flow_calls").value(),
          metrics.counter("flow.builds").value(),
          metrics.histogram("flow.augmenting_paths").sum(),
          metrics.histogram("flow.search_nodes").sum()};
}

TEST(FlowEngineCounts, CutTreeWorkloadsReproduceExactly) {
  ht::Rng gh_rng(1313);
  const auto g = ht::graph::gnp_connected(160, 6.0 / 160, gh_rng);
  ht::Rng vct_rng(2024);
  const auto vct_graph = ht::graph::gnp_connected(140, 5.0 / 140, vct_rng);
  ht::cuttree::VertexCutTreeOptions vct_options;
  vct_options.threshold_override = 0.75;  // force splits all the way down
  ht::Rng h_rng(99);
  const auto h = ht::hypergraph::random_uniform(80, 160, 3, h_rng);

  const auto gomory_hu = [&] { (void)ht::CutEngine().gomory_hu(g); };
  const auto vertex_cut_tree = [&] {
    (void)ht::cuttree::build_vertex_cut_tree(vct_graph, vct_options);
  };
  const auto hypergraph_gomory_hu = [&] {
    (void)ht::CutEngine().gomory_hu(h);
  };

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ht::ThreadPool::reset_global(threads);
    // The engine cache answers all of a Gomory–Hu build's flows from one
    // network.
    EXPECT_EQ(count_flow_work(gomory_hu), (FlowWork{159, 1, 961, 28370}));
    FlowWork vct = count_flow_work(vertex_cut_tree);
    if (threads > 1) {
      // One build per piece and participating thread.
      EXPECT_GE(vct.builds, 9u);
      EXPECT_LE(vct.builds, 72u);
      vct.builds = 9;
    }
    EXPECT_EQ(vct, (FlowWork{72, 9, 390, 10159}));
    EXPECT_EQ(count_flow_work(hypergraph_gomory_hu),
              (FlowWork{79, 1, 470, 25824}));
    {
      // The fresh-build path builds a network per flow and walks the same
      // augmenting paths.
      FlowReuseScope off(false);
      EXPECT_EQ(count_flow_work(gomory_hu),
                (FlowWork{159, 159, 961, 28370}));
      EXPECT_EQ(count_flow_work(vertex_cut_tree),
                (FlowWork{72, 72, 390, 10159}));
      EXPECT_EQ(count_flow_work(hypergraph_gomory_hu),
                (FlowWork{79, 79, 470, 25824}));
    }
  }
  ht::ThreadPool::reset_global();
}

}  // namespace

