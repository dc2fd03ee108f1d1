// The robustness layer: RunContext propagation, anytime stops, and the
// ht::Solver facade.
//
// The contracts pinned here:
//  * stop state is latched — the first failed check wins and never clears;
//  * a piece-budget stop lands on the same logical piece for every thread
//    count, so partial trees are byte-identical across HT_THREADS;
//  * deadline expiry yields a *feasible* best-so-far bisection, never an
//    invalid one, and leaves the arenas reusable for the next run;
//  * the RunContext reaches the flow engine's augmentation loops;
//  * malformed hMetis input comes back as kInvalidArgument, not an abort.

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "ht/hypertree.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace {

using ht::CancelSource;
using ht::RunContext;
using ht::RunScope;
using ht::Status;
using ht::StatusCode;
using ht::StatusOr;

RunContext expired_context() {
  RunContext ctx;
  ctx.deadline = RunContext::Clock::now() - std::chrono::milliseconds(1);
  return ctx;
}

// A connected hypergraph (chain of overlapping triples) — the flow and
// Gomory–Hu tests need guaranteed connectivity.
ht::hypergraph::Hypergraph chain_hypergraph(ht::hypergraph::VertexId n) {
  ht::hypergraph::Hypergraph h(n);
  for (ht::hypergraph::VertexId v = 0; v + 2 < n; ++v)
    h.add_edge({v, v + 1, v + 2});
  for (ht::hypergraph::VertexId v = 0; v + 5 < n; v += 3)
    h.add_edge({v, v + 3, v + 5});
  h.finalize();
  return h;
}

// ---------- status vocabulary ----------

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().to_string(), "OK");
  const Status d = Status::DeadlineExceeded("too slow");
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(std::string(d.code_name()), "DEADLINE_EXCEEDED");
  EXPECT_EQ(d.to_string(), "DEADLINE_EXCEEDED: too slow");
  // Equality is by code: two deadline statuses with different messages
  // compare equal (tests match on the reason, not the prose).
  EXPECT_EQ(d, Status::DeadlineExceeded());
  EXPECT_NE(d, Status::Cancelled());
}

TEST(Status, StatusOrAnytimeSemantics) {
  // ok() and has_value() are deliberately distinct: a degraded run carries
  // both a stop status and a usable value.
  StatusOr<int> full(42);
  EXPECT_TRUE(full.ok());
  EXPECT_TRUE(full.has_value());
  EXPECT_EQ(*full, 42);

  StatusOr<int> degraded(Status::DeadlineExceeded(), 7);
  EXPECT_FALSE(degraded.ok());
  EXPECT_TRUE(degraded.has_value());
  EXPECT_EQ(*degraded, 7);

  StatusOr<int> empty(Status::InvalidArgument("bad"));
  EXPECT_FALSE(empty.ok());
  EXPECT_FALSE(empty.has_value());
}

// ---------- env parsing ----------

TEST(RunContextEnv, ParseThreadCount) {
  EXPECT_EQ(ht::parse_thread_count("4", 9), 4u);
  EXPECT_EQ(ht::parse_thread_count("1", 9), 1u);
  EXPECT_EQ(ht::parse_thread_count(nullptr, 9), 9u);
  EXPECT_EQ(ht::parse_thread_count("", 9), 9u);
  EXPECT_EQ(ht::parse_thread_count("0", 9), 9u);
  EXPECT_EQ(ht::parse_thread_count("-3", 9), 9u);
  EXPECT_EQ(ht::parse_thread_count("abc", 9), 9u);
  EXPECT_EQ(ht::parse_thread_count("16x", 9), 9u);
  EXPECT_EQ(ht::parse_thread_count("999999", 9), 1024u);  // capped
}

TEST(RunContextEnv, FromEnvPopulatesThreads) {
  const RunContext ctx = RunContext::FromEnv();
  EXPECT_GE(ctx.threads, 1u);
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_EQ(ctx.piece_budget, 0u);
}

TEST(RunContextEnv, ExplicitThreadsBeatEnvironment) {
  // The documented precedence is flag > HT_THREADS > hardware:
  // FromEnv() seeds `threads` from the environment, and with_threads()
  // (what hypertree_cli --threads applies on top of it) overwrites that
  // value unconditionally. CI drives the CLI end to end with
  // HT_THREADS=2 --threads=1 and asserts the summary reports threads=1.
  RunContext ctx = RunContext::FromEnv();
  const std::size_t env_threads = ctx.threads;
  ctx.with_threads(env_threads + 3);
  EXPECT_EQ(ctx.threads, env_threads + 3);
  ctx.with_threads(1);
  EXPECT_EQ(ctx.threads, 1u);
}

// ---------- run state ----------

TEST(RunState, CancelLatches) {
  CancelSource source;
  RunContext ctx;
  ctx.with_cancel(source.token());
  RunScope scope(ctx);
  EXPECT_TRUE(scope.state().check().ok());
  EXPECT_FALSE(scope.state().stopped());
  source.request_cancel();
  EXPECT_EQ(scope.state().check().code(), StatusCode::kCancelled);
  EXPECT_TRUE(scope.state().stopped());
  EXPECT_EQ(scope.status().code(), StatusCode::kCancelled);
}

TEST(RunState, DeadlineLatchesAndFirstStopWins) {
  CancelSource source;
  RunContext ctx = expired_context();
  ctx.with_cancel(source.token());
  RunScope scope(ctx);
  // Cancel is polled before the deadline, so fire the deadline first.
  EXPECT_EQ(scope.state().check().code(), StatusCode::kDeadlineExceeded);
  // The latch never changes, even if another stop reason fires later.
  source.request_cancel();
  EXPECT_EQ(scope.state().check().code(), StatusCode::kDeadlineExceeded);
}

TEST(RunState, PieceBudgetLatchesDeterministically) {
  RunContext ctx;
  ctx.with_piece_budget(3);
  RunScope scope(ctx);
  EXPECT_EQ(scope.state().note_piece(), 1u);
  EXPECT_FALSE(scope.state().stopped());
  scope.state().note_piece();
  EXPECT_FALSE(scope.state().stopped());
  scope.state().note_piece();
  EXPECT_TRUE(scope.state().stopped());
  EXPECT_EQ(scope.status().code(), StatusCode::kResourceExhausted);
}

TEST(RunState, ScopesNestAndRestore) {
  EXPECT_EQ(ht::current_run_state(), nullptr);
  EXPECT_FALSE(ht::run_stopped());
  {
    RunScope outer{RunContext{}};
    EXPECT_EQ(ht::current_run_state(), &outer.state());
    {
      RunScope inner(expired_context());
      inner.state().check();
      EXPECT_TRUE(ht::run_stopped());
    }
    EXPECT_EQ(ht::current_run_state(), &outer.state());
    EXPECT_FALSE(ht::run_stopped());
  }
  EXPECT_EQ(ht::current_run_state(), nullptr);
}

// ---------- determinism: budget stop at a fixed logical piece ----------

// Acceptance: cancelling at a fixed logical piece yields byte-identical
// partial trees for 1 and 4 threads. The piece budget is that fixed
// logical stop — it is counted at the serial fold boundary.
TEST(AnytimeDeterminism, VertexCutTreePartialTreeAcrossThreadCounts) {
  const auto g = ht::graph::grid(10, 10);
  ht::cuttree::VertexCutTreeOptions options;
  options.threshold_override = 0.45;  // force a deep peeling
  auto build_partial = [&g, &options](std::size_t threads) {
    RunContext ctx;
    ctx.threads = threads;
    ctx.with_piece_budget(4);
    ht::Solver solver(ctx);
    return solver.build_vertex_cut_tree(g, options);
  };
  const auto one = build_partial(1);
  const auto four = build_partial(4);
  ht::ThreadPool::reset_global();
  ASSERT_TRUE(one.has_value());
  ASSERT_TRUE(four.has_value());
  EXPECT_EQ(one.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(four.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ht::cuttree::tree_signature(one->tree),
            ht::cuttree::tree_signature(four->tree));
  EXPECT_EQ(one->separator_vertices, four->separator_vertices);
  // The partial tree is coarser than the full tree but still complete
  // over the vertex set.
  ht::Solver full_solver;
  const auto full = full_solver.build_vertex_cut_tree(g, options);
  ASSERT_TRUE(full.ok());
  EXPECT_GE(full->separator_vertices.size(),
            one->separator_vertices.size());
}

TEST(AnytimeDeterminism, DecompositionTreePartialTreeAcrossThreadCounts) {
  ht::Rng rng(99);
  const auto g = ht::graph::gnp_connected(80, 5.0 / 80, rng);
  auto build_partial = [&g](std::size_t threads) {
    RunContext ctx;
    ctx.threads = threads;
    ctx.with_piece_budget(3);
    ht::Solver solver(ctx);
    return solver.decomposition_tree(g);
  };
  const auto one = build_partial(1);
  const auto four = build_partial(4);
  ht::ThreadPool::reset_global();
  EXPECT_EQ(one.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(four.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ht::cuttree::tree_signature(one->tree),
            ht::cuttree::tree_signature(four->tree));
}

TEST(AnytimeDeterminism, GomoryHuBudgetStopsAtSameVertex) {
  ht::Rng rng(7);
  const auto g = ht::graph::gnp_connected(40, 6.0 / 40, rng);
  auto build_partial = [&g](std::size_t threads) {
    RunContext ctx;
    ctx.threads = threads;
    ctx.with_piece_budget(5);
    ht::Solver solver(ctx);
    return solver.gomory_hu(g);
  };
  const auto one = build_partial(1);
  const auto four = build_partial(4);
  ht::ThreadPool::reset_global();
  EXPECT_EQ(one.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(one->applied, 5);
  EXPECT_EQ(four->applied, 5);
  EXPECT_EQ(one->tree.parent, four->tree.parent);
  EXPECT_EQ(one->tree.parent_cut, four->tree.parent_cut);

  // Pessimistic lower bound: the partial tree never over-reports a cut.
  ht::Solver full_solver;
  const auto full = full_solver.gomory_hu(g);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->applied, g.num_vertices() - 1);
  for (ht::graph::VertexId s = 0; s < g.num_vertices(); ++s)
    for (ht::graph::VertexId t = s + 1; t < g.num_vertices(); ++t)
      EXPECT_LE(one->tree.min_cut(s, t), full->tree.min_cut(s, t) + 1e-9);
}

// ---------- graceful degradation under a deadline ----------

TEST(AnytimeDegradation, ExpiredDeadlineBisectionStaysFeasible) {
  ht::Rng rng(2024);
  const auto h = ht::hypergraph::random_uniform(200, 400, 3, rng);
  ht::Solver solver(expired_context());
  const auto report = solver.bisect(h);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report->status.code(), StatusCode::kDeadlineExceeded);
  // Feasible: valid flag set, exactly half the vertices on each side, and
  // the reported cut is the true cost of that partition.
  ASSERT_TRUE(report->solution.valid);
  ASSERT_EQ(report->solution.side.size(),
            static_cast<std::size_t>(h.num_vertices()));
  std::int64_t on_one = 0;
  for (bool b : report->solution.side) on_one += b ? 1 : 0;
  EXPECT_EQ(on_one, h.num_vertices() / 2);
  EXPECT_DOUBLE_EQ(report->solution.cut,
                   h.cut_weight(report->solution.side));
}

TEST(AnytimeDegradation, ExpiredDeadlineCutTreeBisectionStaysFeasible) {
  ht::Rng rng(11);
  const auto h = ht::hypergraph::random_uniform(60, 120, 3, rng);
  ht::Solver solver(expired_context());
  const auto report = solver.bisect_via_cut_tree(h);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(report->solution.valid);
  std::int64_t on_one = 0;
  for (bool b : report->solution.side) on_one += b ? 1 : 0;
  EXPECT_EQ(on_one, h.num_vertices() / 2);
}

TEST(AnytimeDegradation, ShortDeadlineBisectionTerminatesFeasibly) {
  // A live (not pre-expired) 5 ms deadline on an instance that takes much
  // longer: whatever point the stop lands on, the result must be feasible.
  ht::Rng rng(5);
  const auto h = ht::hypergraph::random_uniform(240, 480, 3, rng);
  RunContext ctx;
  ctx.with_deadline_after(std::chrono::milliseconds(5));
  ht::Solver solver(ctx);
  const auto report = solver.bisect(h);
  ASSERT_TRUE(report.has_value());
  ASSERT_TRUE(report->solution.valid);
  std::int64_t on_one = 0;
  for (bool b : report->solution.side) on_one += b ? 1 : 0;
  EXPECT_EQ(on_one, h.num_vertices() / 2);
  EXPECT_DOUBLE_EQ(report->solution.cut,
                   h.cut_weight(report->solution.side));
}

TEST(AnytimeDegradation, CancelMidRunStaysFeasible) {
  ht::Rng rng(31);
  const auto h = ht::hypergraph::random_uniform(160, 320, 3, rng);
  CancelSource source;
  RunContext ctx;
  ctx.with_cancel(source.token());
  ht::Solver solver(ctx);
  source.request_cancel();  // cancel before the run even starts
  const auto report = solver.bisect(h);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(report->solution.valid);
}

// Acceptance: after an interrupted run, the same Solver's caches are
// reusable with no leaked state — a subsequent full run is byte-identical
// to one that never saw an interruption.
TEST(AnytimeDegradation, InterruptedRunLeavesArenasReusable) {
  ht::Rng rng(13);
  const auto g = ht::graph::gnp_connected(40, 6.0 / 40, rng);
  ht::Rng hrng(17);
  const auto h = ht::hypergraph::random_uniform(80, 160, 3, hrng);

  // Reference results from a process state with no interruption yet.
  ht::Solver clean;
  const auto reference_tree = clean.gomory_hu(g);
  ASSERT_TRUE(reference_tree.ok());

  // Interrupt a bisection mid-flight (expired deadline).
  ht::Solver degraded(expired_context());
  const auto partial = degraded.bisect(h);
  EXPECT_FALSE(partial.ok());

  // The next full run reuses the same thread-local arenas and caches.
  const auto after = clean.gomory_hu(g);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->tree.parent, reference_tree->tree.parent);
  EXPECT_EQ(after->tree.parent_cut, reference_tree->tree.parent_cut);

  // Arena metrics stay consistent: the runs went through the engine cache,
  // and every cache miss built a network.
  auto& metrics = ht::obs::MetricsRegistry::global();
  const std::uint64_t misses = metrics.counter("arena.misses").value();
  EXPECT_GT(metrics.counter("arena.hits").value() + misses, 0u);
  EXPECT_GE(metrics.counter("flow.builds").value(), misses);
}

// ---------- flow-engine propagation ----------

TEST(FlowPropagation, LatchedStopInterruptsMaxFlow) {
  ht::Rng rng(3);
  const auto g = ht::graph::gnp_connected(60, 8.0 / 60, rng);
  // Without a run context the solve is complete.
  const auto free_run = ht::CutEngine().min_edge_cut(g, {0}, {g.num_vertices() - 1});
  EXPECT_TRUE(free_run.complete);

  // With a pre-latched stop, the Dinic loop breaks at its first poll and
  // marks the witness incomplete.
  RunScope scope(expired_context());
  scope.state().check();  // latch kDeadlineExceeded
  const auto interrupted =
      ht::CutEngine().min_edge_cut(g, {0}, {g.num_vertices() - 1});
  EXPECT_FALSE(interrupted.complete);
}

TEST(FlowPropagation, LatchedStopInterruptsHyperedgeCut) {
  const auto h = chain_hypergraph(40);
  RunScope scope(expired_context());
  scope.state().check();
  const auto interrupted =
      ht::CutEngine().min_hyperedge_cut(h, {0}, {h.num_vertices() - 1});
  EXPECT_FALSE(interrupted.complete);
}

TEST(FlowPropagation, GomoryHuNeverAppliesIncompleteCuts) {
  ht::Rng rng(23);
  const auto g = ht::graph::gnp_connected(30, 6.0 / 30, rng);
  RunScope scope(expired_context());
  scope.state().check();
  const auto result = ht::CutEngine().gomory_hu(g);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.applied, 0);
  // The provisional star is a valid tree with pessimistic zero cuts.
  ASSERT_EQ(result.tree.parent.size(),
            static_cast<std::size_t>(g.num_vertices()));
  for (ht::graph::VertexId v = 1; v < g.num_vertices(); ++v) {
    EXPECT_EQ(result.tree.parent[static_cast<std::size_t>(v)], 0);
    EXPECT_EQ(result.tree.parent_cut[static_cast<std::size_t>(v)], 0.0);
  }
}

TEST(FlowPropagation, HypergraphGomoryHuStopsCleanly) {
  const auto h = chain_hypergraph(24);
  RunContext ctx;
  ctx.with_piece_budget(4);
  RunScope scope(ctx);
  const auto result = ht::CutEngine().gomory_hu(h);
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(result.applied, 4);
}

// ---------- hMetis IO statuses ----------

StatusOr<ht::hypergraph::Hypergraph> parse(const std::string& text) {
  return ht::hypergraph::try_read_hmetis(text);
}

TEST(IoStatus, WellFormedRoundTrip) {
  ht::Rng rng(41);
  const auto h = ht::hypergraph::random_uniform(12, 20, 3, rng);
  std::ostringstream os;
  ht::hypergraph::write_hmetis(h, os);
  const auto parsed = parse(os.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_vertices(), h.num_vertices());
  EXPECT_EQ(parsed->num_edges(), h.num_edges());
  std::vector<bool> side(static_cast<std::size_t>(h.num_vertices()), false);
  for (ht::hypergraph::VertexId v = 0; v < h.num_vertices() / 2; ++v)
    side[static_cast<std::size_t>(v)] = true;
  EXPECT_DOUBLE_EQ(parsed->cut_weight(side), h.cut_weight(side));
}

TEST(IoStatus, MalformedInputsYieldInvalidArgument) {
  const char* bad[] = {
      "",                      // empty
      "% only a comment\n",    // no header
      "notanumber\n",          // unparsable header
      "2 4 7\n1 2\n3 4\n",     // bad fmt field
      "-1 4\n",                // negative edge count
      "2 4\n1 2\n",            // truncated: one of two edge lines
      "1 4\n1 9\n",            // pin out of range
      "1 4\n1 x 2\n",          // non-numeric pin
      "1 4 1\nw 1 2\n",        // missing edge weight
      "1 4 10\n1 2\n1.5\n",    // truncated vertex weights
  };
  for (const char* text : bad) {
    const auto parsed = parse(text);
    EXPECT_FALSE(parsed.ok()) << "input: " << text;
    EXPECT_FALSE(parsed.has_value()) << "input: " << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << "input: " << text;
    EXPECT_FALSE(parsed.status().message().empty()) << "input: " << text;
  }
}

TEST(IoStatus, MissingFileYieldsInvalidArgument) {
  const auto parsed =
      ht::Solver::read_hmetis("/nonexistent/definitely_missing.hmetis");
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

// ---------- facade ----------

TEST(SolverFacade, SeedOverrideAppliesToOptions) {
  ht::Rng rng(55);
  const auto h = ht::hypergraph::random_uniform(40, 80, 3, rng);
  RunContext a;
  a.with_seed(123);
  ht::Solver sa(a);
  ht::core::Theorem1Options options;
  options.seed = 999;  // overridden by the context seed
  const auto ra = sa.bisect(h, options);

  RunContext b;
  b.with_seed(123);
  ht::Solver sb(b);
  ht::core::Theorem1Options other;
  other.seed = 111;
  const auto rb = sb.bisect(h, other);

  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->solution.side, rb->solution.side);
  EXPECT_DOUBLE_EQ(ra->solution.cut, rb->solution.cut);
}

TEST(SolverFacade, CompleteRunsReportOk) {
  ht::Rng rng(67);
  const auto g = ht::graph::gnp_connected(30, 5.0 / 30, rng);
  const auto h = chain_hypergraph(20);
  ht::Solver solver;
  EXPECT_TRUE(solver.build_vertex_cut_tree(g).ok());
  EXPECT_TRUE(solver.decomposition_tree(g).ok());
  EXPECT_TRUE(solver.bisect(h).ok());
  EXPECT_TRUE(solver.gomory_hu(g).ok());
  EXPECT_TRUE(solver.gomory_hu(h).ok());
}

}  // namespace
