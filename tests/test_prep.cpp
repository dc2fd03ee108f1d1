// Tests for preprocessing (src/prep/): kernelization rules, the composed
// Lifting, determinism across thread counts, anytime stops, and the
// end-to-end original-id contract through snapshot builds and TreeServer
// queries.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "flow/cut_engine.hpp"
#include "ht/hypertree.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/hypergraph.hpp"
#include "obs/flight_recorder.hpp"
#include "prep/prep.hpp"
#include "serve/snapshot_build.hpp"
#include "serve/tree_server.hpp"
#include "util/rng.hpp"
#include "util/run_context.hpp"
#include "util/thread_pool.hpp"

namespace {

using ht::hypergraph::Hypergraph;

double global_min_cut(const Hypergraph& h) {
  const auto gh = ht::CutEngine().gomory_hu(h);
  double best = -1.0;
  for (std::int32_t v = 0; v < h.num_vertices(); ++v) {
    if (v == gh.tree.root) continue;
    const double cut = gh.tree.parent_cut[static_cast<std::size_t>(v)];
    if (best < 0.0 || cut < best) best = cut;
  }
  return best;
}

/// Planted communities plus three heavy edges, so heavy contraction merges
/// {0,1,2}, {20,21} and {40,41,42,43} and the stored instance has merged
/// pairs.
Hypergraph heavy_planted() {
  ht::Rng rng(81);
  const auto base = ht::hypergraph::planted_parts(4, 16, 3, 60, 16, rng);
  Hypergraph h(base.num_vertices());
  for (std::int32_t e = 0; e < base.num_edges(); ++e) {
    const auto pins = base.pins(e);
    h.add_edge({pins.begin(), pins.end()}, base.edge_weight(e));
  }
  h.add_edge({0, 1, 2}, 100.0);
  h.add_edge({20, 21}, 100.0);
  h.add_edge({40, 41, 42, 43}, 100.0);
  h.finalize();
  return h;
}

/// netlist_like(240, 480, 4) with every edge copied 8 times: duplicate
/// merging collapses it back down.
Hypergraph replicated_netlist() {
  ht::Rng rng(11);
  const auto base = ht::hypergraph::netlist_like(240, 480, 4, rng);
  Hypergraph h(base.num_vertices());
  for (int copy = 0; copy < 8; ++copy) {
    for (std::int32_t e = 0; e < base.num_edges(); ++e) {
      const auto pins = base.pins(e);
      h.add_edge({pins.begin(), pins.end()}, base.edge_weight(e));
    }
  }
  h.finalize();
  return h;
}

Hypergraph triangle_with_extras() {
  Hypergraph h(4);
  h.add_edge({0, 1}, 1.0);
  h.add_edge({1, 2}, 1.0);
  h.add_edge({2, 0}, 1.0);
  h.add_edge({2, 3}, 1.0);
  h.finalize();
  return h;
}

TEST(PrepKernelize, DropsZeroWeightEdges) {
  Hypergraph h(4);
  h.add_edge({0, 1}, 1.0);
  h.add_edge({1, 2}, 0.0);  // must vanish
  h.add_edge({2, 3}, 1.0);
  h.add_edge({0, 3}, 1.0);
  h.finalize();
  ht::prep::PrepConfig config;
  config.mode = ht::prep::PrepConfig::Mode::kExactOnly;
  const auto result = ht::prep::run_pipeline(h, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stage_flags & ht::prep::kStageZeroEdges);
  EXPECT_EQ(result->reduced.num_edges(), 3);
  for (std::int32_t e = 0; e < result->reduced.num_edges(); ++e) {
    EXPECT_GT(result->reduced.edge_weight(e), 0.0);
  }
  EXPECT_TRUE(result->cut_preserving());
}

TEST(PrepKernelize, MergesDuplicateEdgesSummingWeights) {
  Hypergraph h(4);
  h.add_edge({0, 1, 2}, 1.0);
  h.add_edge({2, 1, 0}, 2.5);  // same pin set, different order
  // Weight 2 keeps every edge at or below lambda_hat = 3.5, so heavy
  // contraction leaves the merge to observe.
  h.add_edge({1, 3}, 2.0);
  h.add_edge({0, 3}, 2.0);
  h.finalize();
  ht::prep::PrepConfig config;
  config.mode = ht::prep::PrepConfig::Mode::kExactOnly;
  const auto result = ht::prep::run_pipeline(h, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stage_flags & ht::prep::kStageDuplicateMerge);
  EXPECT_EQ(result->reduced.num_vertices(), 4);
  EXPECT_EQ(result->reduced.num_edges(), 3);
  // The merged {0,1,2} edge carries the summed weight.
  bool found = false;
  for (std::int32_t e = 0; e < result->reduced.num_edges(); ++e) {
    if (result->reduced.pins(e).size() == 3) {
      found = true;
      EXPECT_DOUBLE_EQ(result->reduced.edge_weight(e), 3.5);
    }
  }
  EXPECT_TRUE(found);
  // Duplicate merging preserves every cut value, not just the minimum.
  EXPECT_TRUE(result->cut_preserving());
  EXPECT_DOUBLE_EQ(global_min_cut(result->reduced), global_min_cut(h));
}

TEST(PrepKernelize, ContractsHeavyEdgesAboveMinDegreeBound) {
  // lambda_hat = min weighted degree = 2 (vertices 0 and 3); the weight-5
  // edge {1, 2} exceeds it, so 1 and 2 contract; min cut value survives.
  Hypergraph h(4);
  h.add_edge({0, 1}, 1.0);
  h.add_edge({0, 2}, 1.0);
  h.add_edge({1, 2}, 5.0);
  h.add_edge({1, 3}, 1.0);
  h.add_edge({2, 3}, 1.0);
  h.finalize();
  const double before = global_min_cut(h);
  ht::prep::PrepConfig config;
  config.mode = ht::prep::PrepConfig::Mode::kExactOnly;
  const auto result = ht::prep::run_pipeline(h, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stage_flags & ht::prep::kStageHeavyContraction);
  EXPECT_LT(result->reduced.num_vertices(), 4);
  EXPECT_TRUE(ht::prep::stages_exact(result->stage_flags));
  EXPECT_FALSE(result->cut_preserving());
  EXPECT_DOUBLE_EQ(global_min_cut(result->reduced), before);
  // 1 and 2 share a cluster; 0 and 3 keep their own.
  const auto& lift = result->lifting;
  EXPECT_EQ(lift.to_reduced(1), lift.to_reduced(2));
  EXPECT_NE(lift.to_reduced(0), lift.to_reduced(1));
  EXPECT_NE(lift.to_reduced(3), lift.to_reduced(1));
}

TEST(PrepPipeline, OffModeIsIdentity) {
  const Hypergraph h = triangle_with_extras();
  const auto result = ht::prep::run_pipeline(h, {});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->applied());
  EXPECT_TRUE(result->lifting.is_identity());
  EXPECT_EQ(result->reduced.num_vertices(), h.num_vertices());
  EXPECT_EQ(result->reduced.num_edges(), h.num_edges());
  EXPECT_DOUBLE_EQ(result->reduction_ratio(), 1.0);
}

TEST(PrepPipeline, ExactModePreservesGlobalMinCutOnCorpus) {
  std::vector<Hypergraph> corpus;
  {
    ht::Rng rng(31);
    corpus.push_back(ht::hypergraph::netlist_like(60, 120, 2, rng));
  }
  {
    ht::Rng rng(32);
    corpus.push_back(ht::hypergraph::planted_parts(4, 12, 3, 40, 12, rng));
  }
  {
    ht::Rng rng(33);
    corpus.push_back(ht::hypergraph::random_uniform(40, 160, 3, rng));
  }
  {
    ht::Rng rng(34);
    corpus.push_back(ht::hypergraph::planted_bisection(24, 3, 60, 8, rng));
  }
  {
    ht::Rng rng(35);
    corpus.push_back(ht::hypergraph::spmv_row_net(48, 96, 3, 0.05, rng));
  }
  // Three larger families: duplicated nets, planted communities and a
  // dense random instance.
  corpus.push_back(replicated_netlist());
  {
    ht::Rng rng(12);
    corpus.push_back(ht::hypergraph::planted_parts(8, 40, 3, 160, 40, rng));
  }
  {
    ht::Rng rng(13);
    corpus.push_back(ht::hypergraph::random_uniform(160, 1600, 4, rng));
  }
  ht::prep::PrepConfig config;
  config.mode = ht::prep::PrepConfig::Mode::kExactOnly;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Hypergraph& h = corpus[i];
    const auto result = ht::prep::run_pipeline(h, config);
    ASSERT_TRUE(result.ok()) << "instance " << i;
    EXPECT_TRUE(ht::prep::stages_exact(result->stage_flags))
        << "instance " << i;
    EXPECT_DOUBLE_EQ(global_min_cut(result->reduced), global_min_cut(h))
        << "instance " << i;
  }
}

TEST(PrepLifting, ComposesStageMaps) {
  auto lift = ht::prep::Lifting::identity(6);
  // Stage 1: pair up {0,1}, {2,3}, {4,5}.
  ht::prep::ContractionMap first;
  first.cluster_of = {0, 0, 1, 1, 2, 2};
  first.num_clusters = 3;
  lift.compose(first);
  // Stage 2: merge clusters 0 and 2.
  ht::prep::ContractionMap second;
  second.cluster_of = {0, 1, 0};
  second.num_clusters = 2;
  lift.compose(second);
  EXPECT_EQ(lift.num_original(), 6);
  EXPECT_EQ(lift.num_reduced(), 2);
  const std::vector<std::int32_t> expect = {0, 0, 1, 1, 0, 0};
  for (std::int32_t v = 0; v < 6; ++v) {
    EXPECT_EQ(lift.to_reduced(v), expect[static_cast<std::size_t>(v)]) << v;
  }
  const auto side = lift.lift_side({true, false});
  const std::vector<bool> expect_side = {true, true, false, false, true, true};
  EXPECT_EQ(side, expect_side);
  const auto part = lift.lift_partition({7, 9});
  const std::vector<std::int32_t> expect_part = {7, 7, 9, 9, 7, 7};
  EXPECT_EQ(part, expect_part);
}

TEST(PrepPipeline, PieceBudgetStopsBetweenStagesWithValidResult) {
  const Hypergraph h = heavy_planted();
  ht::prep::PrepConfig config;
  config.mode = ht::prep::PrepConfig::Mode::kExactOnly;
  ht::RunContext ctx;
  ctx.with_piece_budget(1);  // the kernelization pass spends it
  ht::RunScope scope(ctx);
  const auto result = ht::prep::run_pipeline(h, config);
  EXPECT_EQ(result.status().code(), ht::StatusCode::kResourceExhausted);
  ASSERT_TRUE(result.has_value());
  // Anytime: whatever was applied is still a consistent reduction.
  EXPECT_TRUE(result->applied());
  EXPECT_LT(result->reduced.num_vertices(), h.num_vertices());
  EXPECT_GE(result->reduced.num_vertices(), 2);
  // Lifting is total and onto the reduced vertex set.
  EXPECT_EQ(result->lifting.num_original(), h.num_vertices());
  EXPECT_EQ(result->lifting.num_reduced(), result->reduced.num_vertices());
  std::vector<bool> hit(
      static_cast<std::size_t>(result->reduced.num_vertices()), false);
  for (std::int32_t v = 0; v < h.num_vertices(); ++v) {
    const auto r = result->lifting.to_reduced(v);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, result->reduced.num_vertices());
    hit[static_cast<std::size_t>(r)] = true;
  }
  for (const bool b : hit) EXPECT_TRUE(b);
}

TEST(PrepPipeline, RejectsUnfinalizedInput) {
  Hypergraph h(4);
  h.add_edge({0, 1}, 1.0);
  ht::prep::PrepConfig config;
  config.mode = ht::prep::PrepConfig::Mode::kExactOnly;
  const auto result = ht::prep::run_pipeline(h, config);
  EXPECT_EQ(result.status().code(), ht::StatusCode::kInvalidArgument);
}

TEST(PrepSnapshot, BuildBytesIdenticalAcrossThreadCounts) {
  const Hypergraph h = heavy_planted();
  ht::snapshot::BuildOptions options;
  options.prep.mode = ht::prep::PrepConfig::Mode::kExactOnly;
  ht::ThreadPool::reset_global(1);
  const auto one = ht::snapshot::build(h, options);
  ht::ThreadPool::reset_global(4);
  const auto four = ht::snapshot::build(h, options);
  ht::ThreadPool::reset_global();
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(four.ok());
  EXPECT_EQ(*one, *four);
}

class PrepServeTest : public ::testing::Test {
 protected:
  static ht::TreeServer open_with_mode(
      const Hypergraph& h, ht::prep::PrepConfig::Mode mode,
      ht::snapshot::BuildReport* report,
      ht::snapshot::BuildOptions options = {}) {
    options.prep.mode = mode;
    // Per-test file names: ctest runs every case as its own process, in
    // parallel under -j.
    const auto* test = testing::UnitTest::GetInstance()->current_test_info();
    const std::string path = testing::TempDir() + "test_prep_serve_" +
                             test->name() + "_" +
                             std::string(ht::prep::mode_name(mode)) +
                             ".htsnap";
    EXPECT_TRUE(ht::snapshot::write(h, path, options, report).ok());
    auto server = ht::TreeServer::open(path);
    std::remove(path.c_str());
    EXPECT_TRUE(server.has_value());
    return *server;
  }
};

TEST_F(PrepServeTest, InfoReportsOriginalAndStoredCounts) {
  const Hypergraph h = heavy_planted();
  ht::snapshot::BuildReport report;
  auto server = open_with_mode(h, ht::prep::PrepConfig::Mode::kExactOnly,
                               &report);
  ASSERT_TRUE(report.prep_applied);
  const auto info = server.info();
  EXPECT_EQ(info.num_vertices, h.num_vertices());
  EXPECT_EQ(info.num_edges, h.num_edges());
  EXPECT_EQ(info.stored_vertices, report.stored_vertices);
  EXPECT_EQ(info.stored_edges, report.stored_edges);
  EXPECT_LT(info.stored_vertices, info.num_vertices);
  EXPECT_TRUE(info.preprocessed);
  EXPECT_TRUE(info.prep_exact);
  EXPECT_EQ(info.prep_stage_flags, report.prep_stage_flags);
}

TEST_F(PrepServeTest, MinCutAnswersInOriginalIdsAndRejectsMergedPairs) {
  const Hypergraph h = heavy_planted();
  ht::snapshot::BuildReport report;
  auto server = open_with_mode(h, ht::prep::PrepConfig::Mode::kExactOnly,
                               &report);
  ASSERT_TRUE(report.prep_applied);
  const auto state = server.state();
  ASSERT_TRUE(state->has_prep);
  // Find a merged pair and a surviving pair in original ids.
  std::int32_t merged_a = -1, merged_b = -1, split_a = -1, split_b = -1;
  for (std::int32_t u = 0; u < h.num_vertices() && split_b < 0; ++u) {
    for (std::int32_t v = u + 1; v < h.num_vertices(); ++v) {
      const bool same = state->to_stored(u) == state->to_stored(v);
      if (same && merged_a < 0) {
        merged_a = u;
        merged_b = v;
      } else if (!same && split_a < 0) {
        split_a = u;
        split_b = v;
      }
      if (merged_a >= 0 && split_a >= 0) break;
    }
  }
  ASSERT_GE(merged_a, 0) << "prep merged nothing";
  ASSERT_GE(split_a, 0);
  const auto merged = server.min_cut(merged_a, merged_b);
  EXPECT_EQ(merged.status().code(), ht::StatusCode::kInvalidArgument);
  const auto split = server.min_cut(split_a, split_b);
  ASSERT_TRUE(split.has_value());
  EXPECT_GT(split->value, 0.0);
  EXPECT_FALSE(split->exact);  // heavy contraction demotes min-cut answers
  // Out-of-range original ids are rejected against the ORIGINAL count.
  EXPECT_EQ(server.min_cut(0, h.num_vertices()).status().code(),
            ht::StatusCode::kInvalidArgument);
}

TEST_F(PrepServeTest, ExactOnlyPrepKeepsMinCutValuesExact) {
  // A corpus with genuine kernelization: duplicated edges merge, so the
  // stored instance is smaller but every s-t cut value is preserved.
  Hypergraph base(8);
  for (int copy = 0; copy < 3; ++copy) {
    base.add_edge({0, 1, 2}, 1.0);
    base.add_edge({2, 3}, 1.0);
    base.add_edge({3, 4, 5}, 1.0);
    base.add_edge({5, 6}, 1.0);
    base.add_edge({6, 7}, 1.0);
    base.add_edge({7, 0}, 1.0);
  }
  base.finalize();
  ht::snapshot::BuildReport report;
  auto server = open_with_mode(base, ht::prep::PrepConfig::Mode::kExactOnly,
                               &report);
  ASSERT_TRUE(report.prep_applied);
  ASSERT_TRUE(ht::prep::stages_exact(report.prep_stage_flags));
  ht::snapshot::BuildReport off_report;
  auto off = open_with_mode(base, ht::prep::PrepConfig::Mode::kOff,
                            &off_report);
  for (std::int32_t s = 0; s < base.num_vertices(); ++s) {
    for (std::int32_t t = s + 1; t < base.num_vertices(); ++t) {
      const auto with_prep = server.min_cut(s, t);
      const auto without = off.min_cut(s, t);
      if (!with_prep.has_value()) continue;  // merged pair (none expected)
      ASSERT_TRUE(without.has_value());
      EXPECT_DOUBLE_EQ(with_prep->value, without->value) << s << "," << t;
    }
  }
}

// info().prep_exact and the prep_exact bit of every flight record are one
// fact: no lossy stage touched the served instance. It holds without prep
// and under heavy contraction (whose per-pair min cuts only dominate), and
// fails on the fixture an older build wrote with a lossy stage.
TEST_F(PrepServeTest, InfoAndFlightRecordsAgreeOnPrepExact) {
  const std::string data = HT_TEST_DATA_DIR;
  auto off = ht::TreeServer::open(data + "/golden_v1_small16.htsnap");
  ASSERT_TRUE(off.ok()) << off.status().to_string();
  auto lossy =
      ht::TreeServer::open(data + "/golden_v1_small16_aggressive.htsnap");
  ASSERT_TRUE(lossy.ok()) << lossy.status().to_string();
  ht::snapshot::BuildReport report;
  const auto heavy = open_with_mode(
      heavy_planted(), ht::prep::PrepConfig::Mode::kExactOnly, &report);
  ASSERT_EQ(report.prep_stage_flags, ht::prep::kStageHeavyContraction);

  const struct {
    const char* name;
    const ht::TreeServer* server;
    bool prep_exact;
  } cases[] = {{"prep off", &*off, true},
               {"heavy contraction", &heavy, true},
               {"lossy", &*lossy, false}};
  auto& recorder = ht::obs::FlightRecorder::global();
  for (const auto& c : cases) {
    EXPECT_EQ(c.server->info().prep_exact, c.prep_exact) << c.name;
    const std::int64_t since = recorder.now_ns();
    EXPECT_TRUE(c.server->global_min_cut().ok()) << c.name;
    EXPECT_TRUE(c.server->bisection().ok()) << c.name;
    EXPECT_TRUE(c.server->kway(4).ok()) << c.name;
    int records = 0;
    for (const auto& record : recorder.dump()) {
      if (record.start_ns < since) continue;
      ++records;
      EXPECT_EQ(record.prep_exact, c.prep_exact) << c.name;
    }
    EXPECT_EQ(records, 3) << c.name;
  }
}

// Heavy contraction only removes cuts, so a complete Gomory–Hu tree on the
// reduced instance never under-reports an s-t cut of the original.
TEST_F(PrepServeTest, HeavyContractionMinCutsDominate) {
  const Hypergraph h = heavy_planted();
  ht::snapshot::BuildReport report;
  auto server = open_with_mode(h, ht::prep::PrepConfig::Mode::kExactOnly,
                               &report);
  ASSERT_EQ(report.prep_stage_flags, ht::prep::kStageHeavyContraction);
  const auto state = server.state();
  const ht::CutEngine engine;
  std::int32_t split_pairs = 0;
  for (std::int32_t s = 0; s < h.num_vertices(); ++s) {
    for (std::int32_t t = s + 1; t < h.num_vertices(); ++t) {
      if (state->to_stored(s) == state->to_stored(t)) continue;
      ++split_pairs;
      const auto served = server.min_cut(s, t);
      ASSERT_TRUE(served.has_value()) << s << "," << t;
      const double truth = engine.min_hyperedge_cut(h, {s}, {t}).value;
      EXPECT_GE(served->value, truth - 1e-9) << s << "," << t;
      EXPECT_TRUE(served->dominating) << s << "," << t;
      EXPECT_FALSE(served->exact) << s << "," << t;
    }
  }
  EXPECT_GT(split_pairs, 0);
}

// The exact pass alone shrinks the replicated family >= 5x, and the
// bisection served from its snapshot, evaluated on the original instance,
// stays within 5% of the one served without prep.
TEST_F(PrepServeTest, ExactPrepShrinksReplicatedWithoutBisectionLoss) {
  const Hypergraph h = replicated_netlist();
  ht::prep::PrepConfig config;
  config.mode = ht::prep::PrepConfig::Mode::kExactOnly;
  const auto result = ht::prep::run_pipeline(h, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->reduction_ratio(), 5.0);

  // bisection() reads only the vertex cut tree.
  ht::snapshot::BuildOptions options;
  options.seed = 7;
  options.include_gomory_hu = false;
  options.include_decomposition = false;
  auto off = open_with_mode(h, ht::prep::PrepConfig::Mode::kOff, nullptr,
                            options);
  auto exact = open_with_mode(h, ht::prep::PrepConfig::Mode::kExactOnly,
                              nullptr, options);
  const auto off_answer = off.bisection();
  const auto exact_answer = exact.bisection();
  ASSERT_TRUE(off_answer.has_value());
  ASSERT_TRUE(exact_answer.has_value());
  const double off_cut = h.cut_weight(off_answer->side);
  const double exact_cut = h.cut_weight(exact_answer->side);
  ASSERT_GT(off_cut, 0.0);
  EXPECT_LT(exact_cut, 1.05 * off_cut) << exact_cut << " vs " << off_cut;
}

TEST_F(PrepServeTest, BisectionBalancesOriginalVertices) {
  const Hypergraph h = heavy_planted();
  ht::snapshot::BuildReport report;
  auto server = open_with_mode(h, ht::prep::PrepConfig::Mode::kExactOnly,
                               &report);
  ASSERT_TRUE(report.prep_applied);
  const auto answer = server.bisection();
  ASSERT_TRUE(answer.has_value());
  ASSERT_EQ(static_cast<std::int32_t>(answer->side.size()),
            h.num_vertices());
  std::int32_t ones = 0;
  for (const bool s : answer->side) ones += s ? 1 : 0;
  EXPECT_EQ(ones, h.num_vertices() / 2);
  EXPECT_GT(answer->cut, 0.0);
}

TEST_F(PrepServeTest, KwayPartitionsOriginalVertices) {
  const Hypergraph h = heavy_planted();
  ht::snapshot::BuildReport report;
  auto server = open_with_mode(h, ht::prep::PrepConfig::Mode::kExactOnly,
                               &report);
  const auto answer = server.kway(4);
  ASSERT_TRUE(answer.has_value());
  ASSERT_EQ(static_cast<std::int32_t>(answer->part.size()),
            h.num_vertices());
  std::vector<std::int32_t> sizes(4, 0);
  for (const std::int32_t p : answer->part) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 4);
    ++sizes[static_cast<std::size_t>(p)];
  }
  for (const std::int32_t s : sizes) EXPECT_EQ(s, h.num_vertices() / 4);
}

TEST_F(PrepServeTest, SetCutAnswersAndRejectsNodeCollisions) {
  const Hypergraph h = heavy_planted();
  ht::snapshot::BuildReport report;
  auto server = open_with_mode(h, ht::prep::PrepConfig::Mode::kExactOnly,
                               &report);
  ASSERT_TRUE(report.prep_applied);
  const auto state = server.state();
  // A merged pair split across sides must be a Status, not a crash.
  std::int32_t merged_a = -1, merged_b = -1;
  for (std::int32_t u = 0; u < h.num_vertices() && merged_a < 0; ++u) {
    for (std::int32_t v = u + 1; v < h.num_vertices(); ++v) {
      if (state->to_stored(u) == state->to_stored(v)) {
        merged_a = u;
        merged_b = v;
        break;
      }
    }
  }
  ASSERT_GE(merged_a, 0);
  const auto collided = server.set_cut({merged_a}, {merged_b});
  EXPECT_EQ(collided.status().code(), ht::StatusCode::kInvalidArgument);
  // A pair on distinct stored vertices answers with a dominating value.
  std::int32_t other = -1;
  for (std::int32_t v = 0; v < h.num_vertices(); ++v) {
    if (state->to_stored(v) != state->to_stored(merged_a)) {
      other = v;
      break;
    }
  }
  ASSERT_GE(other, 0);
  const auto answer = server.set_cut({merged_a}, {other});
  ASSERT_TRUE(answer.has_value());
  EXPECT_GT(answer->value, 0.0);
}

TEST_F(PrepServeTest, SetCutRejectionsKeepTheirMessagesAndOrder) {
  // Heavy contraction merges {0, 1, 2} into one stored vertex, so 0 and 1
  // share a tree node; 5 and 9 stay apart (both checked below).
  const Hypergraph h = heavy_planted();
  ht::snapshot::BuildReport report;
  auto server = open_with_mode(h, ht::prep::PrepConfig::Mode::kExactOnly,
                               &report);
  ASSERT_TRUE(report.prep_applied);
  const auto state = server.state();
  ASSERT_EQ(state->to_stored(0), state->to_stored(1));
  ASSERT_NE(state->to_stored(5), state->to_stored(9));
  const std::string empty = "set_cut needs non-empty sides";
  const std::string range = "set_cut vertex out of range";
  const std::string overlap = "set_cut sides must be disjoint";
  const std::string shared =
      "set_cut sides share a tree node (vertices merged by preprocessing)";
  const std::int32_t big = h.num_vertices();
  struct Case {
    std::vector<std::int32_t> a, b;
    const std::string* message;
  };
  const Case cases[] = {
      {{}, {5}, &empty},
      {{5}, {}, &empty},
      {{big}, {}, &empty},         // empty side before range
      {{big}, {5}, &range},        // A out of range
      {{-1}, {5}, &range},
      {{5, big}, {5}, &range},     // A's range before overlap
      {{5}, {9, 5, big}, &overlap},  // B in order: overlap first
      {{5}, {9, big, 5}, &range},    // B in order: range first
      {{0}, {1}, &shared},          // merged by preprocessing
      {{0}, {1, big}, &range},      // every B check before shared node
      {{0}, {1, 0}, &overlap},
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const auto answer = server.set_cut(cases[i].a, cases[i].b);
    ASSERT_FALSE(answer.ok()) << "case " << i;
    EXPECT_EQ(answer.status().code(), ht::StatusCode::kInvalidArgument);
    EXPECT_EQ(answer.status().message(), *cases[i].message) << "case " << i;
  }
  EXPECT_TRUE(server.set_cut({5}, {9}).ok());
}

// Kernelization takes no seed: under a seeded context the facade returns
// exactly what run_pipeline does.
TEST(PrepSolver, FacadePreprocessAppliesContextSeed) {
  const Hypergraph h = heavy_planted();
  ht::RunContext ctx;
  ctx.with_seed(123);
  ht::Solver solver(ctx);
  ht::prep::PrepConfig config;
  config.mode = ht::prep::PrepConfig::Mode::kExactOnly;
  const auto facade = solver.preprocess(h, config);
  const auto direct = ht::prep::run_pipeline(h, config);
  ASSERT_TRUE(facade.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(facade->applied());
  EXPECT_EQ(facade->reduced.num_vertices(), direct->reduced.num_vertices());
  EXPECT_EQ(facade->reduced.num_edges(), direct->reduced.num_edges());
  EXPECT_EQ(facade->stage_flags, direct->stage_flags);
  EXPECT_EQ(facade->lifting.map(), direct->lifting.map());
}

}  // namespace
