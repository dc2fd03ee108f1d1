// TreeServer: query correctness against in-memory artifacts, per-query
// deadlines, and the two-slot epoch hot-swap — no dropped queries, no
// leaked mappings (CI additionally runs this file under TSan).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "flow/cut_engine.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/hypergraph.hpp"
#include "json_check.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/snapshot_build.hpp"
#include "serve/snapshot_writer.hpp"
#include "serve/tree_server.hpp"
#include "util/mmap_file.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

ht::hypergraph::Hypergraph make_instance(std::uint64_t seed) {
  ht::Rng rng(seed);
  auto h = ht::hypergraph::random_uniform(16, 30, 3, rng);
  EXPECT_TRUE(ht::hypergraph::is_connected(h));
  return h;
}

std::string write_snapshot(const ht::hypergraph::Hypergraph& h,
                           const std::string& name) {
  const std::string path = testing::TempDir() + name;
  ht::snapshot::BuildOptions options;
  options.seed = 7;
  EXPECT_TRUE(ht::snapshot::write(h, path, options).ok());
  return path;
}

TEST(TreeServer, OpensAndReportsInfo) {
  const auto h = make_instance(1);
  const std::string path = write_snapshot(h, "serve_info.htsnap");
  auto server = ht::TreeServer::open(path);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  const auto info = server->info();
  EXPECT_EQ(info.num_vertices, h.num_vertices());
  EXPECT_EQ(info.num_edges, h.num_edges());
  EXPECT_TRUE(info.has_gomory_hu);
  EXPECT_TRUE(info.has_vertex_cut_tree);
  EXPECT_TRUE(info.has_decomposition);
  EXPECT_EQ(info.swaps, 0u);
  std::remove(path.c_str());
}

TEST(TreeServer, MinCutMatchesInMemoryGomoryHu) {
  const auto h = make_instance(2);
  const std::string path = write_snapshot(h, "serve_minc.htsnap");
  auto server = ht::TreeServer::open(path);
  ASSERT_TRUE(server.ok());
  const auto gh = ht::CutEngine().gomory_hu(h);
  ASSERT_TRUE(gh.status.ok());
  for (std::int32_t s = 0; s < h.num_vertices(); ++s) {
    for (std::int32_t t = s + 1; t < h.num_vertices(); ++t) {
      auto answer = server->min_cut(s, t);
      ASSERT_TRUE(answer.ok());
      EXPECT_DOUBLE_EQ(answer->value, gh.tree.min_cut(s, t));
      EXPECT_TRUE(answer->exact);
    }
  }
  std::remove(path.c_str());
}

TEST(TreeServer, BisectionIsBalancedAndExactlyEvaluated) {
  const auto h = make_instance(3);
  const std::string path = write_snapshot(h, "serve_bisect.htsnap");
  auto server = ht::TreeServer::open(path);
  ASSERT_TRUE(server.ok());
  auto answer = server->bisection();
  ASSERT_TRUE(answer.ok()) << answer.status().to_string();
  ASSERT_EQ(static_cast<std::int64_t>(answer->side.size()),
            h.num_vertices());
  std::int64_t side1 = 0;
  for (const bool s : answer->side) side1 += s ? 1 : 0;
  EXPECT_EQ(side1, h.num_vertices() / 2);
  // The reported cut is the exact delta_H of the returned side.
  double expected = 0.0;
  for (ht::hypergraph::EdgeId e = 0; e < h.num_edges(); ++e) {
    bool saw0 = false, saw1 = false;
    for (const auto v : h.pins(e)) {
      (answer->side[static_cast<std::size_t>(v)] ? saw1 : saw0) = true;
    }
    if (saw0 && saw1) expected += h.edge_weight(e);
  }
  EXPECT_DOUBLE_EQ(answer->cut, expected);
  std::remove(path.c_str());
}

TEST(TreeServer, KwayIsBalancedAndExactlyEvaluated) {
  const auto h = make_instance(4);
  const std::string path = write_snapshot(h, "serve_kway.htsnap");
  auto server = ht::TreeServer::open(path);
  ASSERT_TRUE(server.ok());
  auto answer = server->kway(4);
  ASSERT_TRUE(answer.ok()) << answer.status().to_string();
  std::vector<int> sizes(4, 0);
  for (const std::int32_t p : answer->part) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 4);
    ++sizes[static_cast<std::size_t>(p)];
  }
  for (const int size : sizes) EXPECT_EQ(size, 4);
  EXPECT_GE(answer->connectivity, answer->cut);
  std::remove(path.c_str());
}

TEST(TreeServer, SetCutDominatesTrueCut) {
  const auto h = make_instance(5);
  const std::string path = write_snapshot(h, "serve_setcut.htsnap");
  auto server = ht::TreeServer::open(path);
  ASSERT_TRUE(server.ok());
  const std::vector<std::int32_t> a{0, 1, 2};
  const std::vector<std::int32_t> b{13, 14, 15};
  auto answer = server->set_cut(a, b);
  ASSERT_TRUE(answer.ok()) << answer.status().to_string();
  EXPECT_GE(answer->value, 0.0);
  // Invalid inputs are statuses.
  EXPECT_FALSE(server->set_cut({}, b).ok());
  EXPECT_FALSE(server->set_cut(a, {1}).ok());          // overlap
  EXPECT_FALSE(server->set_cut(a, {999}).ok());        // out of range
  std::remove(path.c_str());
}

TEST(TreeServer, RejectsInvalidQueryArguments) {
  const auto h = make_instance(6);
  const std::string path = write_snapshot(h, "serve_args.htsnap");
  auto server = ht::TreeServer::open(path);
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE(server->min_cut(0, 0).ok());
  EXPECT_FALSE(server->min_cut(-1, 1).ok());
  EXPECT_FALSE(server->min_cut(0, 999).ok());
  EXPECT_FALSE(server->kway(1).ok());
  EXPECT_FALSE(server->kway(5).ok());  // 5 does not divide 16
  std::remove(path.c_str());
}

TEST(TreeServer, ExpiredDeadlineIsAStatusNotAnAnswer) {
  const auto h = make_instance(7);
  const std::string path = write_snapshot(h, "serve_deadline.htsnap");
  auto server = ht::TreeServer::open(path);
  ASSERT_TRUE(server.ok());
  ht::RunContext ctx;
  ctx.deadline = ht::RunContext::Clock::now() - std::chrono::seconds(1);
  auto answer = server->bisection(ctx);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), ht::StatusCode::kDeadlineExceeded);
  // The server still works for the next (unconstrained) query.
  EXPECT_TRUE(server->bisection().ok());
  std::remove(path.c_str());
}

TEST(TreeServer, QueriesRecordPerKindLatencyAndFlightRecords) {
  const auto h = make_instance(25);
  const std::string path = write_snapshot(h, "serve_obs.htsnap");
  auto server = ht::TreeServer::open(path);
  ASSERT_TRUE(server.ok());
  auto& reg = ht::obs::MetricsRegistry::global();
  // Deltas, not absolute values: the registry is process-global and other
  // tests in this binary also serve queries.
  const std::uint64_t queries0 = reg.counter("serve.queries").value();
  const std::uint64_t minc0 =
      reg.histogram("serve.latency.min_cut").count();
  const std::uint64_t setc0 =
      reg.histogram("serve.latency.set_cut").count();
  const std::uint64_t bisect0 =
      reg.histogram("serve.latency.bisection").count();
  const std::uint64_t kway0 = reg.histogram("serve.latency.kway").count();
  const std::uint64_t flight0 =
      ht::obs::FlightRecorder::global().recorded();

  EXPECT_TRUE(server->min_cut(0, 1).ok());
  EXPECT_TRUE(server->min_cut(2, 3).ok());
  EXPECT_TRUE(server->set_cut({0, 1}, {14, 15}).ok());
  EXPECT_TRUE(server->bisection().ok());
  EXPECT_TRUE(server->kway(4).ok());
  EXPECT_FALSE(server->min_cut(0, 0).ok());  // errors are recorded too

  EXPECT_EQ(reg.counter("serve.queries").value() - queries0, 6u);
  EXPECT_EQ(reg.histogram("serve.latency.min_cut").count() - minc0, 3u);
  EXPECT_EQ(reg.histogram("serve.latency.set_cut").count() - setc0, 1u);
  EXPECT_EQ(reg.histogram("serve.latency.bisection").count() - bisect0, 1u);
  EXPECT_EQ(reg.histogram("serve.latency.kway").count() - kway0, 1u);
  // Every kind has a usable SLO quantile, not just a count.
  for (const char* kind : {"min_cut", "set_cut", "bisection", "kway"}) {
    EXPECT_GT(reg.histogram(std::string("serve.latency.") + kind)
                  .snapshot()
                  .p50(),
              0.0)
        << kind;
  }
  EXPECT_EQ(ht::obs::FlightRecorder::global().recorded() - flight0, 6u);
  std::remove(path.c_str());
}

TEST(TreeServer, FlightRecorderOptOutSkipsAppends) {
  const auto h = make_instance(21);
  const std::string path = write_snapshot(h, "serve_noflight.htsnap");
  ht::serve::ServeOptions options;
  options.flight_recorder = false;
  auto server = ht::TreeServer::open(path, options);
  ASSERT_TRUE(server.ok());
  const std::uint64_t flight0 =
      ht::obs::FlightRecorder::global().recorded();
  EXPECT_TRUE(server->min_cut(0, 1).ok());
  EXPECT_FALSE(server->min_cut(0, 0).ok());
  EXPECT_EQ(ht::obs::FlightRecorder::global().recorded(), flight0);
  // Metrics still record — only the flight recorder is opted out.
  EXPECT_FALSE(server->options().flight_recorder);
  std::remove(path.c_str());
}

TEST(TreeServer, DeadlineExpiryCountsSeparatelyFromQueryErrors) {
  const auto h = make_instance(22);
  const std::string path = write_snapshot(h, "serve_deadcnt.htsnap");
  auto server = ht::TreeServer::open(path);
  ASSERT_TRUE(server.ok());
  auto& reg = ht::obs::MetricsRegistry::global();
  const std::uint64_t expired0 =
      reg.counter("serve.deadline_expired").value();
  const std::uint64_t errors0 = reg.counter("serve.query_errors").value();

  ht::RunContext ctx;
  ctx.deadline = ht::RunContext::Clock::now() - std::chrono::seconds(1);
  ASSERT_EQ(server->bisection(ctx).status().code(),
            ht::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(reg.counter("serve.deadline_expired").value() - expired0, 1u);
  EXPECT_EQ(reg.counter("serve.query_errors").value(), errors0);

  // A plain invalid-argument error goes to query_errors, not expiry.
  ASSERT_FALSE(server->min_cut(0, 0).ok());
  EXPECT_EQ(reg.counter("serve.deadline_expired").value() - expired0, 1u);
  EXPECT_EQ(reg.counter("serve.query_errors").value() - errors0, 1u);
  std::remove(path.c_str());
}

TEST(TreeServer, SlowQueryThresholdEmitsSpanAndCounter) {
  const auto h = make_instance(23);
  const std::string path = write_snapshot(h, "serve_slow.htsnap");
  ht::serve::ServeOptions options;
  options.slow_query_ns = 0;  // every query is "slow"
  auto server = ht::TreeServer::open(path, options);
  ASSERT_TRUE(server.ok());
  auto& reg = ht::obs::MetricsRegistry::global();
  const std::uint64_t slow0 = reg.counter("serve.slow_queries").value();

  const bool was_tracing = ht::obs::tracing_enabled();
  ht::ThreadPool::global().wait_idle();
  ht::obs::Tracer::global().clear();
  ht::obs::set_tracing_enabled(true);
  EXPECT_TRUE(server->min_cut(0, 1).ok());
  ht::ThreadPool::global().wait_idle();
  ht::obs::set_tracing_enabled(was_tracing);

  EXPECT_EQ(reg.counter("serve.slow_queries").value() - slow0, 1u);
  bool saw_slow_span = false;
  for (const auto& event : ht::obs::Tracer::global().collect()) {
    if (std::string(event.name) != "serve.slow_query") continue;
    saw_slow_span = true;
    bool saw_kind = false, saw_latency = false;
    for (const auto& arg : event.args) {
      if (std::string(arg.key) == "kind") {
        saw_kind = true;
        EXPECT_EQ(arg.string_value, "min_cut");
      }
      if (std::string(arg.key) == "latency_ns") saw_latency = true;
    }
    EXPECT_TRUE(saw_kind);
    EXPECT_TRUE(saw_latency);
  }
  EXPECT_TRUE(saw_slow_span);
  ht::obs::Tracer::global().clear();
  std::remove(path.c_str());
}

TEST(TreeServer, FailedQueryAutoDumpsFlightRecords) {
  const auto h = make_instance(24);
  const std::string path = write_snapshot(h, "serve_dump.htsnap");
  const std::string dump_path = testing::TempDir() + "serve_dump.json";
  std::remove(dump_path.c_str());
  ht::serve::ServeOptions options;
  options.flight_dump_path = dump_path;
  auto server = ht::TreeServer::open(path, options);
  ASSERT_TRUE(server.ok());

  // Success: no dump file appears.
  EXPECT_TRUE(server->min_cut(0, 1).ok());
  EXPECT_FALSE(std::ifstream(dump_path).good());
  // Failure: the recorder state is dumped for postmortem.
  EXPECT_FALSE(server->min_cut(0, 0).ok());
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_EQ(json.find("{\"version\":2,"), 0u);
  EXPECT_NE(json.find("\"records\":["), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"min_cut\""), std::string::npos);
  std::remove(dump_path.c_str());
  std::remove(path.c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(TreeServer, FailedQueryBurstDumpsOncePerWindow) {
  const auto h = make_instance(25);
  const std::string path = write_snapshot(h, "serve_burst.htsnap");
  const std::string dump_path = testing::TempDir() + "serve_burst.json";
  std::remove(dump_path.c_str());
  ht::serve::ServeOptions options;
  options.flight_dump_path = dump_path;
  auto server = ht::TreeServer::open(path, options);
  ASSERT_TRUE(server.ok());

  // The first failure of a burst dumps; the rest of its window does not.
  EXPECT_FALSE(server->min_cut(0, 0).ok());
  ASSERT_TRUE(std::ifstream(dump_path).good());
  std::remove(dump_path.c_str());
  for (int i = 0; i < 200; ++i) EXPECT_FALSE(server->min_cut(0, 0).ok());
  EXPECT_FALSE(std::ifstream(dump_path).good())
      << "a failure inside the window rewrote the dump";
  // After the window, the next failure dumps again.
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  EXPECT_FALSE(server->min_cut(0, 0).ok());
  const std::string json = read_file(dump_path);
  EXPECT_TRUE(ht::obs::json_parses(json)) << json.substr(0, 200);
  EXPECT_EQ(json.find("{\"version\":2,"), 0u);
  std::remove(dump_path.c_str());
  std::remove(path.c_str());
}

TEST(TreeServer, ConcurrentFailedQueriesLeaveOneWholeDump) {
  const auto h = make_instance(26);
  const std::string path = write_snapshot(h, "serve_burst4.htsnap");
  const std::string dump_path = testing::TempDir() + "serve_burst4.json";
  // A fresh server per round starts with an open window, so four threads
  // failing at once race for the dump every round.
  for (int round = 0; round < 8; ++round) {
    std::remove(dump_path.c_str());
    ht::serve::ServeOptions options;
    options.flight_dump_path = dump_path;
    auto server = ht::TreeServer::open(path, options);
    ASSERT_TRUE(server.ok());
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (ready.load() < 4) std::this_thread::yield();
        for (int i = 0; i < 50; ++i) EXPECT_FALSE(server->min_cut(0, 0).ok());
      });
    }
    for (auto& thread : threads) thread.join();
    const std::string json = read_file(dump_path);
    EXPECT_TRUE(ht::obs::json_parses(json))
        << "round " << round << ": " << json.substr(0, 200);
    EXPECT_EQ(json.find("{\"version\":2,"), 0u) << "round " << round;
  }
  std::remove(dump_path.c_str());
  std::remove(path.c_str());
}

TEST(TreeServer, FailedSwapKeepsServing) {
  const auto h = make_instance(8);
  const std::string path = write_snapshot(h, "serve_failswap.htsnap");
  auto server = ht::TreeServer::open(path);
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE(server->swap(testing::TempDir() + "missing.htsnap").ok());
  // Corrupt file: also refused, still serving the original.
  const std::string bad = testing::TempDir() + "bad.htsnap";
  std::FILE* f = std::fopen(bad.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a snapshot", f);
  std::fclose(f);
  EXPECT_FALSE(server->swap(bad).ok());
  EXPECT_EQ(server->info().swaps, 0u);
  EXPECT_TRUE(server->min_cut(0, 1).ok());
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

TEST(TreeServer, SwapChangesAnswers) {
  const auto h1 = make_instance(9);
  ht::Rng rng(10);
  auto h2 = ht::hypergraph::random_uniform(20, 40, 3, rng);
  ASSERT_TRUE(ht::hypergraph::is_connected(h2));
  const std::string path1 = write_snapshot(h1, "serve_swap1.htsnap");
  const std::string path2 = write_snapshot(h2, "serve_swap2.htsnap");
  auto server = ht::TreeServer::open(path1);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(server->info().num_vertices, 16);
  ASSERT_TRUE(server->swap(path2).ok());
  EXPECT_EQ(server->info().num_vertices, 20);
  EXPECT_EQ(server->info().swaps, 1u);
  const auto gh2 = ht::CutEngine().gomory_hu(h2);
  auto answer = server->min_cut(0, 19);
  ASSERT_TRUE(answer.ok());
  EXPECT_DOUBLE_EQ(answer->value, gh2.tree.min_cut(0, 19));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

/// A VCT-only snapshot of a 2,000-vertex instance, whose bisection() takes
/// about 0.2 s in a RelWithDebInfo build on a 4-vCPU Xeon: long enough to
/// keep a swap waiting. The bytes are built once per process; each call
/// writes them to its own file.
std::string write_slow_bisection_snapshot(const std::string& name) {
  static const std::string bytes = [] {
    ht::Rng rng(2026);
    const auto big = ht::hypergraph::random_uniform(2000, 4000, 3, rng);
    ht::snapshot::BuildOptions vct_only;
    vct_only.include_gomory_hu = false;
    vct_only.include_decomposition = false;
    auto built = ht::snapshot::build(big, vct_only);
    EXPECT_TRUE(built.ok()) << built.status().to_string();
    return built.ok() ? *built : std::string();
  }();
  const std::string path = testing::TempDir() + name;
  EXPECT_TRUE(ht::snapshot::write_bytes_atomic(path, bytes).ok());
  return path;
}

TEST(TreeServer, SwapWaitingForAPinnedQueryLeavesInfoFree) {
  // A bisection pins epoch 1. The first swap takes the free slot; the
  // second needs epoch 1's slot and waits for the bisection. That wait
  // must not hold the mutex info(), state() and reclaim() take.
  const std::string big_path =
      write_slow_bisection_snapshot("serve_pinned_big.htsnap");
  const std::string small_path =
      write_snapshot(make_instance(9), "serve_pinned_small.htsnap");
  auto server = ht::TreeServer::open(big_path);
  ASSERT_TRUE(server.ok()) << server.status().to_string();

  const std::uint64_t queries_before = server->info().queries;
  std::atomic<bool> bisection_done{false};
  std::thread query([&] {
    EXPECT_TRUE(server->bisection().ok());
    bisection_done.store(true);
  });
  // info() counts the query once it has pinned its epoch.
  while (server->info().queries == queries_before) std::this_thread::yield();
  EXPECT_FALSE(bisection_done.load());
  EXPECT_TRUE(server->swap(small_path).ok());
  std::thread swapper([&] { EXPECT_TRUE(server->swap(small_path).ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto info = server->info();
  const bool answered_before_info = bisection_done.load();
  swapper.join();
  query.join();
  EXPECT_FALSE(answered_before_info)
      << "info() returned only after the pinned bisection finished";
  EXPECT_EQ(info.epoch, 2u);
  EXPECT_EQ(server->epoch(), 3u);
  std::remove(big_path.c_str());
  std::remove(small_path.c_str());
}

TEST(TreeServer, SwapWaitingForAPinnedQuerySleeps) {
  // As above, a bisection pins epoch 1 and the second of two swaps waits
  // for it. The waiting swap must sleep, not spin: its thread CPU time
  // stays within a quarter of its wall (a yield loop reads about 100%).
  const std::string big_path =
      write_slow_bisection_snapshot("serve_sleeping_big.htsnap");
  const std::string small_path =
      write_snapshot(make_instance(9), "serve_sleeping_small.htsnap");
  auto server = ht::TreeServer::open(big_path);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  const auto thread_cpu_s = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  };

  const std::uint64_t queries_before = server->info().queries;
  std::thread query([&] { EXPECT_TRUE(server->bisection().ok()); });
  while (server->info().queries == queries_before) std::this_thread::yield();
  EXPECT_TRUE(server->swap(small_path).ok());
  const auto wall_start = std::chrono::steady_clock::now();
  const double cpu_start = thread_cpu_s();
  EXPECT_TRUE(server->swap(small_path).ok());
  const double cpu = thread_cpu_s() - cpu_start;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  query.join();
  EXPECT_GE(wall, 0.05) << "the bisection no longer keeps the swap waiting";
  EXPECT_LE(cpu, 0.25 * wall) << "the waiting swap used " << cpu
                              << " s of CPU in " << wall << " s";
  std::remove(big_path.c_str());
  std::remove(small_path.c_str());
}

TEST(TreeServer, SwapStormUnderConcurrentQueriesDropsNothingAndLeaksNothing) {
  const auto h1 = make_instance(11);
  const auto h2 = make_instance(12);
  const std::string path1 = write_snapshot(h1, "serve_storm1.htsnap");
  const std::string path2 = write_snapshot(h2, "serve_storm2.htsnap");

  // Every epoch has n=16, so the same queries are valid across swaps, and
  // each answer must be what one of the two snapshots serves — a query
  // reading a replaced or half-published epoch would show up here.
  using Sets = std::pair<std::vector<std::int32_t>, std::vector<std::int32_t>>;
  double min_cuts[2][16][16] = {};
  std::vector<Sets> set_queries;
  std::vector<double> set_cuts[2];
  {
    auto epoch1 = ht::TreeServer::open(path1);
    auto epoch2 = ht::TreeServer::open(path2);
    ASSERT_TRUE(epoch1.ok());
    ASSERT_TRUE(epoch2.ok());
    ht::TreeServer* servers[2] = {&*epoch1, &*epoch2};
    for (int e = 0; e < 2; ++e) {
      for (std::int32_t s = 0; s < 16; ++s) {
        for (std::int32_t t = 0; t < 16; ++t) {
          if (s != t) min_cuts[e][s][t] = servers[e]->min_cut(s, t)->value;
        }
      }
    }
    ht::Rng rng(7);
    while (set_queries.size() < 8) {
      const auto pick = rng.sample_without_replacement(16, 4);
      Sets sets{{pick[0], pick[1]}, {pick[2], pick[3]}};
      const auto a1 = servers[0]->set_cut(sets.first, sets.second);
      const auto a2 = servers[1]->set_cut(sets.first, sets.second);
      if (!a1.ok() || !a2.ok()) continue;  // sides share a tree node
      set_queries.push_back(std::move(sets));
      set_cuts[0].push_back(a1->value);
      set_cuts[1].push_back(a2->value);
    }
  }
  const auto served_by_an_epoch = [](double value, double e1, double e2) {
    return std::memcmp(&value, &e1, sizeof value) == 0 ||
           std::memcmp(&value, &e2, sizeof value) == 0;
  };

  const std::int64_t mapped_before = ht::mapped_bytes_now();
  {
    auto server = ht::TreeServer::open(path1);
    ASSERT_TRUE(server.ok());

    // The overlap of queries and swaps is part of the schedule, not left
    // to the scheduler: the swapper starts only once every worker has
    // answered a query, after each swap it waits until some query has
    // been served from the new epoch, and the workers keep querying until
    // the last swap is done. A query whose epoch() reads the same value
    // before and after it was served from that epoch.
    constexpr int kQueryThreads = 4;
    constexpr int kMinQueriesPerThread = 200;
    constexpr int kSwaps = 50;
    constexpr std::uint32_t kEpochs = kSwaps + 1;  // open = 1, +1 per swap
    constexpr std::int64_t kPaceAfter = 64;  // queries served from an epoch
    std::atomic<bool> go{false};
    std::atomic<bool> swaps_done{false};
    std::atomic<bool> stop_observer{false};
    std::atomic<int> workers_answered{0};
    std::atomic<std::int64_t> answered{0};
    std::atomic<std::int64_t> failed{0};
    std::atomic<std::int64_t> wrong{0};
    std::atomic<std::int64_t> exports{0};
    std::atomic<std::int64_t> served_from[kEpochs + 1] = {};
    std::vector<std::thread> workers;
    workers.reserve(kQueryThreads);
    for (int w = 0; w < kQueryThreads; ++w) {
      workers.emplace_back([&, w] {
        while (!go.load(std::memory_order_acquire)) {
        }
        ht::Rng rng(static_cast<std::uint64_t>(w) + 100);
        for (int q = 0; q < kMinQueriesPerThread ||
                        !swaps_done.load(std::memory_order_acquire);
             ++q) {
          const auto s = static_cast<std::int32_t>(rng() % 16);
          auto t = static_cast<std::int32_t>(rng() % 16);
          if (t == s) t = (t + 1) % 16;
          bool right = false;
          bool ok = false;
          const std::uint32_t epoch_before = server->epoch();
          if (q % 4 == 3) {
            const std::size_t i = rng() % set_queries.size();
            const auto answer =
                server->set_cut(set_queries[i].first, set_queries[i].second);
            ok = answer.ok();
            right = ok && served_by_an_epoch(answer->value, set_cuts[0][i],
                                             set_cuts[1][i]);
          } else {
            const auto answer = (q % 3 == 0) ? server->min_cut(s, t)
                                             : server->min_cut(t, s);
            ok = answer.ok();
            right = ok && served_by_an_epoch(answer->value, min_cuts[0][s][t],
                                             min_cuts[1][s][t]);
          }
          const std::uint32_t epoch_after = server->epoch();
          (ok ? answered : failed).fetch_add(1, std::memory_order_relaxed);
          if (ok && !right) wrong.fetch_add(1, std::memory_order_relaxed);
          if (ok && epoch_before == epoch_after && epoch_after <= kEpochs) {
            served_from[epoch_after].fetch_add(1, std::memory_order_release);
          }
          if (q == 0) workers_answered.fetch_add(1, std::memory_order_release);
          if (q % 16 == 0) (void)server->bisection();
          // Once the serving epoch has answered plenty, pace the loop: a
          // descheduled swapper must not come back to a pile of traced
          // queries, and the CPU it needs is freed.
          if (epoch_after <= kEpochs &&
              served_from[epoch_after].load(std::memory_order_relaxed) >=
                  kPaceAfter) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }
      });
    }

    // An observer thread exercises the whole read-side observability
    // surface concurrently with the storm: flight-recorder dumps (seqlock
    // reads racing live appends) and registry exports (snapshot under the
    // registration lock racing relaxed metric updates). Everything it
    // reads must stay well-formed. Runs under the tsan-serve CI job.
    std::thread observer([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      while (!stop_observer.load(std::memory_order_acquire)) {
        const std::string flight =
            ht::obs::FlightRecorder::global().dump_json();
        EXPECT_EQ(flight.find("{\"version\":2,"), 0u);
        const std::string metrics =
            ht::obs::MetricsRegistry::global().snapshot_json();
        EXPECT_EQ(metrics.find("{\"version\":1,"), 0u);
        const std::string prom = ht::obs::prometheus_text(
            ht::obs::MetricsRegistry::global().snapshot());
        EXPECT_NE(prom.find("# TYPE ht_serve_queries counter\n"),
                  std::string::npos);
        exports.fetch_add(1, std::memory_order_relaxed);
      }
    });

    // Trace the storm so the post-join export covers spans closed across
    // swaps (collect() itself needs quiescence, hence after the joins).
    const bool was_tracing = ht::obs::tracing_enabled();
    ht::ThreadPool::global().wait_idle();
    ht::obs::Tracer::global().clear();
    ht::obs::set_tracing_enabled(true);

    go.store(true, std::memory_order_release);
    while (workers_answered.load(std::memory_order_acquire) < kQueryThreads) {
      std::this_thread::yield();
    }
    // Swap back and forth while the workers hammer the query path. A
    // failed swap or a wait that times out leaves epochs unserved, which
    // the checks below report once the threads are joined.
    for (int swap = 0; swap < kSwaps; ++swap) {
      if (!server->swap(swap % 2 == 0 ? path2 : path1).ok()) {
        ADD_FAILURE() << "swap " << swap << " failed";
        break;
      }
      const std::uint32_t now = server->epoch();
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (served_from[now].load(std::memory_order_acquire) == 0 &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
    }
    swaps_done.store(true, std::memory_order_release);
    // However the threads get scheduled, the observer completes at least
    // one pass before the storm winds down.
    while (exports.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    for (auto& worker : workers) worker.join();
    stop_observer.store(true, std::memory_order_release);
    observer.join();
    ht::ThreadPool::global().wait_idle();
    ht::obs::set_tracing_enabled(was_tracing);

    // No query may be dropped by a swap: every single one got an answer.
    EXPECT_EQ(failed.load(), 0);
    EXPECT_GE(answered.load(), static_cast<std::int64_t>(kQueryThreads) *
                                   kMinQueriesPerThread);
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_GT(exports.load(), 0);
    EXPECT_EQ(server->info().swaps, static_cast<std::uint64_t>(kSwaps));
    EXPECT_EQ(server->epoch(), kEpochs);
    // Every epoch, the one open() published included, served queries.
    for (std::uint32_t e = 1; e <= kEpochs; ++e) {
      EXPECT_GT(served_from[e].load(), 0) << "epoch " << e;
    }

    // Quiescent now: the trace export must parse and contain the serve
    // spans recorded during the storm.
    const std::string trace = ht::obs::Tracer::global().chrome_trace_json();
    EXPECT_NE(trace.find("\"serve.min_cut\""), std::string::npos);
    ht::obs::Tracer::global().clear();

    // The first query to finish after the replaced epoch's last reader
    // unmaps it: from then on only the serving snapshot stays mapped.
    ASSERT_TRUE(server->min_cut(0, 1).ok());
    EXPECT_EQ(ht::mapped_bytes_now() - mapped_before,
              static_cast<std::int64_t>(server->state()->snap.size_bytes()));
  }
  // Server destroyed: every epoch's mapping must be gone.
  EXPECT_EQ(ht::mapped_bytes_now(), mapped_before);
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(TreeServer, MappingsAreReleasedWithTheLastHandle) {
  const auto h = make_instance(13);
  const std::string path = write_snapshot(h, "serve_release.htsnap");
  const std::int64_t mapped_before = ht::mapped_bytes_now();
  {
    auto server = ht::TreeServer::open(path);
    ASSERT_TRUE(server.ok());
    EXPECT_GT(ht::mapped_bytes_now(), mapped_before);
    // A pinned epoch keeps its mapping alive past a swap...
    auto pinned = server->state();
    ASSERT_TRUE(server->swap(path).ok());
    EXPECT_TRUE(pinned->gomory_hu.has_value());
  }
  // ...and everything unmaps once the last reference is gone.
  EXPECT_EQ(ht::mapped_bytes_now(), mapped_before);
  std::remove(path.c_str());
}

}  // namespace
