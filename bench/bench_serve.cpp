// Serving-path benchmark: queries/sec and tail latency of a TreeServer
// over a prebuilt snapshot, plus a hot-swap-under-load run that must drop
// zero queries.
//
// Measures what the build/serve split buys: the snapshot is built once
// (reported separately as build_ms), then min-cut / set-cut / bisection /
// k-way queries are answered by tree DPs alone — no flow solves — so
// per-query latency is micro-scale while a fresh in-memory build costs
// milliseconds to seconds.
//
// Output: a table per query kind (qps, p50/p99 microseconds) and
// BENCH_serve.json for CI (tools/bench_diff.py validates the JSON and
// gates qps/p99 against the checked-in baseline).
//
// Observability measurements in the same JSON:
//  - the four query sections run twice, flight recorder off then on;
//    "flight_recorder" reports both aggregate qps figures, the relative
//    overhead (soft CI gate: <= 2%), and a direct append() micro-bench
//    (ns/record) — the honest per-record cost independent of query size.
//  - "latency_hist" embeds the per-kind serve.latency.* histogram
//    quantiles (p50/p90/p99) as the server itself measured them, the
//    numbers a scrape of the live registry would serve.
//  - "metrics" embeds the full registry snapshot (versioned JSON).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ht/hypertree.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct QueryStats {
  std::string name;
  std::uint64_t queries = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

double percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[rank];
}

template <typename Query>
QueryStats measure(const std::string& name, std::uint64_t iterations,
                   Query&& query) {
  QueryStats stats;
  stats.name = name;
  std::vector<double> latencies_us;
  latencies_us.reserve(iterations);
  const auto begin = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const auto q0 = Clock::now();
    query(i);
    const auto q1 = Clock::now();
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(q1 - q0).count());
  }
  const auto end = Clock::now();
  stats.queries = iterations;
  stats.wall_ms = std::chrono::duration<double, std::milli>(end - begin)
                      .count();
  stats.qps = stats.wall_ms > 0.0
                  ? 1000.0 * static_cast<double>(iterations) / stats.wall_ms
                  : 0.0;
  std::sort(latencies_us.begin(), latencies_us.end());
  stats.p50_us = percentile(latencies_us, 0.50);
  stats.p99_us = percentile(latencies_us, 0.99);
  return stats;
}

void append_json(std::string& json, const QueryStats& stats, bool last) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"%s\": {\"queries\": %llu, \"wall_ms\": %.3f, "
                "\"qps\": %.1f, \"p50_us\": %.3f, \"p99_us\": %.3f}%s\n",
                stats.name.c_str(),
                static_cast<unsigned long long>(stats.queries),
                stats.wall_ms, stats.qps, stats.p50_us, stats.p99_us,
                last ? "" : ",");
  json += buf;
}

}  // namespace

int main() {
  // A mid-size instance: large enough that fresh builds visibly cost,
  // small enough that the bench stays in CI's seconds budget.
  ht::Rng rng(0x5eed);
  const auto h = ht::hypergraph::random_uniform(96, 300, 4, rng);
  if (!ht::hypergraph::is_connected(h)) {
    std::fprintf(stderr, "bench instance must be connected\n");
    return 1;
  }

  const std::string path = "/tmp/bench_serve.htsnap";
  const std::string path_alt = "/tmp/bench_serve_alt.htsnap";
  ht::snapshot::BuildOptions options;
  options.seed = 17;
  ht::snapshot::BuildReport report;
  const auto build0 = Clock::now();
  if (ht::Status s = ht::snapshot::write(h, path, options, &report);
      !s.ok()) {
    std::fprintf(stderr, "snapshot build failed: %s\n",
                 s.to_string().c_str());
    return 1;
  }
  const double build_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - build0)
          .count();
  options.seed = 18;  // distinct artifacts for the swap target
  if (!ht::snapshot::write(h, path_alt, options).ok()) return 1;

  auto server = ht::TreeServer::open(path);
  if (!server.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 server.status().to_string().c_str());
    return 1;
  }
  const std::int32_t n = server->info().num_vertices;

  // The four query sections as one reusable pass (fresh Rng per pass so
  // both passes issue the identical query stream).
  auto run_sections = [&server, n]() {
    std::vector<QueryStats> sections;
    ht::Rng pick(1);
    sections.push_back(measure("min_cut", 20000, [&](std::uint64_t) {
      const auto s = static_cast<std::int32_t>(pick() % n);
      auto t = static_cast<std::int32_t>(pick() % n);
      if (t == s) t = (t + 1) % n;
      (void)*server->min_cut(s, t);
    }));
    sections.push_back(measure("set_cut", 2000, [&](std::uint64_t) {
      std::vector<std::int32_t> a{static_cast<std::int32_t>(pick() % n)};
      std::vector<std::int32_t> b;
      while (b.empty()) {
        const auto v = static_cast<std::int32_t>(pick() % n);
        if (v != a[0]) b.push_back(v);
      }
      (void)*server->set_cut(a, b);
    }));
    sections.push_back(measure("bisection", 200, [&](std::uint64_t) {
      (void)*server->bisection();
    }));
    sections.push_back(measure("kway4", 100, [&](std::uint64_t) {
      (void)*server->kway(4);
    }));
    return sections;
  };
  const auto aggregate_qps = [](const std::vector<QueryStats>& sections) {
    std::uint64_t queries = 0;
    double wall_ms = 0.0;
    for (const auto& s : sections) {
      queries += s.queries;
      wall_ms += s.wall_ms;
    }
    return wall_ms > 0.0
               ? 1000.0 * static_cast<double>(queries) / wall_ms
               : 0.0;
  };

  // Recorder-overhead A/B: identical query stream with appends disabled,
  // then enabled; the enabled pass is the headline measurement. Aggregate
  // (mixed-workload) qps is the gated figure — per-record cost is also
  // measured directly below, because on a ~250 ns min_cut walk even one
  // extra cache line is a visible fraction while the workload-level cost
  // stays far under the 2% gate. Both passes run on this one thread, so
  // the A/B sees the append's own cost only, never a cache line shared
  // between serving threads (perfbench's serve workload runs two point
  // clients for that).
  auto& recorder = ht::obs::FlightRecorder::global();
  (void)run_sections();  // warmup: touch every DP/code path once
  recorder.set_enabled(false);
  const double qps_recorder_off = aggregate_qps(run_sections());
  recorder.set_enabled(true);
  const std::vector<QueryStats> sections = run_sections();
  const double qps_recorder_on = aggregate_qps(sections);
  const double overhead_pct =
      qps_recorder_off > 0.0
          ? 100.0 * (qps_recorder_off - qps_recorder_on) / qps_recorder_off
          : 0.0;

  // Direct append cost (what "always on at ~tens of ns/record" claims).
  double append_ns = 0.0;
  {
    ht::obs::FlightRecord probe;
    probe.kind = ht::obs::QueryKind::kMinCut;
    probe.latency_ns = 1000;
    constexpr int kAppends = 200000;
    const auto a0 = Clock::now();
    for (int i = 0; i < kAppends; ++i) recorder.append(probe);
    append_ns = std::chrono::duration<double, std::nano>(Clock::now() - a0)
                    .count() /
                kAppends;
  }

  // Per-kind latency quantiles as the serving layer itself measured them
  // (both passes above; snapshot before the swap storm pollutes them).
  const char* kKinds[4] = {"min_cut", "set_cut", "bisection", "kway"};
  ht::obs::HistogramSnapshot latency_hist[4];
  for (int i = 0; i < 4; ++i) {
    latency_hist[i] = ht::obs::MetricsRegistry::global()
                          .histogram(std::string("serve.latency.") + kKinds[i])
                          .snapshot();
  }

  // Hot-swap under load: 2 query threads hammering min_cut while the main
  // thread swaps repeatedly; the gate is zero dropped (failed) queries.
  std::atomic<std::uint64_t> swap_answered{0};
  std::atomic<std::uint64_t> swap_failed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      ht::Rng wr(static_cast<std::uint64_t>(w) + 41);
      while (!stop.load(std::memory_order_acquire)) {
        const auto s = static_cast<std::int32_t>(wr() % n);
        auto t = static_cast<std::int32_t>(wr() % n);
        if (t == s) t = (t + 1) % n;
        if (server->min_cut(s, t).ok()) {
          swap_answered.fetch_add(1, std::memory_order_relaxed);
        } else {
          swap_failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  const auto swap0 = Clock::now();
  int swaps = 0;
  for (; swaps < 40; ++swaps) {
    if (!server->swap(swaps % 2 == 0 ? path_alt : path).ok()) break;
  }
  stop.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  const double swap_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - swap0)
          .count();
  const bool swap_gate_ok = swaps == 40 && swap_failed.load() == 0;

  std::printf("snapshot: %zu bytes, build %.1f ms (n=%d m=%d)\n",
              report.bytes, build_ms, h.num_vertices(), h.num_edges());
  std::printf("%-10s %10s %12s %10s %10s\n", "query", "count", "qps",
              "p50_us", "p99_us");
  for (const auto& s : sections) {
    std::printf("%-10s %10llu %12.1f %10.3f %10.3f\n", s.name.c_str(),
                static_cast<unsigned long long>(s.queries), s.qps, s.p50_us,
                s.p99_us);
  }
  std::printf(
      "hot-swap: %d swaps in %.1f ms, %llu queries answered, %llu dropped "
      "-> %s\n",
      swaps, swap_ms,
      static_cast<unsigned long long>(swap_answered.load()),
      static_cast<unsigned long long>(swap_failed.load()),
      swap_gate_ok ? "PASS (zero dropped)" : "FAIL");
  std::printf(
      "flight recorder: %.1f qps on vs %.1f qps off (overhead %.3f%%, "
      "soft gate <= 2%%), append %.1f ns/record, %llu recorded\n",
      qps_recorder_on, qps_recorder_off, overhead_pct, append_ns,
      static_cast<unsigned long long>(recorder.recorded()));
  std::printf("%-10s %10s %10s %10s %10s\n", "latency", "count", "p50_us",
              "p90_us", "p99_us");
  for (int i = 0; i < 4; ++i) {
    std::printf("%-10s %10llu %10.3f %10.3f %10.3f\n", kKinds[i],
                static_cast<unsigned long long>(latency_hist[i].count),
                latency_hist[i].p50() / 1000.0,
                latency_hist[i].p90() / 1000.0,
                latency_hist[i].p99() / 1000.0);
  }

  std::string json = "{\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"snapshot\": {\"bytes\": %zu, \"build_ms\": %.3f, "
                  "\"n\": %d, \"m\": %d},\n",
                  report.bytes, build_ms, h.num_vertices(), h.num_edges());
    json += buf;
  }
  for (const auto& s : sections) append_json(json, s, false);
  {
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "  \"hot_swap\": {\"swaps\": %d, \"wall_ms\": %.3f, "
        "\"answered\": %llu, \"dropped\": %llu},\n",
        swaps, swap_ms,
        static_cast<unsigned long long>(swap_answered.load()),
        static_cast<unsigned long long>(swap_failed.load()));
    json += buf;
  }
  {
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "  \"flight_recorder\": {\"qps_on\": %.1f, \"qps_off\": %.1f, "
        "\"overhead_pct\": %.4f, \"append_ns\": %.2f, \"records\": %llu},\n",
        qps_recorder_on, qps_recorder_off, overhead_pct, append_ns,
        static_cast<unsigned long long>(recorder.recorded()));
    json += buf;
  }
  json += "  \"latency_hist\": {\n";
  for (int i = 0; i < 4; ++i) {
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "    \"%s\": {\"count\": %llu, \"p50_us\": %.3f, \"p90_us\": %.3f, "
        "\"p99_us\": %.3f, \"max_us\": %.3f}%s\n",
        kKinds[i], static_cast<unsigned long long>(latency_hist[i].count),
        latency_hist[i].p50() / 1000.0, latency_hist[i].p90() / 1000.0,
        latency_hist[i].p99() / 1000.0,
        static_cast<double>(latency_hist[i].max) / 1000.0,
        i + 1 < 4 ? "," : "");
    json += buf;
  }
  json += "  },\n";
  json += "  \"metrics\": " +
          ht::obs::MetricsRegistry::global().snapshot_json() + "\n";
  json += "}\n";
  if (std::FILE* f = std::fopen("BENCH_serve.json", "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote BENCH_serve.json\n");
  }
  std::remove(path.c_str());
  std::remove(path_alt.c_str());
  return swap_gate_ok ? 0 : 1;
}
