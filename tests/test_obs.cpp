// Observability layer: metrics registry, tracer, and the context
// propagation that makes recorded span trees mirror the logical recursion
// tree (not the thread schedule).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cuttree/vertex_cut_tree.hpp"
#include "flow/cut_engine.hpp"
#include "graph/generators.hpp"
#include "gtest/gtest.h"
#include "hypergraph/generators.hpp"
#include "json_check.hpp"
#include "obs/atomic_max.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/wavefront.hpp"

namespace {

using ht::obs::json_parses;
using ht::obs::SpanId;
using ht::obs::TraceEvent;

/// Enables tracing for a test scope with clean buffers; restores the
/// disabled default and drops the recorded events on exit.
class TracingOn {
 public:
  TracingOn() {
    ht::ThreadPool::global().wait_idle();
    ht::obs::Tracer::global().clear();
    ht::obs::set_tracing_enabled(true);
  }
  ~TracingOn() {
    ht::obs::set_tracing_enabled(false);
    ht::ThreadPool::global().wait_idle();
    ht::obs::Tracer::global().clear();
  }
};

std::map<SpanId, TraceEvent> by_id(const std::vector<TraceEvent>& events) {
  std::map<SpanId, TraceEvent> out;
  for (const auto& ev : events) out[ev.id] = ev;
  return out;
}

const TraceEvent* find_by_name(const std::vector<TraceEvent>& events,
                               const std::string& name) {
  for (const auto& ev : events)
    if (name == ev.name) return &ev;
  return nullptr;
}

/// Renders one event as "name|key=value|..." with doubles at full
/// precision; used to compare multisets of (name, args) across runs.
std::string event_signature(const TraceEvent& ev) {
  std::ostringstream os;
  os << ev.name;
  for (const auto& a : ev.args) {
    os << "|" << a.key << "=";
    switch (a.kind) {
      case ht::obs::TraceArg::Kind::kInt:
        os << a.int_value;
        break;
      case ht::obs::TraceArg::Kind::kDouble:
        os.precision(17);
        os << a.double_value;
        break;
      case ht::obs::TraceArg::Kind::kString:
        os << a.string_value;
        break;
    }
  }
  return os.str();
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeHistogramBasics) {
  auto& reg = ht::obs::MetricsRegistry::global();
  auto& c = reg.counter("test.counter");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name -> same object (stable reference registration).
  EXPECT_EQ(&reg.counter("test.counter"), &c);

  auto& g = reg.gauge("test.gauge");
  g.reset();
  g.set(-5);
  g.add(2);
  EXPECT_EQ(g.value(), -3);
  g.update_max(7);
  g.update_max(3);
  EXPECT_EQ(g.value(), 7);

  auto& h = reg.histogram("test.hist");
  h.reset();
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 1024ull}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_EQ(h.bucket(0), 1u);   // {0}
  EXPECT_EQ(h.bucket(1), 1u);   // {1}
  EXPECT_EQ(h.bucket(2), 2u);   // {2, 3}
  EXPECT_EQ(h.bucket(11), 1u);  // [1024, 2047]
  EXPECT_EQ(ht::obs::Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(ht::obs::Histogram::bucket_upper_bound(11), 2047u);
}

TEST(Metrics, StripedMetricsSumExactlyAcrossThreads) {
  // More threads than stripes, so some threads share a stripe; every
  // thread gets its own dense index, and the totals stay exact.
  auto& reg = ht::obs::MetricsRegistry::global();
  auto& c = reg.counter("test.striped_counter");
  auto& h = reg.histogram("test.striped_hist");
  c.reset();
  h.reset();
  constexpr int kThreads = static_cast<int>(ht::obs::kStripes) + 4;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::uint32_t> index(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      index[static_cast<std::size_t>(i)] = ht::obs::thread_index();
      for (std::uint64_t k = 0; k < kPerThread; ++k) {
        c.add(2);
        h.record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::sort(index.begin(), index.end());
  EXPECT_EQ(std::adjacent_find(index.begin(), index.end()), index.end());
  EXPECT_EQ(c.value(), 2 * kThreads * kPerThread);
  const ht::obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(h.count(), s.count);
  EXPECT_EQ(s.sum, kPerThread * kThreads * (kThreads - 1) / 2);
  EXPECT_EQ(s.max, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(s.buckets[0], kPerThread);  // thread 0 recorded zeros
  c.reset();
  h.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Metrics, AtomicFetchMaxUnderContention) {
  std::atomic<std::int64_t> target{0};
  ht::parallel_for(512, [&](std::size_t i) {
    ht::obs::atomic_fetch_max(target, static_cast<std::int64_t>(i * 7));
  });
  EXPECT_EQ(target.load(), 511 * 7);
  // Lower values never regress the max.
  ht::obs::atomic_fetch_max<std::int64_t>(target, 5);
  EXPECT_EQ(target.load(), 511 * 7);
}

TEST(Metrics, SnapshotJsonParsesAndSortsNames) {
  auto& reg = ht::obs::MetricsRegistry::global();
  reg.counter("test.zz").add(1);
  reg.counter("test.aa").add(2);
  reg.histogram("test.hist").record(9);
  const std::string json = reg.snapshot_json();
  EXPECT_TRUE(json_parses(json)) << json;
  const auto pos_aa = json.find("\"test.aa\"");
  const auto pos_zz = json.find("\"test.zz\"");
  ASSERT_NE(pos_aa, std::string::npos);
  ASSERT_NE(pos_zz, std::string::npos);
  EXPECT_LT(pos_aa, pos_zz);  // std::map iteration = sorted names
  EXPECT_NE(json.find("\"test.hist\""), std::string::npos);
}

TEST(Metrics, HistogramSnapshotQuantiles) {
  auto& h = ht::obs::MetricsRegistry::global().histogram("test.quantiles");
  h.reset();
  const ht::obs::HistogramSnapshot empty = h.snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p50(), 0.0);

  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 1024ull}) h.record(v);
  const ht::obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 1030u);
  EXPECT_EQ(s.max, 1024u);
  // p50: target rank 2.5 lands in bucket [2, 3] a quarter of the way in.
  EXPECT_DOUBLE_EQ(s.p50(), 2.25);
  // p99 lands in the top occupied bucket, which is clamped to the exact
  // recorded max instead of the bucket's upper bound 2047.
  EXPECT_DOUBLE_EQ(s.p99(), 1024.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1024.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);

  // A lone sample is bounded by its bucket [64, 127] clamped to max=100.
  h.reset();
  h.record(100);
  const ht::obs::HistogramSnapshot one = h.snapshot();
  EXPECT_GE(one.p50(), 64.0);
  EXPECT_LE(one.p50(), 100.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 100.0);
  h.reset();
}

TEST(Metrics, SnapshotJsonIsVersionedAndEscapesNames) {
  auto& reg = ht::obs::MetricsRegistry::global();
  reg.counter("test.esc\"quote\\slash").add(3);
  const std::string json = reg.snapshot_json();
  EXPECT_TRUE(json_parses(json)) << json;
  EXPECT_EQ(json.find("{\"version\":1,"), 0u);
  // The raw name must never appear unescaped (it would break the JSON).
  EXPECT_EQ(json.find("test.esc\"quote"), std::string::npos);
  EXPECT_NE(json.find("test.esc\\\"quote\\\\slash"), std::string::npos);
}

TEST(Metrics, RegistrySnapshotIsByteStableAcrossRenders) {
  auto& reg = ht::obs::MetricsRegistry::global();
  reg.counter("test.stable").add(7);
  reg.histogram("test.stable.hist").record(12);
  const std::string a = reg.snapshot_json();
  const std::string b = ht::obs::registry_json(reg.snapshot());
  EXPECT_EQ(a, b);  // same values -> byte-identical JSON, diffable in CI
}

// ---------------------------------------------------------------- exporter

TEST(Export, PrometheusNameSanitization) {
  EXPECT_EQ(ht::obs::prometheus_name("serve.latency.min_cut"),
            "ht_serve_latency_min_cut");
  EXPECT_EQ(ht::obs::prometheus_name("flow.builds"), "ht_flow_builds");
  EXPECT_EQ(ht::obs::prometheus_name("weird name-1"), "ht_weird_name_1");
  EXPECT_EQ(ht::obs::prometheus_name("9lives"), "ht__9lives");
}

TEST(Export, PrometheusTextRendersAllMetricFamilies) {
  ht::obs::RegistrySnapshot snap;
  snap.counters["test.prom.count"] = 5;
  snap.gauges["test.prom.gauge"] = -3;
  ht::obs::HistogramSnapshot h;
  h.count = 3;
  h.sum = 6;
  h.max = 3;
  h.buckets[1] = 1;  // {1}
  h.buckets[2] = 2;  // {2, 3}
  snap.histograms["test.prom.hist"] = h;

  const std::string text = ht::obs::prometheus_text(snap);
  EXPECT_NE(text.find("# TYPE ht_test_prom_count counter\n"
                      "ht_test_prom_count 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ht_test_prom_gauge gauge\n"
                      "ht_test_prom_gauge -3\n"),
            std::string::npos);
  // Histogram buckets are cumulative with an +Inf series plus _sum/_count.
  EXPECT_NE(text.find("# TYPE ht_test_prom_hist histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("ht_test_prom_hist_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ht_test_prom_hist_bucket{le=\"3\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("ht_test_prom_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("ht_test_prom_hist_sum 6\n"), std::string::npos);
  EXPECT_NE(text.find("ht_test_prom_hist_count 3\n"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(Export, JsonEscapeControlCharacters) {
  EXPECT_EQ(ht::obs::json_escape("plain"), "plain");
  EXPECT_EQ(ht::obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(ht::obs::json_escape("x\n\t\r"), "x\\n\\t\\r");
  EXPECT_EQ(ht::obs::json_escape(std::string("\x01", 1)), "\\u0001");
}

// ---------------------------------------------------------- flight recorder

ht::obs::FlightRecord make_record(ht::obs::QueryKind kind, double cut) {
  ht::obs::FlightRecord r;
  r.start_ns = 1000;
  r.latency_ns = 250;
  r.cut_value = cut;
  r.deadline_ns = 5000000;
  r.epoch = 3;
  r.thread = 1;
  r.kind = kind;
  r.status_code = 2;  // kDeadlineExceeded's numeric value
  r.prep_exact = true;
  return r;
}

TEST(Flight, AppendDumpRoundtripPreservesEveryField) {
  ht::obs::FlightRecorder rec(16);
  rec.append(make_record(ht::obs::QueryKind::kBisection, 42.5));
  rec.append(make_record(ht::obs::QueryKind::kMinCut, -1.25));
  const auto records = rec.dump();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq, 0u);
  EXPECT_EQ(records[1].seq, 1u);
  EXPECT_EQ(records[0].kind, ht::obs::QueryKind::kBisection);
  EXPECT_EQ(records[1].kind, ht::obs::QueryKind::kMinCut);
  EXPECT_DOUBLE_EQ(records[0].cut_value, 42.5);
  EXPECT_DOUBLE_EQ(records[1].cut_value, -1.25);
  EXPECT_EQ(records[0].start_ns, 1000);
  EXPECT_EQ(records[0].latency_ns, 250u);
  EXPECT_EQ(records[0].deadline_ns, 5000000);
  EXPECT_EQ(records[0].epoch, 3u);
  EXPECT_EQ(records[0].thread, 1u);
  EXPECT_EQ(records[0].status_code, 2u);
  EXPECT_TRUE(records[0].prep_exact);
  EXPECT_EQ(rec.recorded(), 2u);
}

TEST(Flight, WrapKeepsTheNewestCapacityRecords) {
  ht::obs::FlightRecorder rec(8);
  EXPECT_EQ(rec.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    auto r = make_record(ht::obs::QueryKind::kKway, static_cast<double>(i));
    rec.append(r);
  }
  const auto records = rec.dump();
  ASSERT_EQ(records.size(), 8u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, 12 + i);  // oldest-first, newest 8 of 20
    EXPECT_DOUBLE_EQ(records[i].cut_value, static_cast<double>(12 + i));
  }
  EXPECT_EQ(rec.recorded(), 20u);
}

TEST(Flight, DumpJsonIsVersionedAndParses) {
  ht::obs::FlightRecorder rec(8);
  rec.append(make_record(ht::obs::QueryKind::kSetCut, 7.0));
  const std::string json = rec.dump_json();
  EXPECT_TRUE(json_parses(json)) << json;
  EXPECT_EQ(json.find("{\"version\":2,"), 0u);
  EXPECT_NE(json.find("\"kind\":\"set_cut\""), std::string::npos);
  EXPECT_NE(json.find("\"records\":["), std::string::npos);
}

TEST(Flight, ConcurrentAppendersAndDumpersStayWellFormed) {
  // Dumps run against live appenders: every record read must be coherent
  // (a valid kind), each writer's seqs must come out strictly increasing,
  // and no writer's ring can hold more than capacity() records. Torn
  // slots may be skipped but never invented.
  constexpr int kWriters = 3;
  ht::obs::FlightRecorder rec(64);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rec, &stop] {
      const auto thread = static_cast<std::uint16_t>(ht::obs::thread_index());
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ht::obs::FlightRecord r;
        r.kind = ht::obs::QueryKind::kMinCut;
        r.thread = thread;
        r.latency_ns = ++i;
        rec.append(r);
      }
    });
  }
  // On a single core the writers may not be scheduled yet; make sure the
  // dumps actually race live appends.
  while (rec.recorded() == 0) std::this_thread::yield();
  for (int round = 0; round < 200; ++round) {
    const auto records = rec.dump();
    std::map<std::uint16_t, std::uint64_t> last_seq;
    std::map<std::uint16_t, std::size_t> per_thread;
    for (const auto& r : records) {
      const auto last = last_seq.find(r.thread);
      if (last != last_seq.end()) {
        EXPECT_GT(r.seq, last->second);
      }
      last_seq[r.thread] = r.seq;
      ++per_thread[r.thread];
      EXPECT_EQ(r.kind, ht::obs::QueryKind::kMinCut);
    }
    for (const auto& [thread, count] : per_thread) {
      EXPECT_LE(count, rec.capacity()) << "thread " << thread;
    }
    EXPECT_LE(records.size(), kWriters * rec.capacity());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  EXPECT_GT(rec.recorded(), 0u);
}

TEST(Flight, ThreadsOnDistinctStripesAppendToTheirOwnRings) {
  // Writers on distinct stripes append concurrently. Each appends to its
  // own stripe's ring, so its records come back with that ring's
  // contiguous seqs 0..k-1 — no other writer took a seq from it — and the
  // dump merges the rings oldest-first by completion time.
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 500;
  ht::obs::FlightRecorder rec(2048);  // one ring could hold every record
  std::vector<std::size_t> stripes(kWriters);
  std::vector<std::uint16_t> threads(kWriters);
  std::atomic<int> ready{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      stripes[w] = ht::obs::thread_stripe();
      threads[w] = static_cast<std::uint16_t>(ht::obs::thread_index());
      ready.fetch_add(1);
      while (ready.load() < kWriters) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        ht::obs::FlightRecord r;
        r.thread = threads[w];
        r.start_ns = rec.now_ns();
        r.latency_ns = static_cast<std::uint64_t>(rec.now_ns() - r.start_ns);
        rec.append(r);
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_EQ(std::set<std::size_t>(stripes.begin(), stripes.end()).size(),
            static_cast<std::size_t>(kWriters));
  EXPECT_EQ(rec.recorded(), kWriters * kPerWriter);

  const auto records = rec.dump();
  ASSERT_EQ(records.size(), kWriters * kPerWriter);
  EXPECT_TRUE(std::is_sorted(
      records.begin(), records.end(),
      [](const ht::obs::FlightRecord& a, const ht::obs::FlightRecord& b) {
        return a.start_ns + static_cast<std::int64_t>(a.latency_ns) <
               b.start_ns + static_cast<std::int64_t>(b.latency_ns);
      }))
      << "dump not oldest-first by completion time";
  std::map<std::uint16_t, std::vector<std::uint64_t>> seqs;
  for (const auto& r : records) seqs[r.thread].push_back(r.seq);
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(kWriters));
  for (int w = 0; w < kWriters; ++w) {
    const auto& mine = seqs[threads[w]];
    ASSERT_EQ(mine.size(), kPerWriter) << "writer " << w;
    for (std::uint64_t i = 0; i < kPerWriter; ++i) {
      ASSERT_EQ(mine[i], i) << "writer " << w;
    }
  }
}

TEST(Metrics, ResetAllZeroesEveryMetricKind) {
  auto& reg = ht::obs::MetricsRegistry::global();
  auto& counter = reg.counter("test.reset_all.counter");
  auto& gauge = reg.gauge("test.reset_all.gauge");
  auto& histogram = reg.histogram("test.reset_all.histogram");
  counter.add(3);
  gauge.update_max(17);
  gauge.update_max(4);
  histogram.record(9);
  EXPECT_EQ(counter.value(), 3u);
  EXPECT_EQ(gauge.value(), 17);
  EXPECT_EQ(histogram.count(), 1u);
  reg.reset_all();
  // Registration survives: the same names return the same, zeroed objects.
  EXPECT_EQ(&reg.counter("test.reset_all.counter"), &counter);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0u);
  EXPECT_EQ(histogram.max(), 0u);
}

// ----------------------------------------------------------------- tracer

TEST(Trace, DisabledSpansRecordNothing) {
  ht::ThreadPool::global().wait_idle();
  ht::obs::Tracer::global().clear();
  ASSERT_FALSE(ht::obs::tracing_enabled());
  const SpanId outer_context = ht::obs::current_span();
  {
    ht::obs::TraceSpan span("noop");
    span.arg("k", 1);
    span.arg("d", 2.0);
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.id(), 0u);
    EXPECT_EQ(ht::obs::current_span(), outer_context);
  }
  EXPECT_EQ(ht::obs::Tracer::global().event_count(), 0u);
}

TEST(Trace, NestingAndArgsOnOneThread) {
  TracingOn tracing;
  {
    ht::obs::TraceSpan outer("outer");
    outer.arg("n", 42);
    outer.arg("ratio", 0.5);
    outer.arg("label", "abc");
    EXPECT_EQ(ht::obs::current_span(), outer.id());
    {
      ht::obs::TraceSpan inner("inner");
      EXPECT_EQ(ht::obs::current_span(), inner.id());
    }
    EXPECT_EQ(ht::obs::current_span(), outer.id());
  }
  EXPECT_EQ(ht::obs::current_span(), 0u);

  const auto events = ht::obs::Tracer::global().collect();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent* outer = find_by_name(events, "outer");
  const TraceEvent* inner = find_by_name(events, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_GE(outer->dur_us, inner->dur_us);
  ASSERT_EQ(outer->args.size(), 3u);
  EXPECT_STREQ(outer->args[0].key, "n");
  EXPECT_EQ(outer->args[0].int_value, 42);
  EXPECT_EQ(outer->args[1].kind, ht::obs::TraceArg::Kind::kDouble);
  EXPECT_DOUBLE_EQ(outer->args[1].double_value, 0.5);
  EXPECT_EQ(outer->args[2].string_value, "abc");
}

TEST(Trace, ContextPropagatesAcrossPoolSubmit) {
  TracingOn tracing;
  SpanId outer_id = 0;
  SpanId inner_id = 0;
  {
    ht::obs::TraceSpan outer("submit.outer");
    outer_id = outer.id();
    auto fut = ht::ThreadPool::global().submit([] {
      ht::obs::TraceSpan inner("submit.inner");
      return inner.id();
    });
    inner_id = fut.get();
  }
  ht::ThreadPool::global().wait_idle();
  const auto events = ht::obs::Tracer::global().collect();
  const auto ids = by_id(events);
  ASSERT_TRUE(ids.count(inner_id));
  // The task's span parents under the *enqueuing* span even though it may
  // have run on a different (stealing) thread.
  EXPECT_EQ(ids.at(inner_id).parent, outer_id);
  ASSERT_TRUE(ids.count(outer_id));
  EXPECT_EQ(ids.at(outer_id).parent, 0u);
}

TEST(Trace, WavefrontSpanTreeMatchesLogicalRecursion) {
  // Items are heap-style labels: label L at depth d splits into 2L and
  // 2L+1 until depth 3 — a complete binary recursion tree with 15 items.
  // The recorded piece spans must reproduce exactly that tree via parent
  // ids, regardless of which threads ran which items.
  struct Item {
    int label = 0;
    int depth = 0;
  };
  TracingOn tracing;
  ht::obs::TraceSpan root("test.root");
  const SpanId root_id = root.id();
  ht::parallel_wavefront<Item, int>(
      {Item{1, 0}}, 7,
      [](const Item& item, ht::Rng&) {
        ht::obs::TraceSpan span("test.item");
        span.arg("label", item.label);
        return item.label;
      },
      [](Item&& item, int&&, const auto& emit) {
        if (item.depth < 3) {
          emit(Item{2 * item.label, item.depth + 1});
          emit(Item{2 * item.label + 1, item.depth + 1});
        }
      });
  const auto events = ht::obs::Tracer::global().collect();
  const auto ids = by_id(events);

  // piece_of[label] = the wavefront.piece span that processed this label
  // (found through the test.item span recorded inside it).
  std::map<int, SpanId> piece_of;
  for (const auto& ev : events) {
    if (std::string(ev.name) != "test.item") continue;
    ASSERT_EQ(ev.args.size(), 1u);
    const int label = static_cast<int>(ev.args[0].int_value);
    ASSERT_TRUE(ids.count(ev.parent)) << "test.item has no parent span";
    EXPECT_STREQ(ids.at(ev.parent).name, "wavefront.piece");
    piece_of[label] = ev.parent;
  }
  ASSERT_EQ(piece_of.size(), 15u);
  // The root item belongs to the caller's span; every other item's piece
  // span parents under the piece span of the label that emitted it.
  EXPECT_EQ(ids.at(piece_of.at(1)).parent, root_id);
  for (const auto& [label, piece] : piece_of) {
    if (label == 1) continue;
    EXPECT_EQ(ids.at(piece).parent, piece_of.at(label / 2))
        << "label " << label << " not parented under label " << label / 2;
  }
}

TEST(Trace, VertexCutTreeSpanTreeIsRootedAndWellFormed) {
  TracingOn tracing;
  ht::Rng rng(4242);
  const auto g = ht::graph::gnp_connected(60, 5.0 / 60, rng);
  ht::cuttree::VertexCutTreeOptions opt;
  opt.threshold_override = 0.75;  // force real recursion
  (void)ht::cuttree::build_vertex_cut_tree(g, opt);
  ht::ThreadPool::global().wait_idle();

  const auto events = ht::obs::Tracer::global().collect();
  const auto ids = by_id(events);
  const TraceEvent* root = find_by_name(events, "vertex_cut_tree");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, 0u);

  std::size_t pieces = 0, oracles = 0, flows = 0;
  for (const auto& ev : events) {
    // Every span's parent chain reaches the top without dangling ids.
    SpanId cursor = ev.id;
    int hops = 0;
    while (cursor != 0) {
      ASSERT_TRUE(ids.count(cursor)) << "dangling parent id for " << ev.name;
      cursor = ids.at(cursor).parent;
      ASSERT_LT(++hops, 64) << "parent cycle for " << ev.name;
    }
    const std::string name = ev.name;
    if (name == "wavefront.piece") {
      ++pieces;
      const TraceEvent& parent = ids.at(ev.parent);
      // Wave-0 pieces hang off the builder span; deeper pieces hang off
      // the piece that emitted them.
      const std::string parent_name = parent.name;
      EXPECT_TRUE(parent_name == "vertex_cut_tree" ||
                  parent_name == "wavefront.piece")
          << parent_name;
    } else if (name == "vct.piece_oracle") {
      ++oracles;
      EXPECT_STREQ(ids.at(ev.parent).name, "wavefront.piece");
    } else if (name == "flow.min_vertex_cut") {
      ++flows;
    }
  }
  EXPECT_GT(pieces, 1u);        // the threshold forces at least one split
  EXPECT_EQ(pieces, oracles);   // one oracle span per piece
  EXPECT_GT(flows, 0u);         // the spectral oracle ran real flows
}

TEST(Trace, SameSpanMultisetForOneAndFourThreads) {
  // The logical span tree (names + args) must be identical for any thread
  // count; only ids/timestamps/thread assignment may differ. Uses the
  // vertex cut tree, whose oracle fan-out is fixed per piece, and the
  // hypergraph Gomory–Hu builder, whose Gusfield loop runs one flow per
  // vertex at every pool size.
  ht::Rng rng(777);
  const auto g = ht::graph::gnp_connected(48, 5.0 / 48, rng);
  ht::cuttree::VertexCutTreeOptions opt;
  opt.threshold_override = 0.6;
  opt.seed = 99;
  ht::Rng h_rng(99);
  const auto h = ht::hypergraph::random_uniform(36, 70, 3, h_rng);

  const auto run = [&](std::size_t threads) {
    ht::ThreadPool::reset_global(threads);
    ht::obs::Tracer::global().clear();
    ht::obs::set_tracing_enabled(true);
    (void)ht::cuttree::build_vertex_cut_tree(g, opt);
    (void)ht::CutEngine().gomory_hu(h);
    ht::ThreadPool::global().wait_idle();
    ht::obs::set_tracing_enabled(false);
    const auto events = ht::obs::Tracer::global().collect();
    ht::obs::Tracer::global().clear();
    std::vector<std::string> signatures;
    signatures.reserve(events.size());
    for (const auto& ev : events) signatures.push_back(event_signature(ev));
    std::sort(signatures.begin(), signatures.end());
    return signatures;
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ht::ThreadPool::reset_global();
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Trace, ChromeTraceJsonParsesAndCarriesSpanIds) {
  TracingOn tracing;
  {
    ht::obs::TraceSpan outer("json.outer");
    outer.arg("n", 7);
    outer.arg("weird", "quote\"backslash\\end");
    ht::obs::TraceSpan inner("json.inner");
    inner.arg("ratio", 0.25);
  }
  const std::string json = ht::obs::Tracer::global().chrome_trace_json();
  EXPECT_TRUE(json_parses(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"span_id\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_id\""), std::string::npos);
  EXPECT_NE(json.find("quote\\\"backslash\\\\end"), std::string::npos);

  // A traced bench run must also produce a loadable file end-to-end.
  const std::string path = ::testing::TempDir() + "ht_trace_test.json";
  ASSERT_TRUE(ht::obs::Tracer::global().write_chrome_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
    contents.append(buf, got);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, json);
}

TEST(Trace, ThreadBufferStopsAtTheCapAndCountsTheRest) {
  // A fresh thread starts with an empty buffer; past the cap its spans
  // are counted, not stored, and the export says how many are missing.
  constexpr std::size_t kCap = ht::obs::Tracer::kMaxEventsPerThread;
  auto& dropped =
      ht::obs::MetricsRegistry::global().counter("trace.dropped_spans");
  const std::uint64_t dropped_before = dropped.value();
  TracingOn tracing;
  std::thread worker([] {
    for (std::size_t i = 0; i < kCap + 10; ++i) {
      ht::obs::TraceSpan span("cap.span");
    }
  });
  worker.join();
  std::map<std::uint32_t, std::size_t> stored_per_thread;
  for (const auto& ev : ht::obs::Tracer::global().collect()) {
    if (std::string(ev.name) == "cap.span") ++stored_per_thread[ev.tid];
  }
  ASSERT_EQ(stored_per_thread.size(), 1u);
  EXPECT_EQ(stored_per_thread.begin()->second, kCap);
  EXPECT_EQ(dropped.value() - dropped_before, 10u);
  const std::string json = ht::obs::Tracer::global().chrome_trace_json();
  EXPECT_NE(json.find("\"otherData\":{\"dropped_spans\":10}"),
            std::string::npos);
}

TEST(Trace, EnableMidSpanNeverCorruptsContext) {
  // A span constructed while tracing is off stays inactive even if
  // tracing flips on before its destructor; the context is untouched.
  ht::ThreadPool::global().wait_idle();
  ht::obs::Tracer::global().clear();
  {
    ht::obs::TraceSpan span("flip");
    ht::obs::set_tracing_enabled(true);
    EXPECT_FALSE(span.active());
    EXPECT_EQ(ht::obs::current_span(), 0u);
    ht::obs::set_tracing_enabled(false);
  }
  EXPECT_EQ(ht::obs::Tracer::global().event_count(), 0u);
  EXPECT_EQ(ht::obs::current_span(), 0u);
}

}  // namespace
