// Structured tracing: RAII spans over per-thread append-only buffers.
//
// A TraceSpan records one timed region with typed key/value args. The span
// *tree* follows the logical recursion tree, not the thread schedule:
// every thread carries a current-span id in TLS, ThreadPool::enqueue
// captures the enqueuer's id and restores it around the task (see
// util/thread_pool.cpp), and parallel_wavefront threads each item's parent
// span through emit() (see util/wavefront.hpp). A span recorded on a
// stolen task therefore parents under the span that logically spawned it.
//
// Cost model: when tracing is disabled (the default), constructing a
// TraceSpan is one relaxed atomic load and a couple of member zeroings —
// no clock read, no allocation, no TLS buffer touch. When enabled, closing
// a span appends one event to the calling thread's buffer; buffers are
// created once per thread under a registration lock and then written
// lock-free, and are never destroyed (thread exit keeps its events).
// A buffer stores at most Tracer::kMaxEventsPerThread events: later spans
// on that thread are counted (the "trace.dropped_spans" counter and the
// exported JSON's otherData.dropped_spans) instead of stored, so a traced
// long-running server stays bounded and a truncated trace says so.
//
// Export: Tracer::chrome_trace_json() renders Chrome trace-event JSON
// ("X" complete events) loadable in Perfetto / chrome://tracing, with
// span_id/parent_id inside args so tools can rebuild the logical tree.
// Setting HT_TRACE=out.json in the environment enables tracing at startup
// and writes the file at process exit (the env read lives in
// util/run_context.cpp — the obs layer never calls getenv itself).
// collect()/clear()/export require
// quiescence: no span may be open or closing concurrently (call
// ThreadPool::wait_idle() first) — that is the price of the lock-free
// write path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace ht::obs {

using SpanId = std::uint64_t;  // 0 = "no span"

namespace detail {
extern std::atomic<bool> g_tracing_enabled;
extern thread_local SpanId tls_current_span;
}  // namespace detail

/// One relaxed load; the guard every hot-path instrument checks first.
inline bool tracing_enabled() {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Flips tracing globally. Turning it on mid-run is safe (spans opened
/// while off simply never record); turning it off requires the same
/// quiescence as collect() if the events will be read afterwards.
void set_tracing_enabled(bool enabled);

/// The calling thread's current logical span (0 outside any span).
inline SpanId current_span() { return detail::tls_current_span; }

/// One typed key/value argument attached to a span. Keys must be string
/// literals (the tracer stores the pointer, not a copy).
struct TraceArg {
  enum class Kind : std::uint8_t { kInt, kDouble, kString };
  const char* key = "";
  Kind kind = Kind::kInt;
  std::int64_t int_value = 0;
  double double_value = 0.0;
  std::string string_value;
};

/// One closed span, as stored in a thread buffer.
struct TraceEvent {
  const char* name = "";  // string literal
  SpanId id = 0;
  SpanId parent = 0;
  std::uint32_t tid = 0;  // tracer-assigned dense thread index
  double start_us = 0.0;  // relative to the tracer's origin
  double dur_us = 0.0;
  std::vector<TraceArg> args;
};

/// Restores a saved logical span context on a thread; used at task
/// boundaries so stolen work parents under its logical spawner.
class ContextGuard {
 public:
  explicit ContextGuard(SpanId parent) : saved_(detail::tls_current_span) {
    detail::tls_current_span = parent;
  }
  ~ContextGuard() { detail::tls_current_span = saved_; }
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  SpanId saved_;
};

/// RAII span: opens on construction (if tracing is enabled), records on
/// destruction. `name` must be a string literal.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (tracing_enabled()) open(name);
  }
  ~TraceSpan() {
    if (id_ != 0) close();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// 0 when the span is inactive (tracing was off at construction).
  SpanId id() const { return id_; }
  bool active() const { return id_ != 0; }

  /// Attach a typed argument; no-ops on an inactive span. `key` must be a
  /// string literal.
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  void arg(const char* key, T value) {
    if (id_ != 0) push_int(key, static_cast<std::int64_t>(value));
  }
  void arg(const char* key, double value);
  void arg(const char* key, const char* value);
  void arg(const char* key, const std::string& value);

 private:
  void open(const char* name);
  void close();
  void push_int(const char* key, std::int64_t value);

  SpanId id_ = 0;
  SpanId parent_ = 0;
  const char* name_ = nullptr;
  double start_us_ = 0.0;
  std::vector<TraceArg> args_;
};

/// Owns the per-thread event buffers and the export formats.
class Tracer {
 public:
  /// Events one thread's buffer stores until clear(); about 5 MiB.
  static constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 16;

  static Tracer& global();

  /// Appends a closed span to the calling thread's buffer (assigns tid),
  /// or counts it as dropped once the buffer holds kMaxEventsPerThread.
  void record(TraceEvent&& event);

  /// Microseconds since the tracer's origin (process start, roughly).
  double now_us() const;

  /// All recorded events, concatenated across thread buffers. Requires
  /// quiescence (no concurrent span closes) — wait_idle() the pool first.
  std::vector<TraceEvent> collect() const;
  std::size_t event_count() const;
  /// Drops all recorded events and dropped-span counts (buffers stay
  /// registered). Same quiescence requirement as collect().
  void clear();

  /// Chrome trace-event JSON ("X" events, ts/dur in microseconds, args
  /// carry span_id/parent_id; otherData.dropped_spans counts the spans
  /// the per-thread cap kept out since the last clear()). Same quiescence
  /// requirement as collect().
  std::string chrome_trace_json() const;
  /// Writes chrome_trace_json() to `path`; false on IO failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;  // spans closed past the cap
  };
  ThreadBuffer& local_buffer();

  mutable std::mutex buffers_mutex_;  // guards registration, not appends
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

}  // namespace ht::obs
