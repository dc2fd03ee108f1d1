#include "obs/trace.hpp"

#include <cstdio>
#include <iomanip>
#include <sstream>

#include "obs/metrics.hpp"

namespace ht::obs {

namespace detail {
std::atomic<bool> g_tracing_enabled{false};
thread_local SpanId tls_current_span = 0;
}  // namespace detail

namespace {

std::atomic<SpanId> g_next_span_id{1};

void json_escape(std::ostringstream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

void append_args(std::ostringstream& os, const TraceEvent& ev) {
  os << "\"span_id\":" << ev.id << ",\"parent_id\":" << ev.parent;
  for (const TraceArg& a : ev.args) {
    os << ",\"";
    json_escape(os, a.key);
    os << "\":";
    switch (a.kind) {
      case TraceArg::Kind::kInt:
        os << a.int_value;
        break;
      case TraceArg::Kind::kDouble:
        os << std::setprecision(17) << a.double_value;
        break;
      case TraceArg::Kind::kString:
        os << "\"";
        json_escape(os, a.string_value.c_str());
        os << "\"";
        break;
    }
  }
}

}  // namespace

void set_tracing_enabled(bool enabled) {
  detail::g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

void TraceSpan::open(const char* name) {
  name_ = name;
  parent_ = detail::tls_current_span;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  detail::tls_current_span = id_;
  start_us_ = Tracer::global().now_us();
}

void TraceSpan::close() {
  TraceEvent ev;
  ev.name = name_;
  ev.id = id_;
  ev.parent = parent_;
  ev.start_us = start_us_;
  ev.dur_us = Tracer::global().now_us() - start_us_;
  ev.args = std::move(args_);
  // Restore even if tracing was flipped off mid-span; the nesting
  // invariant (spans close LIFO per thread) makes this exact.
  detail::tls_current_span = parent_;
  Tracer::global().record(std::move(ev));
}

void TraceSpan::push_int(const char* key, std::int64_t value) {
  TraceArg a;
  a.key = key;
  a.kind = TraceArg::Kind::kInt;
  a.int_value = value;
  args_.push_back(std::move(a));
}

void TraceSpan::arg(const char* key, double value) {
  if (id_ == 0) return;
  TraceArg a;
  a.key = key;
  a.kind = TraceArg::Kind::kDouble;
  a.double_value = value;
  args_.push_back(std::move(a));
}

void TraceSpan::arg(const char* key, const char* value) {
  if (id_ == 0) return;
  TraceArg a;
  a.key = key;
  a.kind = TraceArg::Kind::kString;
  a.string_value = value;
  args_.push_back(std::move(a));
}

void TraceSpan::arg(const char* key, const std::string& value) {
  if (id_ == 0) return;
  TraceArg a;
  a.key = key;
  a.kind = TraceArg::Kind::kString;
  a.string_value = value;
  args_.push_back(std::move(a));
}

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();  // never destroyed: threads may
  return *tracer;                        // record during static teardown
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // Safe to cache per thread: the singleton tracer never dies and never
  // destroys buffers (clear() only empties the event vectors).
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::scoped_lock lock(buffers_mutex_);
    auto owned = std::make_unique<ThreadBuffer>();
    owned->tid = static_cast<std::uint32_t>(buffers_.size());
    buffer = owned.get();
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void Tracer::record(TraceEvent&& event) {
  ThreadBuffer& buf = local_buffer();
  if (buf.events.size() >= kMaxEventsPerThread) {
    static Counter& dropped =
        MetricsRegistry::global().counter("trace.dropped_spans");
    dropped.add();
    ++buf.dropped;
    return;
  }
  event.tid = buf.tid;
  buf.events.push_back(std::move(event));
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::vector<TraceEvent> Tracer::collect() const {
  std::scoped_lock lock(buffers_mutex_);
  std::vector<TraceEvent> out;
  for (const auto& buf : buffers_)
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  return out;
}

std::size_t Tracer::event_count() const {
  std::scoped_lock lock(buffers_mutex_);
  std::size_t n = 0;
  for (const auto& buf : buffers_) n += buf->events.size();
  return n;
}

void Tracer::clear() {
  std::scoped_lock lock(buffers_mutex_);
  for (const auto& buf : buffers_) {
    buf->events.clear();
    buf->dropped = 0;
  }
}

std::string Tracer::chrome_trace_json() const {
  std::ostringstream os;
  std::scoped_lock lock(buffers_mutex_);
  std::uint64_t dropped = 0;
  for (const auto& buf : buffers_) dropped += buf->dropped;
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":"
     << dropped << "},\"traceEvents\":[\n";
  bool first = true;
  for (const auto& buf : buffers_) {
    for (const TraceEvent& ev : buf->events) {
      os << (first ? "" : ",\n");
      first = false;
      os << "{\"name\":\"";
      json_escape(os, ev.name);
      os << "\",\"cat\":\"ht\",\"ph\":\"X\",\"pid\":1,\"tid\":" << ev.tid
         << ",\"ts\":" << std::setprecision(17) << ev.start_us
         << ",\"dur\":" << std::setprecision(17) << ev.dur_us << ",\"args\":{";
      append_args(os, ev);
      os << "}}";
    }
  }
  os << "\n]}\n";
  return os.str();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = chrome_trace_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace ht::obs
