#include "util/run_context.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/trace.hpp"

namespace ht {

namespace {

Status stop_status(StatusCode code) {
  switch (code) {
    case StatusCode::kCancelled:
      return Status::Cancelled("run cancelled");
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded("run deadline exceeded");
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted("run budget exhausted");
    default:
      return Status(code, "run stopped");
  }
}

}  // namespace

Status RunContext::check() const {
  if (cancel.cancelled()) return stop_status(StatusCode::kCancelled);
  if (has_deadline() && Clock::now() >= deadline) {
    return stop_status(StatusCode::kDeadlineExceeded);
  }
  return Status::Ok();
}

Status RunState::status() const {
  const int code = stop_code_.load(std::memory_order_relaxed);
  if (code == 0) return Status::Ok();
  return stop_status(static_cast<StatusCode>(code));
}

Status RunState::check() {
  if (stopped()) return status();
  latch(ctx_.check().code());
  return status();
}

std::uint64_t RunState::note_piece() {
  const std::uint64_t count =
      pieces_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (ctx_.piece_budget != 0 && count >= ctx_.piece_budget) {
    latch(StatusCode::kResourceExhausted);
  }
  return count;
}

void RunState::latch(StatusCode code) {
  if (code == StatusCode::kOk) return;
  int expected = 0;
  stop_code_.compare_exchange_strong(expected, static_cast<int>(code),
                                     std::memory_order_relaxed);
}

namespace {
thread_local std::shared_ptr<RunState> tls_run_state;
}  // namespace

RunState* current_run_state() { return tls_run_state.get(); }

std::shared_ptr<RunState> current_run_state_shared() { return tls_run_state; }

RunScope::RunScope(const RunContext& ctx)
    : state_(std::make_shared<RunState>(ctx)),
      previous_(std::move(tls_run_state)) {
  tls_run_state = state_;
}

RunScope::~RunScope() { tls_run_state = std::move(previous_); }

RunBinding::RunBinding(std::shared_ptr<RunState> state)
    : previous_(std::move(tls_run_state)) {
  tls_run_state = std::move(state);
}

RunBinding::~RunBinding() { tls_run_state = std::move(previous_); }

std::size_t parse_thread_count(const char* text, std::size_t fallback) {
  if (text == nullptr) return fallback;
  // strtoul accepts a leading '-' (wrapping to a huge value), so screen it
  // out; cap the result so a typo can't ask for millions of threads.
  constexpr unsigned long kMaxThreads = 1024;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(text, &end, 10);
  if (text[0] != '-' && end != text && *end == '\0' && parsed >= 1) {
    return static_cast<std::size_t>(std::min(parsed, kMaxThreads));
  }
  return fallback;
}

std::size_t env_default_threads() {
  static const std::size_t threads = [] {
    const std::size_t hw = std::thread::hardware_concurrency();
    return parse_thread_count(std::getenv("HT_THREADS"),
                              hw == 0 ? 1 : hw);
  }();
  return threads;
}

const std::string& env_trace_path() {
  static const std::string path = [] {
    const char* env = std::getenv("HT_TRACE");
    return std::string(env != nullptr ? env : "");
  }();
  return path;
}

RunContext RunContext::FromEnv() {
  RunContext ctx;
  ctx.threads = env_default_threads();
  ctx.trace_path = env_trace_path();
  return ctx;
}

namespace {

/// HT_TRACE=out.json turns tracing on for the whole process and writes the
/// Chrome trace at exit. This lives here rather than in obs/trace.cpp so
/// the obs layer itself never reads the environment — env parsing is
/// RunContext's job (env_trace_path above is the single HT_TRACE read).
struct TraceEnvInit {
  TraceEnvInit() {
    if (env_trace_path().empty()) return;
    (void)obs::Tracer::global();  // construct before registering the handler
    obs::set_tracing_enabled(true);
    std::atexit([] {
      obs::set_tracing_enabled(false);
      const std::string& path = env_trace_path();
      if (obs::Tracer::global().write_chrome_trace(path)) {
        std::fprintf(stderr, "ht: wrote trace to %s (%zu events)\n",
                     path.c_str(), obs::Tracer::global().event_count());
      } else {
        std::fprintf(stderr, "ht: failed to write trace to %s\n",
                     path.c_str());
      }
    });
  }
};
const TraceEnvInit g_trace_env_init;

}  // namespace

}  // namespace ht
