// RunContext: deadline / cancellation / budget propagation for a run.
//
// Every public entry point (via ht::Solver or the *_run builders) executes
// under a RunContext describing when the run must stop (absolute deadline,
// cancel token, logical piece budget) and how it is configured (thread
// count, seed, trace sink). The context is bound to the calling thread
// with a RunScope; ThreadPool::enqueue re-binds it around every task the
// run spawns, exactly like trace-span context, so the flow engine's
// augmentation loops and the wavefront's fold boundaries can poll it from
// any depth without signature changes on every intermediate layer.
//
// Stop semantics are cooperative and *latched*: the first failed check
// records a terminal status in the shared RunState; every later stopped()
// poll is one relaxed atomic load. Builders unwind at piece boundaries and
// return valid best-so-far results tagged with that status — nothing
// throws, and the flow engine's cached networks stay usable (an
// interrupted FlowNetwork query is healed by the next reset()).
//
// Determinism: wall-clock stops (deadline, cancel) end the run at a
// schedule-dependent point, but the result is still valid. The *piece
// budget* stops at a logical point instead — it is counted at the serial
// fold boundary of the wavefront (and the serial apply loop of Gomory–Hu),
// so a run stopped at piece N yields byte-identical partial trees for
// every thread count.
//
// HT_THREADS / HT_TRACE are parsed exactly once, here (env_default_threads
// / env_trace_path); RunContext::FromEnv() turns them into explicit fields
// instead of getenv calls buried in thread_pool.cpp / trace.cpp.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "util/status.hpp"

namespace ht {

class CancelToken;

/// Owner side of a cancellation flag. Copyable handles share the flag.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }
  CancelToken token() const;

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Observer side; empty tokens (default) never report cancellation.
class CancelToken {
 public:
  CancelToken() = default;

  bool can_be_cancelled() const { return flag_ != nullptr; }
  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}
  std::shared_ptr<const std::atomic<bool>> flag_;
};

inline CancelToken CancelSource::token() const { return CancelToken(flag_); }

struct RunContext {
  using Clock = std::chrono::steady_clock;
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  /// Cooperative cancellation; empty = never cancelled.
  CancelToken cancel;
  /// Absolute wall-clock deadline; kNoDeadline = unbounded.
  Clock::time_point deadline = kNoDeadline;
  /// Logical piece budget: the run stops (kResourceExhausted) after this
  /// many pieces have been folded/applied at serial boundaries. 0 =
  /// unlimited. Deterministic: the same budget stops at the same logical
  /// piece for every thread count. A snapshot build (snapshot::build)
  /// builds its three trees concurrently, each under its own RunState for
  /// this context, so there the budget counts pieces per tree.
  std::uint64_t piece_budget = 0;
  /// Worker threads for the run; 0 = keep the current pool (whose default
  /// comes from env_default_threads()). Applied by ht::Solver.
  std::size_t threads = 0;
  /// Overrides the per-algorithm options seed when set (ht::Solver).
  std::optional<std::uint64_t> seed;
  /// Deadline/cancel poll cadence inside flow augmentation loops, in
  /// augmenting rounds (Dinic BFS phases).
  std::uint32_t flow_check_rounds = 4;
  /// Chrome-trace output path (from HT_TRACE in FromEnv()); empty = off.
  std::string trace_path;

  /// Defaults with HT_THREADS / HT_TRACE applied — the one place the
  /// environment is consulted (parsed once per process).
  static RunContext FromEnv();

  bool has_deadline() const { return deadline != kNoDeadline; }

  /// Polls the cancel token, then the deadline (one clock read when one
  /// is set): Ok, or the status RunState::check() would latch now. For
  /// callers that check once and never bind a RunScope.
  Status check() const;

  /// Builder-style helpers.
  RunContext& with_deadline_after(std::chrono::nanoseconds timeout) {
    deadline = Clock::now() + timeout;
    return *this;
  }
  RunContext& with_cancel(CancelToken token) {
    cancel = std::move(token);
    return *this;
  }
  RunContext& with_piece_budget(std::uint64_t pieces) {
    piece_budget = pieces;
    return *this;
  }
  RunContext& with_seed(std::uint64_t s) {
    seed = s;
    return *this;
  }
  /// Explicit thread count for the run. An explicit setting always wins
  /// over HT_THREADS: FromEnv() seeds `threads` from the environment, and
  /// this overwrites it — callers surfacing a --threads flag apply it
  /// after FromEnv() so the precedence is flag > HT_THREADS > hardware.
  RunContext& with_threads(std::size_t count) {
    threads = count;
    return *this;
  }
};

/// Shared per-run execution state: the latched stop status and the logical
/// piece counter. One RunState exists per RunScope; tasks spawned by the
/// run observe the same instance through the thread pool's re-binding.
class RunState {
 public:
  explicit RunState(const RunContext& ctx) : ctx_(ctx) {}

  const RunContext& context() const { return ctx_; }

  /// One relaxed load; true once any check has latched a terminal status.
  bool stopped() const {
    return stop_code_.load(std::memory_order_relaxed) != 0;
  }

  /// The latched status (Ok while the run is live).
  Status status() const;

  /// Polls cancel token and deadline (one clock read); latches the first
  /// failure and returns the current status. Call at piece boundaries and
  /// every few augmenting rounds — not per inner-loop iteration.
  Status check();

  /// Serial-boundary accounting: counts one folded/applied piece and
  /// latches kResourceExhausted when the piece budget is reached. Returns
  /// the new count.
  std::uint64_t note_piece();

  std::uint64_t pieces() const {
    return pieces_.load(std::memory_order_relaxed);
  }

  /// Latches `code` if no status is latched yet (first one wins).
  void latch(StatusCode code);

 private:
  const RunContext ctx_;
  std::atomic<std::uint64_t> pieces_{0};
  std::atomic<int> stop_code_{0};  // 0 = live, else StatusCode
};

/// The run state bound to the calling thread, or nullptr outside any run.
RunState* current_run_state();
/// Shared handle for task-boundary propagation (ThreadPool::enqueue).
std::shared_ptr<RunState> current_run_state_shared();

/// True when a run is bound and already stopped — the cheapest poll, safe
/// anywhere on the hot path.
inline bool run_stopped() {
  RunState* state = current_run_state();
  return state != nullptr && state->stopped();
}

/// RAII: binds a fresh RunState for `ctx` to this thread. Entry points
/// construct one; everything they call (including pool tasks, via
/// re-binding) sees it through current_run_state(). Nests: the previous
/// binding is restored on destruction.
class RunScope {
 public:
  explicit RunScope(const RunContext& ctx);
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  RunState& state() { return *state_; }
  /// The run's terminal status: latched stop reason, or Ok.
  Status status() const { return state_->status(); }

 private:
  std::shared_ptr<RunState> state_;
  std::shared_ptr<RunState> previous_;
};

/// RAII: re-binds an existing run's state on a (pool) thread for the
/// duration of one task. Used by ThreadPool::enqueue; not for user code.
class RunBinding {
 public:
  explicit RunBinding(std::shared_ptr<RunState> state);
  ~RunBinding();
  RunBinding(const RunBinding&) = delete;
  RunBinding& operator=(const RunBinding&) = delete;

 private:
  std::shared_ptr<RunState> previous_;
};

/// HT_THREADS (validated, capped, >= 1) or hardware_concurrency; parsed
/// once per process.
std::size_t env_default_threads();
/// HT_TRACE path ("" when unset); parsed once per process.
const std::string& env_trace_path();
/// Pure parser behind env_default_threads, exposed for tests: returns
/// `fallback` unless text is a clean positive integer (capped at 1024).
std::size_t parse_thread_count(const char* text, std::size_t fallback);

}  // namespace ht
