#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/run_context.hpp"

namespace ht {

namespace {

std::mutex g_global_pool_mutex;
std::unique_ptr<ThreadPool> g_global_pool;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = configured_threads();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  static obs::Gauge& max_queue_depth =
      obs::MetricsRegistry::global().gauge("pool.max_queue_depth");
  // Run-context propagation: a task spawned under a RunScope must observe
  // the same RunState (deadline, cancel latch, piece counter) no matter
  // which worker steals it. Only pay the wrapper when a run is bound.
  if (std::shared_ptr<RunState> run = current_run_state_shared()) {
    task = [run = std::move(run), inner = std::move(task)]() mutable {
      RunBinding binding(run);
      inner();
    };
  }
  // Span-context propagation: the task's spans must parent under the span
  // that *enqueued* it (the logical recursion tree), not under whatever
  // the stealing thread happens to be running. Only pay the wrapper when
  // tracing is live.
  if (obs::tracing_enabled()) {
    task = [parent = obs::current_span(),
            inner = std::move(task)]() mutable {
      obs::ContextGuard context(parent);
      inner();
    };
  }
  {
    std::unique_lock lock(mutex_);
    HT_CHECK(!stopping_);
    tasks_.push_back(std::move(task));
    max_queue_depth.update_max(static_cast<std::int64_t>(tasks_.size()));
  }
  task_available_.notify_one();
  progress_.notify_all();
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    std::unique_lock lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop_front();
    ++in_flight_;
  }
  run_task(task);
  return true;
}

void ThreadPool::run_task(std::function<void()>& task) {
  // Tasks executed by the pool (workers and stealing waiters).
  static obs::Counter& tasks =
      obs::MetricsRegistry::global().counter("pool.tasks");
  try {
    task();
  } catch (...) {
    std::unique_lock lock(mutex_);
    if (!pending_error_) pending_error_ = std::current_exception();
  }
  tasks.add();
  {
    std::unique_lock lock(mutex_);
    --in_flight_;
    if (tasks_.empty() && in_flight_ == 0) idle_.notify_all();
  }
  progress_.notify_all();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
  if (pending_error_) {
    std::exception_ptr err = pending_error_;
    pending_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(lock,
                           [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
      ++in_flight_;
    }
    run_task(task);
  }
}

std::size_t ThreadPool::configured_threads() {
  // Env parsing lives in run_context.cpp (RunContext::FromEnv is the one
  // place the environment is consulted); this is just the default knob.
  return env_default_threads();
}

ThreadPool& ThreadPool::global() {
  std::scoped_lock lock(g_global_pool_mutex);
  if (!g_global_pool) g_global_pool = std::make_unique<ThreadPool>();
  return *g_global_pool;
}

void ThreadPool::reset_global(std::size_t threads) {
  std::scoped_lock lock(g_global_pool_mutex);
  g_global_pool.reset();  // joins the old workers
  g_global_pool = std::make_unique<ThreadPool>(threads);
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  ThreadPool& pool = ThreadPool::global();
  if (n == 1 || pool.size() == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Static chunking: cell -> chunk mapping is independent of thread count,
  // and each cell seeds its own RNG from its index, so output is
  // deterministic. Shared state lives on the heap because the enqueued
  // claimants can outlive this frame: parallel_for returns once every
  // chunk has finished, while claimants that found nothing left to claim
  // may still sit in the queue.
  struct State {
    std::function<void(std::size_t)> body;
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::size_t> done{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;
  };
  auto state = std::make_shared<State>();
  state->body = body;
  const std::size_t chunks = std::min(n, pool.size() * 4);
  const auto claim_chunks = [state, chunks, n] {
    for (;;) {
      const std::size_t chunk = state->next_chunk.fetch_add(1);
      if (chunk >= chunks) break;
      const std::size_t lo = chunk * n / chunks;
      const std::size_t hi = (chunk + 1) * n / chunks;
      try {
        for (std::size_t i = lo; i < hi; ++i) state->body(i);
      } catch (...) {
        std::scoped_lock lock(state->error_mutex);
        if (!state->first_error)
          state->first_error = std::current_exception();
      }
      state->done.fetch_add(1);
    }
  };
  for (std::size_t c = 0; c < chunks; ++c) pool.enqueue(claim_chunks);
  // Caller first: the calling thread claims chunks itself before it helps
  // with the queue, whose front may hold other callers' work (another
  // builder's pieces in a concurrent snapshot build). Only then does it
  // steal until the chunks that other threads claimed have finished.
  claim_chunks();
  pool.help_until([&] { return state->done.load() == chunks; });
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace ht
