// A fixed-size thread pool with work-stealing waits, plus a deterministic
// parallel_for.
//
// The decomposition engines (vertex cut tree, sparsest-cut peeling,
// decomposition trees, the snapshot build's three trees) and the benchmark
// sweeps all distribute independent work items over one process-wide pool.
//
// Determinism contract: results depend only on the work-item index (each
// item derives its own RNG stream from its index — see util/wavefront.hpp),
// never on the thread that executed it, so any thread count produces
// byte-identical output.
//
// Nested submission is supported: a task running on a pool thread may
// itself call parallel_for / submit and wait for the children. Waiting
// never blocks the worker — the waiter steals queued tasks and runs them
// on its own stack until its children complete (help_until), so recursive
// splits cannot deadlock the pool.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ht {

class ThreadPool {
 public:
  /// threads == 0 means configured_threads() (HT_THREADS env, else
  /// hardware_concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a fire-and-forget task. Tasks may block on the pool (they
  /// should wait via help_until so the waiting thread keeps stealing
  /// work). An exception escaping the task is captured and rethrown from
  /// the next wait_idle() call (first one wins).
  void enqueue(std::function<void()> task);

  /// Enqueue a task and get its result (or exception) through a future.
  /// Waiting on the future from a pool thread risks idling a worker —
  /// prefer help_until([&] { return future_is_ready(fut); }).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Pops and runs one queued task on the calling thread. Returns false
  /// if the queue was empty. This is the stealing primitive behind
  /// help_until.
  bool try_run_one();

  /// Runs queued tasks on the calling thread until done() returns true.
  /// Safe from pool threads and external threads alike: progress is made
  /// either by stealing or by a short timed wait when the queue is empty
  /// (the awaited work is then in flight on other threads).
  template <typename Pred>
  void help_until(Pred&& done) {
    while (!done()) {
      if (try_run_one()) continue;
      std::unique_lock lock(mutex_);
      if (done()) return;
      if (!tasks_.empty()) continue;
      progress_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }

  /// Block until every task enqueued so far has finished. Must be called
  /// from outside the pool (a worker waiting for itself would deadlock);
  /// rethrows the first exception captured from enqueue()d tasks.
  void wait_idle();

  /// Process-wide shared pool (lazily constructed with
  /// configured_threads()).
  static ThreadPool& global();

  /// Tears down and recreates the global pool with `threads` workers
  /// (0 = configured_threads()). Must not race in-flight global-pool work;
  /// intended for tests and benches that compare thread counts.
  static void reset_global(std::size_t threads = 0);

  /// Thread count from the HT_THREADS environment variable (>= 1), else
  /// hardware_concurrency (at least 1).
  static std::size_t configured_threads();

 private:
  void worker_loop();
  void run_task(std::function<void()>& task);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable idle_;
  std::condition_variable progress_;  // any task completed or was enqueued
  std::exception_ptr pending_error_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs body(i) for i in [0, n), distributing chunks over the global pool.
/// The calling thread claims chunks itself first, then steals queued tasks
/// until the chunks other threads claimed have finished, so nested calls
/// from pool workers are safe. `body` must be safe to call concurrently for
/// distinct i. Exceptions from body are rethrown (first one wins) after all
/// iterations finish.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace ht
