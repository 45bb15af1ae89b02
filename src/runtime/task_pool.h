#ifndef IFLEX_RUNTIME_TASK_POOL_H_
#define IFLEX_RUNTIME_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace iflex {
namespace runtime {

/// Zero-dependency work-stealing thread pool.
///
/// Design (see docs/RUNTIME.md):
///   - one deque per worker; the owner pushes/pops at the front (LIFO, keeps
///     nested subtasks cache-hot), thieves steal from the back (FIFO, grabs
///     the oldest — largest — pending work first, which is what balances
///     skewed task sizes);
///   - joins are *helping*: a thread that waits on a batch (ParallelFor)
///     executes queued tasks instead of blocking, so nested ParallelFor
///     from inside a worker can never deadlock — worst case the calling
///     worker runs the whole inner batch itself;
///   - `threads == 1` (or a null pool passed to the free functions) runs
///     everything inline on the caller with no locking at all.
///
/// Determinism contract: the pool schedules *when* tasks run, never what
/// they compute or how results are combined. ParallelFor/ParallelMap index
/// the work items, and callers must combine results by index — every
/// integration in this repo does — so output is identical at any thread
/// count.
class TaskPool {
 public:
  /// `threads == 0` picks std::thread::hardware_concurrency(). The pool
  /// spawns `threads - 1` workers: the thread that joins a batch is itself
  /// the remaining executor.
  explicit TaskPool(size_t threads = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Total execution width (workers + the joining caller).
  size_t thread_count() const { return workers_.size() + 1; }

  /// Enqueues one fire-and-forget task. Prefer ParallelFor/ParallelMap —
  /// they own completion tracking and exception propagation.
  void Submit(std::function<void()> fn);

  /// Runs queued tasks on the calling thread until `done()` returns true;
  /// sleeps briefly only when the queues are empty. This is the helping
  /// join every blocking primitive is built on.
  void HelpUntil(const std::function<bool()>& done);

  /// Calls fn(i) for every i in [0, n), distributed over the pool; the
  /// calling thread participates. Work is handed out in contiguous chunks
  /// through a shared cursor, so skewed per-index costs rebalance
  /// automatically. The first exception thrown by any fn(i) is rethrown on
  /// the calling thread after the batch drains (remaining indices are
  /// skipped, already-running ones finish).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Same, with a cooperative stop predicate polled before every chunk on
  /// every participating thread. Once `stop()` returns true, remaining
  /// chunks are skipped (their indices settle without running fn), so a
  /// deadline or cancellation drains the batch promptly at any thread
  /// count. Callers must treat the batch as aborted when stop() fired —
  /// skipped indices produced no results.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const std::function<bool()>& stop);

  /// Same, with an explicit pull granularity: each cursor claim takes
  /// `grain` consecutive indices (0 = the automatic n/(threads*4) chunk).
  /// Morsel-driven callers pass grain = 1 so every index — already a
  /// batch of work in the caller's units — is handed out individually and
  /// stragglers never serialize a contiguous run of siblings.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const std::function<bool()>& stop, size_t grain);

 private:
  void ParallelForImpl(size_t n, const std::function<void(size_t)>& fn,
                       const std::function<bool()>* stop, size_t grain = 0);
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerMain(size_t index);
  /// Pops one task (own deque front, else steal from the back of the
  /// busiest sibling); returns false when every deque is empty.
  bool TryRunOne(size_t self);

  std::vector<std::unique_ptr<Worker>> queues_;  // one per worker thread
  std::vector<std::thread> workers_;
  std::atomic<size_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<size_t> next_queue_{0};  // round-robin for external submits
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
};

/// ParallelFor over a null pool degrades to a plain serial loop.
inline void ParallelFor(TaskPool* pool, size_t n,
                        const std::function<void(size_t)>& fn) {
  if (pool == nullptr || pool->thread_count() == 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->ParallelFor(n, fn);
}

/// Stop-aware variant; the serial degradation polls `stop` before every
/// index, matching the pooled per-chunk polling.
inline void ParallelFor(TaskPool* pool, size_t n,
                        const std::function<void(size_t)>& fn,
                        const std::function<bool()>& stop) {
  if (pool == nullptr || pool->thread_count() == 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      if (stop()) return;
      fn(i);
    }
    return;
  }
  pool->ParallelFor(n, fn, stop);
}

/// Stop-aware variant with an explicit pull granularity (see the member
/// overload). A null or single-threaded pool degrades to the same serial
/// loop — grain only affects how a real pool hands out indices, never
/// what they compute.
inline void ParallelFor(TaskPool* pool, size_t n,
                        const std::function<void(size_t)>& fn,
                        const std::function<bool()>& stop, size_t grain) {
  if (pool == nullptr || pool->thread_count() == 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      if (stop()) return;
      fn(i);
    }
    return;
  }
  pool->ParallelFor(n, fn, stop, grain);
}

/// out[i] = fn(i) for i in [0, n), in index order regardless of execution
/// order — the deterministic-merge primitive the executor and the
/// simulation strategy build on. T needs no default constructor.
template <typename T, typename Fn>
std::vector<T> ParallelMap(TaskPool* pool, size_t n, const Fn& fn) {
  std::vector<std::optional<T>> slots(n);
  ParallelFor(pool, n, [&](size_t i) { slots[i].emplace(fn(i)); });
  std::vector<T> out;
  out.reserve(n);
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

}  // namespace runtime
}  // namespace iflex

#endif  // IFLEX_RUNTIME_TASK_POOL_H_
