#ifndef IFLEX_RUNTIME_TASK_POOL_H_
#define IFLEX_RUNTIME_TASK_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace iflex {
namespace runtime {

/// Zero-dependency thread pool that runs ParallelFor batches.
///
/// Design (see docs/RUNTIME.md):
///   - one mutex, one condition variable and one list of open batches;
///     each batch lives on its caller's stack, and threads claim
///     `grain`-sized chunks of it under the mutex and run them unlocked;
///   - joins are *helping*: the caller claims chunks of its own batch
///     first, so no batch starves, then of the newest open batch, so a
///     nested ParallelFor from inside a chunk can never deadlock — worst
///     case the calling thread runs the whole inner batch itself;
///   - idle workers sleep; the condition variable is signalled only when
///     a batch opens or settles;
///   - `threads == 1` (or a null pool) runs everything inline on the
///     caller with no locking at all.
///
/// Determinism contract: the pool schedules *when* indices run, never what
/// they compute or how results are combined. ParallelFor indexes the work
/// items, and callers must combine results by index — every integration
/// in this repo does — so output is identical at any thread count.
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

 private:
  struct Batch;
  friend void ParallelFor(TaskPool* pool, size_t n,
                          const std::function<void(size_t)>& fn,
                          const std::function<bool()>& stop, size_t grain);

  /// Opens `b`, helps until it settles, and rethrows its first exception.
  void Join(Batch* b);
  /// Claims the next chunk of `b` and runs it with mu_ released; called
  /// and returns with mu_ held.
  void RunChunk(Batch* b, std::unique_lock<std::mutex>* lock);
  /// Takes `b` off the open list once no index is left to claim.
  void Close(Batch* b);
  void WorkerMain();

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Batch*> open_;  // batches with unclaimed indices, oldest first
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Calls fn(i) for every i in [0, n); the calling thread participates.
/// Work is handed out in chunks of `grain` consecutive indices (0 = the
/// automatic n/(threads*4) chunk), so skewed per-index costs rebalance.
/// Morsel-driven callers pass grain = 1 so every index — already a batch
/// of work in the caller's units — is claimed on its own.
///
/// `stop`, when set, is polled before every chunk; once it returns true
/// the remaining chunks are skipped, so a deadline or cancellation drains
/// the batch promptly. Callers must treat the batch as aborted when stop
/// fired — skipped indices produced no results. The first exception
/// thrown by any fn(i) skips the rest of the batch too and is rethrown on
/// the calling thread once the batch settles (running chunks finish).
///
/// A null or single-threaded pool, or n <= 1, runs a plain serial loop
/// that polls `stop` before every index.
void ParallelFor(TaskPool* pool, size_t n,
                 const std::function<void(size_t)>& fn,
                 const std::function<bool()>& stop = nullptr,
                 size_t grain = 0);

}  // namespace runtime
}  // namespace iflex

#endif  // IFLEX_RUNTIME_TASK_POOL_H_
