#include "runtime/task_pool.h"

#include <algorithm>
#include <exception>

#include "resilience/failpoint.h"

namespace iflex {
namespace runtime {

struct TaskPool::Batch {
  const std::function<void(size_t)>& fn;
  const std::function<bool()>& stop;
  const size_t n;
  const size_t grain;
  // Guarded by TaskPool::mu_.
  size_t next = 0;       // first unclaimed index; n once closed
  size_t running = 0;    // chunks claimed and not yet finished
  bool waiting = false;  // the caller sleeps until the batch settles
  std::exception_ptr error = nullptr;

  bool Settled() const { return next == n && running == 0; }
};

TaskPool::TaskPool(size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // threads == 1: no workers, every batch runs inline on the caller.
  workers_.reserve(threads - 1);
  for (size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TaskPool::WorkerMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return shutdown_ || !open_.empty(); });
    if (shutdown_) return;
    RunChunk(open_.back(), &lock);
  }
}

void TaskPool::Close(Batch* b) {
  open_.erase(std::find(open_.begin(), open_.end(), b));
}

void TaskPool::RunChunk(Batch* b, std::unique_lock<std::mutex>* lock) {
  const size_t begin = b->next;
  const size_t end = std::min(b->n, begin + b->grain);
  b->next = end;
  if (end == b->n) Close(b);
  ++b->running;
  lock->unlock();
  bool stopped = false;
  std::exception_ptr error;
  try {
    stopped = b->stop && b->stop();
    if (!stopped) {
      // Fail-point site "runtime.task": injected task-level faults
      // travel the same exception channel real ones would.
      resilience::FailPointMaybeThrow("runtime.task");
      for (size_t i = begin; i < end; ++i) b->fn(i);
    }
  } catch (...) {
    error = std::current_exception();
  }
  lock->lock();
  // A stop or a failure skips every chunk not yet claimed.
  if ((stopped || error) && b->next < b->n) {
    b->next = b->n;
    Close(b);
  }
  if (error && !b->error) b->error = std::move(error);
  --b->running;
  if (b->waiting && b->Settled()) cv_.notify_all();
}

void TaskPool::Join(Batch* b) {
  std::unique_lock<std::mutex> lock(mu_);
  open_.push_back(b);
  // The caller takes a chunk itself; wake one sleeper for each other
  // chunk, up to the number of workers.
  const size_t chunks = (b->n + b->grain - 1) / b->grain;
  for (size_t i = 1; i < std::min(chunks, thread_count()); ++i) {
    cv_.notify_one();
  }
  // Own batch first, so no batch starves; then help the newest open batch.
  while (!b->Settled()) {
    if (b->next < b->n) {
      RunChunk(b, &lock);
    } else if (!open_.empty()) {
      RunChunk(open_.back(), &lock);
    } else {
      b->waiting = true;
      cv_.wait(lock, [&] { return b->Settled() || !open_.empty(); });
      b->waiting = false;
    }
  }
  std::exception_ptr error = std::move(b->error);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ParallelFor(TaskPool* pool, size_t n,
                 const std::function<void(size_t)>& fn,
                 const std::function<bool()>& stop, size_t grain) {
  if (pool == nullptr || pool->thread_count() == 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      if (stop && stop()) return;
      fn(i);
    }
    return;
  }
  if (grain == 0) grain = std::max<size_t>(1, n / (pool->thread_count() * 4));
  TaskPool::Batch batch{fn, stop, n, grain};
  pool->Join(&batch);
}

}  // namespace runtime
}  // namespace iflex
