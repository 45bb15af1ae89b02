#include "runtime/task_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "resilience/failpoint.h"

namespace iflex {
namespace runtime {

namespace {

/// Queue index owned by the current thread in its pool, SIZE_MAX outside.
/// Keyed by pool so helping threads of one pool never touch another's
/// deques (a test may run several pools at once).
thread_local const TaskPool* tls_pool = nullptr;
thread_local size_t tls_queue = SIZE_MAX;

}  // namespace

TaskPool::TaskPool(size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // threads == 1: no workers, every primitive runs inline on the caller.
  size_t n_workers = threads - 1;
  queues_.reserve(n_workers);
  for (size_t i = 0; i < n_workers; ++i) {
    queues_.push_back(std::make_unique<Worker>());
  }
  workers_.reserve(n_workers);
  for (size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
}

TaskPool::~TaskPool() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_cv_.notify_all();
  }
  for (std::thread& t : workers_) t.join();
}

void TaskPool::Submit(std::function<void()> fn) {
  if (queues_.empty()) {  // single-threaded pool: run inline
    fn();
    return;
  }
  size_t q = tls_pool == this && tls_queue != SIZE_MAX
                 ? tls_queue
                 : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                       queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mu);
    queues_[q]->tasks.push_front(std::move(fn));
  }
  pending_.fetch_add(1, std::memory_order_release);
  std::lock_guard<std::mutex> lock(wake_mu_);
  wake_cv_.notify_one();
}

bool TaskPool::TryRunOne(size_t self) {
  std::function<void()> task;
  // Own deque first (front: newest, cache-hot)...
  if (self != SIZE_MAX) {
    Worker& w = *queues_[self];
    std::lock_guard<std::mutex> lock(w.mu);
    if (!w.tasks.empty()) {
      task = std::move(w.tasks.front());
      w.tasks.pop_front();
    }
  }
  // ...then steal from the back of the fullest sibling deque, so one
  // worker stuck with a long queue of skewed tasks sheds its oldest work.
  if (!task) {
    size_t victim = SIZE_MAX;
    size_t victim_size = 0;
    for (size_t i = 0; i < queues_.size(); ++i) {
      if (i == self) continue;
      std::lock_guard<std::mutex> lock(queues_[i]->mu);
      if (queues_[i]->tasks.size() > victim_size) {
        victim_size = queues_[i]->tasks.size();
        victim = i;
      }
    }
    if (victim != SIZE_MAX) {
      Worker& w = *queues_[victim];
      std::lock_guard<std::mutex> lock(w.mu);
      if (!w.tasks.empty()) {
        task = std::move(w.tasks.back());
        w.tasks.pop_back();
      }
    }
  }
  if (!task) return false;
  task();
  pending_.fetch_sub(1, std::memory_order_release);
  {
    // A batch waiter may be asleep waiting for this completion.
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_cv_.notify_all();
  }
  return true;
}

void TaskPool::WorkerMain(size_t index) {
  tls_pool = this;
  tls_queue = index;
  while (!stop_.load(std::memory_order_acquire)) {
    if (TryRunOne(index)) continue;
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait_for(lock, std::chrono::milliseconds(50), [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
  }
  tls_pool = nullptr;
  tls_queue = SIZE_MAX;
}

void TaskPool::HelpUntil(const std::function<bool()>& done) {
  size_t self = tls_pool == this ? tls_queue : SIZE_MAX;
  while (!done()) {
    if (TryRunOne(self)) continue;
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

void TaskPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelForImpl(n, fn, nullptr);
}

void TaskPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                           const std::function<bool()>& stop) {
  ParallelForImpl(n, fn, &stop);
}

void TaskPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                           const std::function<bool()>& stop, size_t grain) {
  ParallelForImpl(n, fn, &stop, grain);
}

void TaskPool::ParallelForImpl(size_t n,
                               const std::function<void(size_t)>& fn,
                               const std::function<bool()>* stop,
                               size_t grain) {
  struct Batch {
    std::atomic<size_t> next{0};       // work cursor
    std::atomic<size_t> finished{0};   // indices completed or skipped
    std::atomic<bool> failed{false};
    std::atomic<bool> stopped{false};
    std::mutex mu;                     // guards error
    std::exception_ptr error;
  };
  auto batch = std::make_shared<Batch>();
  const size_t chunk =
      grain > 0 ? grain : std::max<size_t>(1, n / (thread_count() * 4));

  auto participate = [batch, n, chunk, &fn, stop] {
    while (true) {
      size_t begin = batch->next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      size_t end = std::min(n, begin + chunk);
      if (stop != nullptr &&
          !batch->stopped.load(std::memory_order_acquire) && (*stop)()) {
        batch->stopped.store(true, std::memory_order_release);
      }
      if (!batch->failed.load(std::memory_order_acquire) &&
          !batch->stopped.load(std::memory_order_acquire)) {
        try {
          // Fail-point site "runtime.task": injected task-level faults
          // travel the same exception channel real ones would.
          resilience::FailPointMaybeThrow("runtime.task");
          for (size_t i = begin; i < end; ++i) fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(batch->mu);
          if (!batch->error) batch->error = std::current_exception();
          batch->failed.store(true, std::memory_order_release);
        }
      }
      // Every claimed index settles exactly once — run, thrown, or
      // skipped after a failure — so the joining thread's "all n
      // settled" condition always becomes true.
      batch->finished.fetch_add(end - begin, std::memory_order_acq_rel);
    }
  };

  // One helper task per worker; the caller participates and then helps
  // until every claimed chunk has settled. Helpers that find the cursor
  // exhausted return immediately.
  size_t helpers = std::min(workers_.size(), n > 0 ? n - 1 : 0);
  for (size_t i = 0; i < helpers; ++i) Submit(participate);
  participate();
  HelpUntil([batch, n] {
    return batch->finished.load(std::memory_order_acquire) >= n;
  });
  // Move the error out before rethrowing: a helper task may still hold
  // the last Batch reference and destroy it at any point after bumping
  // `finished`, and the exception object must not be released on that
  // thread while the caller is reading it.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(batch->mu);
    error = std::move(batch->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace runtime
}  // namespace iflex
