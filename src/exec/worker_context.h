#ifndef IFLEX_EXEC_WORKER_CONTEXT_H_
#define IFLEX_EXEC_WORKER_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ctable/compact_table.h"
#include "exec/verify_memo.h"

namespace iflex {

/// Reusable enumeration buffers for the per-tuple filter hot path
/// (RuleEvaluator::EvalFilter). One EvalFilter call enumerates every
/// argument cell into a vector-of-vectors and walks the cross product;
/// allocating those per call dominated the p-function profile. A worker
/// keeps one scratch set warm across every tuple of every morsel it runs.
struct EvalScratch {
  std::vector<std::vector<Value>> arg_values;
  std::vector<size_t> idx;
  std::vector<Value> args;

  /// Readies the first `n_args` argument buffers (cleared, capacity kept).
  void Prepare(size_t n_args) {
    if (arg_values.size() < n_args) arg_values.resize(n_args);
    for (size_t i = 0; i < n_args; ++i) arg_values[i].clear();
    idx.assign(n_args, 0);
    args.clear();
    args.reserve(n_args);
  }
};

/// Per-worker execution state (docs/RUNTIME.md, morsel scheduler): the
/// scratch buffers and memo L1 a TaskPool participant uses while running
/// one morsel (or one whole rule on the serial path). Contexts are pooled
/// rather than keyed by thread identity because joins are *helping* — any
/// thread, including the caller blocked in ParallelFor, may run a morsel —
/// so "one context per OS thread" would leak state across pools and
/// nested batches. Acquire/Release is one uncontended lock per morsel
/// boundary; everything inside the morsel touches only this struct.
struct WorkerContext {
  EvalScratch scratch;
  VerifyMemoL1 memo_l1;
  /// Epoch stamp of the last Acquire (see WorkerContextPool::BeginEpoch).
  uint64_t epoch = 0;

  /// The memo front to hand to cell ops: null when no shared memo is
  /// bound, so callers skip memoization.
  VerifyMemoL1* memo() { return memo_l1.bound() ? &memo_l1 : nullptr; }
};

/// Freelist of WorkerContexts, owned by an Executor. Grows on demand (one
/// context per concurrently running morsel/rule task, bounded by pool
/// width), never shrinks, and recycles contexts with their buffers warm.
class WorkerContextPool {
 public:
  WorkerContextPool() = default;
  WorkerContextPool(const WorkerContextPool&) = delete;
  WorkerContextPool& operator=(const WorkerContextPool&) = delete;

  /// Starts a new execution epoch bound to `memo` (may be null). Contexts
  /// acquired afterwards flush any stale state and rebind: within one
  /// epoch the shared memo is never cleared, so L1 read caches stay valid
  /// across morsels; across epochs they must not leak (the session may
  /// have cleared its caches between Executes).
  void BeginEpoch(VerifyMemo* memo) {
    std::lock_guard<std::mutex> lock(mu_);
    memo_ = memo;
    ++epoch_;
  }

  WorkerContext* Acquire() {
    WorkerContext* ctx = nullptr;
    VerifyMemo* memo = nullptr;
    uint64_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      memo = memo_;
      epoch = epoch_;
      if (!free_.empty()) {
        ctx = free_.back();
        free_.pop_back();
      } else {
        all_.push_back(std::make_unique<WorkerContext>());
        ctx = all_.back().get();
      }
    }
    if (ctx->epoch != epoch || ctx->memo_l1.shared() != memo) {
      ctx->memo_l1.Reset(memo);
      ctx->epoch = epoch;
    }
    return ctx;
  }

  /// Returns a context to the freelist; this is the morsel barrier where
  /// the L1's buffered memo inserts flush to the shared striped memo.
  void Release(WorkerContext* ctx) {
    if (ctx == nullptr) return;
    ctx->memo_l1.Flush();
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(ctx);
  }

  /// Contexts ever created (== the high-water mark of concurrent tasks).
  size_t created() const {
    std::lock_guard<std::mutex> lock(mu_);
    return all_.size();
  }

 private:
  mutable std::mutex mu_;
  VerifyMemo* memo_ = nullptr;
  uint64_t epoch_ = 0;
  std::vector<std::unique_ptr<WorkerContext>> all_;
  std::vector<WorkerContext*> free_;
};

/// RAII Acquire/Release over one morsel or rule evaluation.
class WorkerContextLease {
 public:
  WorkerContextLease() = default;
  explicit WorkerContextLease(WorkerContextPool* pool)
      : pool_(pool), ctx_(pool != nullptr ? pool->Acquire() : nullptr) {}
  ~WorkerContextLease() { reset(); }

  WorkerContextLease(const WorkerContextLease&) = delete;
  WorkerContextLease& operator=(const WorkerContextLease&) = delete;
  WorkerContextLease(WorkerContextLease&& other) noexcept
      : pool_(other.pool_), ctx_(other.ctx_) {
    other.pool_ = nullptr;
    other.ctx_ = nullptr;
  }
  WorkerContextLease& operator=(WorkerContextLease&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = other.pool_;
      ctx_ = other.ctx_;
      other.pool_ = nullptr;
      other.ctx_ = nullptr;
    }
    return *this;
  }

  WorkerContext* get() const { return ctx_; }

  void reset() {
    if (pool_ != nullptr && ctx_ != nullptr) pool_->Release(ctx_);
    pool_ = nullptr;
    ctx_ = nullptr;
  }

 private:
  WorkerContextPool* pool_ = nullptr;
  WorkerContext* ctx_ = nullptr;
};

}  // namespace iflex

#endif  // IFLEX_EXEC_WORKER_CONTEXT_H_
