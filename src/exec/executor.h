#ifndef IFLEX_EXEC_EXECUTOR_H_
#define IFLEX_EXEC_EXECUTOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "alog/program.h"
#include "common/result.h"
#include "ctable/compact_table.h"
#include "exec/cell_ops.h"
#include "exec/verify_memo.h"
#include "exec/worker_context.h"
#include "obs/cost_model.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/deadline.h"
#include "resilience/failpoint.h"
#include "resilience/report.h"

namespace iflex {

namespace runtime {
class TaskPool;
}  // namespace runtime

/// Tuning knobs of the approximate query processor.
struct ExecOptions {
  CellOpLimits limits;
  /// Max tuples any intermediate compact table may reach.
  size_t max_table_tuples = 2000000;
  /// Use the direct compact-table implementation of ψ when applicable
  /// (fall back to the a-table BAnnotate route otherwise). Turning this
  /// off forces the paper's default strategy everywhere (ablation A).
  bool compact_annotate = true;
  /// Span sink for the per-rule / per-operator instrumentation; null
  /// means the process-wide obs::DefaultTracer() (runtime-off unless the
  /// IFLEX_TRACE env var or --trace-out turned it on).
  obs::Tracer* tracer = nullptr;
  /// Metric sink; null gives the executor a private registry, so each
  /// Executor's counters stay independent (what the tests and the
  /// assistant's per-iteration reads expect). Point several executors at
  /// one registry to aggregate a whole bench run.
  obs::MetricRegistry* metrics = nullptr;
  /// Execution pool; null (the default) runs fully serial. With a pool,
  /// rule bodies seeded by a stored/intensional join are evaluated in
  /// document *morsels* pulled dynamically from a shared cursor and
  /// multi-rule predicates fan out rule-per-task — results are merged in
  /// stable seed-tuple / rule order, so the output is bit-identical to
  /// serial at any thread count and any morsel size (docs/RUNTIME.md).
  runtime::TaskPool* pool = nullptr;
  /// Morsel size of the morsel-driven scheduler: how many seed tuples
  /// (≈ documents) one dynamically claimed work unit covers. Small enough
  /// that a straggler document delays only its own morsel, large enough
  /// to amortize the per-morsel claim + context acquire + L1 flush.
  /// Clamped to ≥ 1. Changing it never changes results, only scheduling.
  size_t morsel_docs = 128;
  /// Time bound on Execute (docs/ROBUSTNESS.md); checked cooperatively in
  /// every per-tuple loop, so expiry surfaces as kDeadlineExceeded
  /// promptly at any thread count. Never expires by default.
  resilience::Deadline deadline;
  /// Cooperative cancellation; polled alongside the deadline. The token
  /// (and whatever source tree it hangs off) must outlive Execute.
  const resilience::CancellationToken* cancel = nullptr;
  /// Graceful degradation: trap per-document faults in sharded evaluation
  /// and per-rule faults at the predicate level, truncate-and-report on
  /// budget overruns instead of erroring, and record everything dropped in
  /// the ExecReport. The result stays a valid superset-semantics answer
  /// over the surviving inputs. Deadline/cancel stops always propagate —
  /// best-effort never hides them. Off by default: errors abort Execute
  /// exactly as before.
  bool best_effort = false;
  /// Degradation sink; null keeps the report inside the Executor (read it
  /// via Executor::report()). Cleared at the start of every Execute.
  resilience::ExecReport* report = nullptr;
  /// Verify/VerifyText memo shared across executors (the assistant points
  /// every iteration and simulation at one session-scoped memo). Null
  /// gives the executor a private memo.
  VerifyMemo* verify_memo = nullptr;
  /// Attribution profiler (docs/OBSERVABILITY.md): when enabled, every
  /// operator application is charged to a (rule, operator, iteration)
  /// CostKey. Null means obs::DefaultCostModel(), which is disabled
  /// unless something (--explain-out, the shell) turned it on — the
  /// disabled path costs one relaxed load per operator application.
  obs::CostModel* cost_model = nullptr;
  /// Iteration tag stamped into every CostKey this Execute charges; the
  /// refinement session sets it per iteration, -1 means "outside a
  /// session".
  int cost_iteration = -1;
  /// Structured event log / flight recorder. Null means
  /// obs::DefaultEventLog(). When an Execute ends degraded, exceeds its
  /// deadline, is cancelled, or trips a fail point, the recorder's tail
  /// is dumped into ExecReport::flight_recorder.
  obs::EventLog* event_log = nullptr;
};

/// Counters exposed for the benches and the multi-iteration optimizer.
/// Since the obs layer landed this is a *snapshot view* over the
/// executor's MetricRegistry (metric names "exec.*"); the struct shape is
/// kept so call sites read fields as before.
struct ExecStats {
  size_t rules_evaluated = 0;
  size_t tuples_emitted = 0;
  size_t join_pairs = 0;
  size_t constraint_cells = 0;
  size_t ppred_invocations = 0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Cumulative totals of the session-shared caches at the end of the
  /// last Execute: corpus interner / token-cache lookups and Verify-memo
  /// lookups that hit.
  size_t intern_hits = 0;
  size_t verify_memo_hits = 0;
  /// Assignments across *all* intensional tables of the last Execute —
  /// "the number of assignments produced by the extraction process"
  /// (paper §5.1), which the convergence detector monitors. Unlike the
  /// final result's own count, this sees narrowing that projection hides.
  /// Reset at the *start* of every Execute, so a failed execution reports
  /// 0 instead of the previous run's stale value.
  size_t process_assignments = 0;
  /// Total |V(c)| across all intensional tables (capped): moves whenever
  /// any constraint narrows any cell anywhere in the process.
  double process_values = 0;

  void Clear() { *this = ExecStats(); }
};

/// Stable metric pointers for the executor's hot-path counters; cached
/// once per Executor so increments are plain pointer bumps. Internal to
/// the executor — read the numbers via Executor::stats() or metrics().
struct ExecCounters {
  obs::Counter* rules_evaluated = nullptr;
  obs::Counter* tuples_emitted = nullptr;
  obs::Counter* join_pairs = nullptr;
  obs::Counter* constraint_cells = nullptr;
  obs::Counter* ppred_invocations = nullptr;
  obs::Counter* cache_hits = nullptr;
  obs::Counter* cache_misses = nullptr;
  obs::Counter* process_assignments = nullptr;
  obs::Gauge* process_values = nullptr;
  // Set (not added) at the end of every Execute to the cumulative totals
  // of the session-shared caches, which outlive any one executor.
  obs::Counter* intern_hits = nullptr;
  obs::Counter* intern_misses = nullptr;
  obs::Counter* verify_memo_hits = nullptr;
  obs::Counter* verify_memo_misses = nullptr;

  void BindTo(obs::MetricRegistry* registry);
};

/// Cross-iteration reuse cache (paper §5.2): intermediate results —
/// the compact table computed for each intensional predicate — keyed by a
/// fingerprint of the rules that produce it (transitively). When the
/// developer's feedback touches only one extractor, every untouched
/// predicate is served from cache.
///
/// Thread-safety: Lookup/Insert are synchronized by striped locks, so
/// concurrent simulation executors can share one cache. Returned table
/// pointers stay valid across concurrent inserts (node-based map; a
/// duplicate insert keeps the first copy — harmless, since parallel
/// execution is deterministic and both copies are identical). Clear() must
/// not race with readers still holding pointers.
class ReuseCache {
 public:
  const CompactTable* Lookup(uint64_t key) const {
    // Fail-point site "exec.cache": an injected fault degrades to a cache
    // miss — the caller recomputes, trading time for correctness.
    if (resilience::FailPointFired("exec.cache")) return nullptr;
    const Stripe& s = stripe(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(key);
    return it == s.map.end() ? nullptr : &it->second;
  }
  void Insert(uint64_t key, CompactTable table) {
    Stripe& s = stripe(key);
    std::lock_guard<std::mutex> lock(s.mu);
    s.map.emplace(key, std::move(table));
  }
  void Clear() {
    for (Stripe& s : stripes_) {
      std::lock_guard<std::mutex> lock(s.mu);
      s.map.clear();
    }
  }
  size_t size() const {
    size_t n = 0;
    for (const Stripe& s : stripes_) {
      std::lock_guard<std::mutex> lock(s.mu);
      n += s.map.size();
    }
    return n;
  }

 private:
  // Cache-line-padded stripes, 64 of them: adjacent unpadded mutexes
  // false-share, and 16 stripes collide too often once 8+ simulation
  // executors hammer the cache concurrently (same reasoning as
  // VerifyMemo's stripes; docs/PERFORMANCE.md).
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, CompactTable> map;
  };
  static constexpr size_t kStripes = 64;

  Stripe& stripe(uint64_t key) { return stripes_[key % kStripes]; }
  const Stripe& stripe(uint64_t key) const { return stripes_[key % kStripes]; }

  std::array<Stripe, kStripes> stripes_;
};

/// Write-back front for one Execute over a shared ReuseCache: lookups
/// check the local pending set first (then the striped cache), and
/// inserts buffer locally, flushing to the striped cache in one pass when
/// the L1 is destroyed at the end of the Execute. Concurrent simulation
/// executors thus take stripe locks O(predicates) times per Execute for
/// reads and once per flush for writes, instead of locking per insert.
/// Delaying publication never changes results — a peer that misses a
/// not-yet-flushed entry recomputes the identical table (execution is
/// deterministic) — it only trades a little duplicated work for less
/// contention; cross-iteration reuse, the case that matters, always sees
/// flushed entries.
class ReuseCacheL1 {
 public:
  /// Null `shared` makes every operation a no-op (the uncached path).
  explicit ReuseCacheL1(ReuseCache* shared) : shared_(shared) {}
  ~ReuseCacheL1() { Flush(); }
  ReuseCacheL1(const ReuseCacheL1&) = delete;
  ReuseCacheL1& operator=(const ReuseCacheL1&) = delete;

  const CompactTable* Lookup(uint64_t key) const {
    auto it = pending_.find(key);
    if (it != pending_.end()) return it->second.get();
    return shared_ != nullptr ? shared_->Lookup(key) : nullptr;
  }
  /// Buffers an insert; unique_ptr storage keeps the pointer returned by
  /// Lookup stable across further inserts.
  void Insert(uint64_t key, CompactTable table) {
    if (shared_ == nullptr) return;
    pending_.emplace(key,
                     std::make_unique<CompactTable>(std::move(table)));
  }
  /// Publishes buffered entries to the shared cache; idempotent.
  void Flush() {
    if (shared_ == nullptr) return;
    for (auto& [key, table] : pending_) {
      shared_->Insert(key, std::move(*table));
    }
    pending_.clear();
  }
  size_t pending() const { return pending_.size(); }

 private:
  ReuseCache* shared_;
  std::unordered_map<uint64_t, std::unique_ptr<CompactTable>> pending_;
};

/// Evaluates Alog programs over compact tables with superset semantics
/// (paper §4): unfolds description rules, orders intensional predicates
/// topologically, evaluates each rule bottom-up, and applies the
/// annotation operator ψ at each rule root.
class Executor {
 public:
  explicit Executor(const Catalog& catalog, ExecOptions options = {});

  /// Executes `program` and returns the compact table of its query
  /// predicate.
  Result<CompactTable> Execute(const Program& program);

  /// Same, reusing/filling `cache` across iterations (paper §5.2).
  Result<CompactTable> Execute(const Program& program, ReuseCache* cache);

  /// Snapshot of the "exec.*" metrics in the legacy struct shape.
  const ExecStats& stats() const;
  void ClearStats();

  /// The executor's metric registry (private unless ExecOptions pointed
  /// it at a shared one).
  obs::MetricRegistry& metrics() const { return *metrics_; }

  /// Tables of every intensional predicate computed by the last Execute
  /// (the assistant inspects intermediate extraction coverage).
  const std::unordered_map<std::string, CompactTable>& last_idb() const {
    return last_idb_;
  }

  /// Degradation report of the last Execute (what best-effort mode
  /// dropped; report.degraded == false means the result is fault-free).
  /// Aliases ExecOptions::report when one was supplied.
  const resilience::ExecReport& report() const { return *report_; }

 private:
  Result<CompactTable> ExecuteInternal(const Program& program,
                                       ReuseCache* cache);

  const Catalog& catalog_;
  ExecOptions options_;
  obs::Tracer* tracer_;
  obs::CostModel* cost_model_;
  obs::EventLog* event_log_;
  /// Per-worker execution state (scratch buffers + memo L1), recycled
  /// across morsels/rules via a freelist (docs/RUNTIME.md).
  WorkerContextPool contexts_;
  std::unique_ptr<VerifyMemo> owned_verify_memo_;
  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  obs::MetricRegistry* metrics_;
  ExecCounters counters_;
  mutable ExecStats stats_;
  std::unordered_map<std::string, CompactTable> last_idb_;
  resilience::ExecReport owned_report_;
  resilience::ExecReport* report_ = nullptr;
};

/// Counts the extraction result size the way the paper reports it: the
/// number of result tuples, expanding expansion cells (one tuple per
/// encoded value) but treating a plain multi-assignment cell as a single
/// tuple with an uncertain value. Capped, hence double.
double ResultSize(const CompactTable& table, const Corpus& corpus);

}  // namespace iflex

#endif  // IFLEX_EXEC_EXECUTOR_H_
