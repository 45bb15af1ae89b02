#ifndef IFLEX_EXEC_EXECUTOR_H_
#define IFLEX_EXEC_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "alog/program.h"
#include "common/result.h"
#include "ctable/compact_table.h"
#include "exec/cell_ops.h"
#include "exec/cell_store.h"
#include "exec/verify_memo.h"
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
  /// Metric sink: each Execute adds its ExecStats here once, when it ends
  /// (docs/OBSERVABILITY.md, "Metrics"); null publishes nowhere. Several
  /// executors, on any threads, may share one registry to aggregate a
  /// whole session or bench run; what one Execute did stays readable in
  /// its own Executor::stats().
  obs::MetricRegistry* metrics = nullptr;
  /// Execution pool. It only schedules: rule bodies seeded by a
  /// stored/intensional join always run in document *morsels*; a pool
  /// pulls them dynamically from a shared cursor, and null (the default)
  /// runs the same morsels inline, in order. Results merge in stable
  /// seed-tuple order, so the output — a degraded answer or a budget
  /// verdict included — is bit-identical with or without a pool and at
  /// any thread count (docs/RUNTIME.md).
  runtime::TaskPool* pool = nullptr;
  /// Morsel size of the morsel-driven scheduler: how many seed tuples
  /// (≈ documents) one dynamically claimed work unit covers. Small enough
  /// that a straggler document delays only its own morsel, large enough
  /// to amortize the per-morsel claim and evaluator setup. Clamped to
  /// ≥ 1. Changing it only changes scheduling, unless max_table_tuples is
  /// reached: that cap is checked per morsel and on the merged binding.
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

/// What one Execute did. Every rule evaluator, morsel sub-evaluators
/// included, counts into its own record, and the Execute sums them, so
/// the totals are exact at any thread count and any morsel size without
/// a shared write on a per-tuple path. Execute resets the record when it
/// starts and publishes it once, when it ends, to ExecOptions::metrics as
/// the "exec.*" and "resilience.*" counters (docs/OBSERVABILITY.md).
struct ExecStats {
  size_t rules_evaluated = 0;
  /// Rules evaluated by narrowing a cached binding (ReuseCache); each is
  /// also counted in rules_evaluated.
  size_t rules_narrowed = 0;
  size_t tuples_emitted = 0;
  size_t join_pairs = 0;
  size_t constraint_cells = 0;
  size_t ppred_invocations = 0;
  /// ReuseCache table lookups, one per predicate, by content key.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// PreparedCellStore lookups; an Execute without a cache counts none.
  size_t cell_prep_hits = 0;
  size_t cell_prep_misses = 0;
  /// 1 when the Execute stopped on its deadline / was cancelled.
  size_t deadline_exceeded = 0;
  size_t cancelled = 0;
  /// 1 when the ExecReport ended degraded, and what it dropped.
  size_t degraded_runs = 0;
  size_t docs_failed = 0;
  size_t inputs_failed = 0;
  size_t rules_skipped = 0;
  size_t truncations = 0;
  /// Assignments across *all* intensional tables of a successful Execute
  /// — "the number of assignments produced by the extraction process"
  /// (paper §5.1), which the convergence detector monitors. Unlike the
  /// final result's own count, this sees narrowing that projection hides.
  /// A failed Execute reports 0. Not published: a registry sums.
  size_t process_assignments = 0;
  /// Total |V(c)| across all intensional tables (capped): moves whenever
  /// any constraint narrows any cell anywhere in the process.
  double process_values = 0;

  /// Adds the counts of `other`; the process sizes, which only Execute
  /// sets, are left as they are.
  void Add(const ExecStats& other);
  /// Adds the counts to `registry` under `<prefix>exec.*` and
  /// `<prefix>resilience.*`. Every "exec." counter is created; a
  /// "resilience." counter only once its count is non-zero.
  void Publish(obs::MetricRegistry* registry,
               std::string_view prefix = "") const;
};

/// A predicate's computed table. It is never mutated once built, so the
/// reuse cache, an Execute's intensional tables and Executor::last_idb()
/// share it instead of copying it.
using SharedTable = std::shared_ptr<const CompactTable>;

/// A rule's binding: its table just before Project, with the column of
/// each variable. A ReuseCache keeps the bindings of narrowable rules, so
/// that a rule adding constraints to one is evaluated by applying just
/// those constraints (docs/PERFORMANCE.md, "Narrowing reuse"). Never
/// mutated once built, and shared like SharedTable.
struct RuleBinding {
  CompactTable table;
  std::unordered_map<std::string, size_t> columns;
};
using SharedBinding = std::shared_ptr<const RuleBinding>;

/// A predicate's table with what an Execute derives from it once, when the
/// table is built: its content digest (CompactTable::Digest; only an
/// Execute with a ReuseCache computes it, 0 otherwise) and its process
/// sizes (ExecStats::process_assignments, ::process_values). The reuse
/// cache keeps all three and a hit hands them back, so no table is walked
/// twice for them.
struct PredicateTable {
  SharedTable table;
  uint64_t digest = 0;
  size_t assignments = 0;  // table->AssignmentCount()
  double values = 0;       // table->TotalValueCount(corpus)
};

/// Cross-iteration reuse cache (paper §5.2): intermediate results —
/// the compact table computed for each intensional predicate — keyed by
/// content (docs/PERFORMANCE.md, "Content-keyed reuse"): a predicate's
/// rules plus the digests of the intensional tables they read. A table is
/// a function of its rules and its inputs' contents, so a predicate whose
/// inputs came out byte-identical — untouched by the developer's
/// feedback, or by a simulated answer — is served from cache. An entry
/// may also hold the binding of a narrowable rule, which a later rule that
/// only adds constraints to it narrows instead of re-running it
/// (docs/PERFORMANCE.md, "Narrowing reuse"); an entry may hold a binding
/// and no table. Below the predicate level it keeps the prepared cells and
/// the interned join table sides of every Execute that used it (cells()),
/// so the iterations, attribute probes and candidate simulations of a
/// session prepare each distinct cell and side once.
///
/// Tables and bindings are shared, not copied: a hit hands out the stored
/// one and an insert stores the caller's (docs/PERFORMANCE.md, "Copy-free
/// table flow"). Entries age by generation: each is stamped with the
/// generation of its last insert or hit, NewGeneration() starts the next
/// one (the simulation strategy calls it once per question selection), and
/// an entry used in neither the current nor the previous generation is
/// dropped then, table and binding together. A dropped entry is only a
/// future miss, which recomputes the same table.
///
/// A table inserted while a BatchScope is open becomes visible to Lookup
/// when the scope closes, so the Executes of one simulation batch never
/// read each other's tables, and which predicates each evaluates does not
/// depend on the pool's schedule. Bindings are visible at once.
///
/// Thread-safety: one mutex guards the map, so concurrent simulation
/// executors can share one cache; it is taken a few times per predicate
/// per Execute, too rarely to contend (docs/PERFORMANCE.md, "Verify
/// memo"). The cell store, looked up once per row, stripes its own locks.
/// A table or binding handed out stays readable for as long as its holder
/// keeps it, across concurrent inserts, eviction and Clear(). A duplicate
/// insert keeps the first table and the first binding, fills in a part
/// the entry lacks, and refreshes its generation — harmless, since equal
/// keys compute equal tables. Clear() empties the cell store too, so it
/// must not race with an Execute using the cache.
class ReuseCache {
 public:
  /// Holds back the tables inserted while it lives (see above); a null
  /// cache makes it a no-op. One scope at a time per cache.
  class BatchScope {
   public:
    explicit BatchScope(ReuseCache* cache) : cache_(cache) {
      if (cache_ != nullptr) cache_->SetBatch(true);
    }
    ~BatchScope() {
      if (cache_ != nullptr) cache_->SetBatch(false);
    }
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;

   private:
    ReuseCache* cache_;
  };

  /// The table stored under `key`, with its digest and sizes, or a null
  /// table (an entry holding only a binding, or a table held back by the
  /// open batch, is a miss); a hit stamps the entry with the current
  /// generation.
  PredicateTable Lookup(uint64_t key) {
    // Fail-point site "exec.cache": an injected fault degrades to a cache
    // miss — the caller recomputes, trading time for correctness.
    if (resilience::FailPointFired("exec.cache")) return {};
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end() || it->second.table.table == nullptr ||
        it->second.held) {
      return {};
    }
    it->second.generation = generation_;
    return it->second.table;
  }
  /// The binding stored under `key`, or null; a hit stamps the entry.
  SharedBinding LookupBinding(uint64_t key) {
    if (resilience::FailPointFired("exec.cache")) return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end() || it->second.binding == nullptr) return nullptr;
    it->second.generation = generation_;
    return it->second.binding;
  }
  /// Stores `table` and `binding` (either may be null) under `key`,
  /// stamped with the current generation; a part the entry already holds
  /// is kept.
  void Insert(uint64_t key, PredicateTable table, SharedBinding binding = {}) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = map_[key];
    if (entry.table.table == nullptr && table.table != nullptr) {
      entry.table = std::move(table);
      if (batch_) {
        entry.held = true;
        held_.push_back(key);
      }
    }
    if (entry.binding == nullptr) entry.binding = std::move(binding);
    entry.generation = generation_;
  }
  /// Starts a new generation and drops the entries used in neither it nor
  /// the previous one.
  void NewGeneration() {
    std::lock_guard<std::mutex> lock(mu_);
    ++generation_;
    std::erase_if(map_, [this](const auto& entry) {
      return entry.second.generation + 1 < generation_;
    });
  }
  /// Clears the tables, the bindings, the prepared cells and the interned
  /// sides.
  void Clear() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      map_.clear();
      held_.clear();
    }
    cells_.Clear();
  }
  /// Number of entries (tables, bindings or both).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }
  PreparedCellStore& cells() { return cells_; }

 private:
  struct Entry {
    PredicateTable table;
    SharedBinding binding;
    uint64_t generation = 0;  // of the last insert or hit
    bool held = false;        // table inserted in the open batch
  };

  // Opens or closes the batch; closing releases the held tables.
  void SetBatch(bool open) {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = open;
    if (open) return;
    for (uint64_t key : held_) {
      auto it = map_.find(key);
      if (it != map_.end()) it->second.held = false;
    }
    held_.clear();
  }

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> map_;
  uint64_t generation_ = 0;
  bool batch_ = false;
  std::vector<uint64_t> held_;  // keys of the tables the batch holds back
  PreparedCellStore cells_;
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

  /// Same, reusing/filling `cache` across iterations (paper §5.2): a
  /// predicate whose table is cached is not evaluated, and a narrowable
  /// rule that adds constraints to one whose binding is cached applies
  /// just those constraints to it (docs/PERFORMANCE.md, "Narrowing
  /// reuse").
  Result<CompactTable> Execute(const Program& program, ReuseCache* cache);

  /// What the last Execute did.
  const ExecStats& stats() const { return stats_; }

  /// Tables of every intensional predicate computed by the last Execute
  /// (the assistant inspects intermediate extraction coverage), shared
  /// with the reuse cache.
  const std::unordered_map<std::string, SharedTable>& last_idb() const {
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
  std::unique_ptr<VerifyMemo> owned_verify_memo_;
  ExecStats stats_;
  std::unordered_map<std::string, SharedTable> last_idb_;
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
