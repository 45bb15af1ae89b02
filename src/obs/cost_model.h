#ifndef IFLEX_OBS_COST_MODEL_H_
#define IFLEX_OBS_COST_MODEL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace iflex {
namespace obs {

/// Attribution key: who gets charged. `scope` is the rule's head predicate
/// and `op` the operator kind ("join", "from", "constraint", ...). A
/// candidate simulation of question selection charges its rows with the
/// scope prefixed "sim:" ("sim:t9", "join"), summed over every candidate
/// of the iteration. `iteration` is the refinement iteration (-1 outside
/// a session; the post-session full evaluation uses the iteration count).
struct CostKey {
  std::string scope;
  std::string op;
  int iteration = -1;

  bool operator<(const CostKey& o) const {
    return std::tie(iteration, scope, op) <
           std::tie(o.iteration, o.scope, o.op);
  }
  bool operator==(const CostKey& o) const {
    return iteration == o.iteration && scope == o.scope && op == o.op;
  }
};

/// What one key was charged. The columns split into two classes
/// (docs/OBSERVABILITY.md): *stable* columns — rows, verify_calls — whose
/// per-key sums are thread-count invariant because document shards
/// partition the binding rows, and *unstable* columns —
/// count (one charge per Apply call, so it scales with the shard count),
/// wall_ns, docs (per-shard distinct-document sums double-count a
/// document whose rows straddle a shard boundary), memo_hits
/// (shared-cache interleaving), arena_bytes — which are real telemetry
/// but vary run to run.
struct Cost {
  uint64_t count = 0;         // number of charges folded into this row
  uint64_t wall_ns = 0;       // wall time inside the charged scopes
  uint64_t docs = 0;          // distinct documents touched
  uint64_t rows = 0;          // rows produced
  uint64_t verify_calls = 0;  // Verify evaluations (memo hits included)
  uint64_t memo_hits = 0;     // Verify-memo hits observed locally
  uint64_t arena_bytes = 0;   // interner arena growth attributed here

  void Add(const Cost& o) {
    count += o.count;
    wall_ns += o.wall_ns;
    docs += o.docs;
    rows += o.rows;
    verify_calls += o.verify_calls;
    memo_hits += o.memo_hits;
    arena_bytes += o.arena_bytes;
  }
};

/// Rendered attribution profile: rows sorted by (iteration, scope, op),
/// plus the grand total and the enclosing span's wall time so the text
/// table can report coverage (attributed wall / span wall).
struct ExplainReport {
  struct Row {
    CostKey key;
    Cost cost;
  };
  std::vector<Row> rows;
  Cost total;
  uint64_t span_ns = 0;

  /// Sorted fixed-width table. With stable_only, only the thread-count
  /// invariant columns are printed (iter/scope/op/rows/verify) —
  /// byte-identical across thread counts for a fixed scenario, which is
  /// what explain_determinism_test pins.
  std::string ToText(bool stable_only = false) const;
  std::string ToJson() const;

  bool empty() const { return rows.empty(); }
};

/// Low-overhead attribution profiler. Disabled (the default), a CostScope
/// costs one relaxed load and never reads the clock; enabled, Charge
/// takes a small mutex — charges happen per operator application (per
/// binding table, not per tuple), so this is off the tuple hot path.
class CostModel {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  void Charge(const CostKey& key, const Cost& cost);

  /// Accumulates enclosing-span wall time (one Execute, one bench run);
  /// Report(0) uses the accumulated total as the coverage denominator, so
  /// multi-Execute sessions still report attributed/span coverage.
  void AddSpan(uint64_t ns) {
    span_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  uint64_t span_ns() const {
    return span_ns_.load(std::memory_order_relaxed);
  }

  /// Snapshot of everything charged so far. `span_ns` becomes the
  /// report's coverage denominator; 0 means "use the accumulated
  /// AddSpan total".
  ExplainReport Report(uint64_t span_ns = 0) const;

  void Clear();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> span_ns_{0};
  mutable std::mutex mu_;
  std::map<CostKey, Cost> costs_;
};

/// RAII charge: times wall_ns from construction to End()/destruction and
/// charges the accumulated Cost. Inert (no clock read, no allocation)
/// when the model is null or disabled.
class CostScope {
 public:
  CostScope(CostModel* model, std::string_view scope, const char* op,
            int iteration);
  ~CostScope() { End(); }

  CostScope(const CostScope&) = delete;
  CostScope& operator=(const CostScope&) = delete;

  bool active() const { return model_ != nullptr; }
  /// Accumulator for the non-time columns; only meaningful when active.
  Cost* cost() { return &cost_; }

  /// Charges now (idempotent).
  void End();

 private:
  CostModel* model_ = nullptr;  // null when profiling was off
  CostKey key_;
  Cost cost_;
  uint64_t start_ns_ = 0;
};

/// Process-wide model (disabled until something — the bench harness's
/// --explain-out, the shell — enables it).
CostModel& DefaultCostModel();

/// Resolution helper for the "null means the process default" convention
/// used by ExecOptions / SessionOptions.
inline CostModel* CostModelOrDefault(CostModel* m) {
  return m != nullptr ? m : &DefaultCostModel();
}

}  // namespace obs
}  // namespace iflex

#endif  // IFLEX_OBS_COST_MODEL_H_
