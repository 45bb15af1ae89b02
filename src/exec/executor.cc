#include "exec/executor.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/intern.h"
#include "common/strutil.h"
#include "exec/annotate.h"
#include "exec/compile.h"
#include "runtime/task_pool.h"

namespace iflex {

namespace {

// True once the options' deadline/cancel pair demands a cooperative stop.
bool StopRequested(const ExecOptions& options) {
  return (options.cancel != nullptr && options.cancel->Cancelled()) ||
         options.deadline.Expired();
}

// The Status a stopped execution reports; cancellation wins over deadline
// so an explicit cancel is never misattributed to timing.
Status StopStatus(const ExecOptions& options) {
  if (options.cancel != nullptr && options.cancel->Cancelled()) {
    return Status::Cancelled("Execute cancelled");
  }
  return Status::DeadlineExceeded("Execute exceeded its deadline");
}

// Document id a seed tuple is derived from, for fault-isolation
// bookkeeping: the first cell holding exactly one doc-provenance value.
// kInvalidDocId when the tuple has no document provenance.
DocId TupleDocId(const CompactTuple& tuple) {
  for (const Cell& cell : tuple.cells) {
    if (cell.assignments.size() != 1) continue;
    const Assignment& a = cell.assignments[0];
    if (a.is_contain()) return a.span.doc;
    if (a.value.kind() == Value::Kind::kDoc) return a.value.doc();
    if (a.value.has_span()) return a.value.span().doc;
  }
  return kInvalidDocId;
}

// Prepares cells through the Execute's PreparedCellStore when it has one
// (the ReuseCache's, kept across Executes), else into caller-owned
// scratch that lives for one use (docs/PERFORMANCE.md, "Prepared cells").
// Either way the form is the one PrepareSimCell / PrepareCmpCell returns;
// the store only decides whether it is kept. Store lookups are counted
// in `stats`, the owning evaluator's.
class CellPreparer {
 public:
  CellPreparer(PreparedCellStore* store, ExecStats* stats)
      : store_(store), stats_(stats) {}

  // True when prepared forms outlive the Execute: callers then need no
  // storage of their own.
  bool keeps() const { return store_ != nullptr; }

  const PreparedSimCell& Sim(const Corpus& corpus, const Cell& cell,
                             const CellOpLimits& limits,
                             PreparedSimCell* scratch) {
    if (store_ == nullptr) {
      *scratch = PrepareSimCell(corpus, cell, limits);
      return *scratch;
    }
    bool hit = false;
    const PreparedSimCell& p = store_->Sim(corpus, cell, limits, &hit);
    Tally(hit);
    return p;
  }

  const PreparedCmpCell& Cmp(const Corpus& corpus, const Cell& cell,
                             CmpOp op, const CellOpLimits& limits,
                             double offset, PreparedCmpCell* scratch) {
    if (store_ == nullptr) {
      *scratch = PrepareCmpCell(corpus, cell, op, limits, offset);
      return *scratch;
    }
    bool hit = false;
    const PreparedCmpCell& p =
        store_->Cmp(corpus, cell, op, limits, offset, &hit);
    Tally(hit);
    return p;
  }

 private:
  void Tally(bool hit) {
    if (hit) {
      ++stats_->cell_prep_hits;
    } else {
      ++stats_->cell_prep_misses;
    }
  }

  PreparedCellStore* store_;
  ExecStats* stats_;
};

// The prepared table sides of one join op, for the filters the plan names
// in CompiledOp::sim and CompiledOp::cmps. RuleEvaluator::BuildSides
// builds or finds them before the rule's morsels start, and every morsel
// then reads them without locks (a side's verdict rows lock their own).
struct JoinSides {
  std::shared_ptr<const PreparedSimTable> sim;  // when op.sim is set
  // The side is interned in the store, so it keeps each probe's row.
  bool keeps_rows = false;
  std::vector<std::shared_ptr<const PreparedCmpColumn>> cmps;  // op.cmps'
};

// ----------------------------------------------------------- RuleEvaluator
//
// Evaluates one unfolded rule bottom-up over a growing "binding table":
// a compact table whose columns are the variables bound so far. The rule
// is first lowered into a CompiledRule (exec/compile.h), whose op order
// is the literal-selection policy: constraints as soon as their variable
// is bound (cheap cell narrowing), then connected stored-table joins, then
// from / p-predicates / cheap filters, and *unconnected* joins last — with
// every filter that becomes evaluable at join time pushed down into the
// join loop, so similarity joins never materialize a raw cross product.
class RuleEvaluator {
 public:
  RuleEvaluator(const Catalog& catalog, const ExecOptions& options,
                const std::unordered_map<std::string, PredicateTable>* idb,
                obs::Tracer* tracer, resilience::ExecReport* report,
                PreparedCellStore* store)
      : catalog_(catalog),
        options_(options),
        idb_(idb),
        tracer_(tracer),
        report_(report),
        store_(store),
        cells_(store, &stats_),
        cost_model_(obs::CostModelOrDefault(options.cost_model)),
        event_log_(obs::EventLogOrDefault(options.event_log)),
        stop_(options.deadline, options.cancel) {}
  // cells_ points at stats_.
  RuleEvaluator(const RuleEvaluator&) = delete;
  RuleEvaluator& operator=(const RuleEvaluator&) = delete;

  // What this evaluator and its morsels counted.
  const ExecStats& stats() const { return stats_; }

  // Evaluates `rule` from scratch. With `kept` set, it also hands out the
  // rule's binding, copied just before Project, for the caller to cache.
  Result<CompactTable> Evaluate(const Rule& rule, SharedBinding* kept) {
    obs::TraceSpan span(tracer_, "exec.rule", rule.head.predicate);
    Begin(rule);
    binding_ = CompactTable(std::vector<std::string>{});
    binding_.Add(CompactTuple{});
    columns_.clear();

    // The plan lives for this evaluation; its morsels share it read-only
    // (docs/PERFORMANCE.md, "Rule compilation").
    IFLEX_ASSIGN_OR_RETURN(const CompiledRule plan, Compile(rule));
    // So are the join table sides it names, ready before any morsel runs.
    IFLEX_ASSIGN_OR_RETURN(const std::vector<JoinSides> sides,
                           BuildSides(plan));
    if (plan.seed_join) {
      IFLEX_RETURN_NOT_OK(RunMorsels(rule, plan, sides));
    } else {
      IFLEX_RETURN_NOT_OK(RunPlan(plan, sides, 0));
    }
    if (kept != nullptr) {
      *kept = std::make_shared<const RuleBinding>(
          RuleBinding{binding_, columns_});
    }
    return ProjectAndAnnotate(rule.head);
  }

  // Narrowing (docs/PERFORMANCE.md, "Narrowing reuse"): evaluates `rule`,
  // a narrowable rule whose body ends in `steps` constraint literals, from
  // `base`, the binding of the rule without them. Only those constraints
  // run, in body order, each as its step of the full rule's plan (with its
  // history of earlier same-variable constraints) through
  // RunConstraintChain; Project and ψ then run as in Evaluate. After each
  // step but the last, the binding so far — that of the rule without the
  // constraints still to run — is appended to `intermediates`.
  Result<CompactTable> Narrow(const Rule& rule, const RuleBinding& base,
                              size_t steps,
                              std::vector<SharedBinding>* intermediates) {
    obs::TraceSpan span(tracer_, "exec.rule", rule.head.predicate);
    Begin(rule);
    ++stats_.rules_narrowed;
    IFLEX_ASSIGN_OR_RETURN(CompiledRule plan, Compile(rule));
    IFLEX_ASSIGN_OR_RETURN(std::vector<CompiledConstraintStep> chain,
                           LastSteps(rule, steps, &plan));
    binding_ = base.table;
    columns_ = base.columns;
    for (size_t i = 0; i < chain.size(); ++i) {
      IFLEX_RETURN_NOT_OK(stop_.Check("Execute"));
      CompiledOp op;
      op.kind = CompiledOp::Kind::kConstraintChain;
      op.chain.push_back(std::move(chain[i]));
      IFLEX_RETURN_NOT_OK(RunConstraintChain(op));
      if (i + 1 < chain.size()) {
        intermediates->push_back(std::make_shared<const RuleBinding>(
            RuleBinding{binding_, columns_}));
      }
    }
    return ProjectAndAnnotate(rule.head);
  }

 private:
  void Begin(const Rule& rule) {
    scope_ = rule.head.predicate;
    ++stats_.rules_evaluated;
    budget_exhausted_ = false;
  }

  Result<CompiledRule> Compile(const Rule& rule) {
    obs::CostScope cost(cost_model_, scope_, "compile",
                        options_.cost_iteration);
    return CompileRule(catalog_, rule);
  }

  // The plan's steps of the last `steps` literals of `rule`'s body, all
  // constraints, in body order, moved out of `plan`. The plan applies a
  // variable's constraints in body order (CompileRule), so the k-th
  // constraint literal on a variable is the k-th chain step on it.
  static Result<std::vector<CompiledConstraintStep>> LastSteps(
      const Rule& rule, size_t steps, CompiledRule* plan) {
    std::unordered_map<std::string, std::vector<CompiledConstraintStep*>>
        by_var;
    for (CompiledOp& op : plan->ops) {
      for (CompiledConstraintStep& step : op.chain) {
        by_var[step.k.lit.var].push_back(&step);
      }
    }
    std::unordered_map<std::string, size_t> seen;
    std::vector<CompiledConstraintStep> out;
    const size_t first = rule.body.size() - steps;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (rule.body[i].kind != Literal::Kind::kConstraint) continue;
      const ConstraintLit& lit = rule.body[i].constraint;
      const size_t k = seen[lit.var]++;
      if (i < first) continue;
      const std::vector<CompiledConstraintStep*>& on_var = by_var[lit.var];
      if (k >= on_var.size() || !(on_var[k]->k.lit == lit)) {
        return Status::Internal("no plan step for constraint " +
                                lit.ToString() + " in rule " +
                                rule.ToString());
      }
      out.push_back(std::move(*on_var[k]));
    }
    return out;
  }

  // Project, then ψ when the head annotates.
  Result<CompactTable> ProjectAndAnnotate(const RuleHead& head) {
    IFLEX_ASSIGN_OR_RETURN(CompactTable projected, Project(head));

    AnnotationSpec spec;
    spec.existence = head.existence;
    for (size_t i = 0; i < head.annotated.size(); ++i) {
      if (head.annotated[i]) spec.annotated.push_back(i);
    }
    if (spec.empty()) return projected;
    obs::CostScope cost(cost_model_, scope_, "annotate",
                        options_.cost_iteration);
    Result<CompactTable> annotated = ApplyAnnotations(
        catalog_.corpus(), std::move(projected), spec,
        options_.compact_annotate, options_.max_table_tuples, tracer_);
    if (cost.active() && annotated.ok()) {
      cost.cost()->rows = annotated->size();
    }
    return annotated;
  }

  // Applies the intermediate-tuple budget to an overflowing `table`.
  // Best-effort mode truncates to the cap, records the event once, and
  // latches budget_exhausted_ so enumeration loops stop growing tables;
  // otherwise the legacy hard error aborts the rule.
  Status OverBudget(CompactTable* table, const char* what) {
    if (!options_.best_effort) {
      return Status::ExecutionError(std::string(what) +
                                    " exceeds max_table_tuples");
    }
    if (!budget_exhausted_) {
      report_->AddTruncation(
          StringPrintf("%s truncated to %zu tuples", what,
                       options_.max_table_tuples));
      if (event_log_->ShouldLog(obs::LogLevel::kWarn)) {
        event_log_->Warn(
            "exec.budget",
            StringPrintf("%s in rule %s truncated to %zu tuples", what,
                         scope_.c_str(), options_.max_table_tuples));
      }
      budget_exhausted_ = true;
    }
    table->tuples().resize(options_.max_table_tuples);
    return Status::OK();
  }

  // The prepared table sides of every join op's similarity filter and
  // prepared comparisons (CompiledOp::sim, ::cmps), by op index; the other
  // ops' entries stay empty. Ready once per rule evaluation, before its
  // morsels start: with a pool, the batch that runs them opens under the
  // pool mutex after these writes, so every morsel reads them without
  // locks. An intensional table's sides are interned in the store under
  // its digest, so each distinct table builds them once per store
  // (docs/PERFORMANCE.md, "Content-keyed reuse"); any other side is built
  // for this evaluation.
  Result<std::vector<JoinSides>> BuildSides(const CompiledRule& plan) {
    obs::CostScope cost(cost_model_, scope_, "sides",
                        options_.cost_iteration);
    const Corpus& corpus = catalog_.corpus();
    std::vector<JoinSides> sides(plan.ops.size());
    for (size_t oi = 0; oi < plan.ops.size(); ++oi) {
      const CompiledOp& op = plan.ops[oi];
      if (!op.sim.has_value() && op.cmps.empty()) continue;
      obs::TraceSpan span(tracer_, "exec.join_sides", op.atom.predicate);
      IFLEX_ASSIGN_OR_RETURN(const CompactTable* table,
                             ResolveJoinTable(op.atom.predicate));
      const PredicateTable* interned = nullptr;
      if (store_ != nullptr) {
        auto it = idb_->find(op.atom.predicate);
        if (it != idb_->end()) interned = &it->second;
      }
      bool hit = false;
      if (op.sim.has_value()) {
        const size_t col = op.sim->table_col;
        // Blocking needs a shared token (or two token-less values) for a
        // match, which only a threshold above 0 guarantees; small tables
        // scan.
        const bool eligible =
            !op.keyed && table->size() > 32 && op.sim->threshold > 0;
        auto build = [&](PreparedSimTable* side) {
          side->Build(*table, col, eligible, cells_.keeps(),
                      [&](const Cell& c, PreparedSimCell* scratch)
                          -> const PreparedSimCell& {
                        return cells_.Sim(corpus, c, options_.limits,
                                          scratch);
                      });
        };
        if (interned != nullptr) {
          sides[oi].sim =
              store_->SimSide(interned->digest, col, op.sim->threshold,
                              eligible, options_.limits, &hit, build);
          sides[oi].keeps_rows = true;
        } else {
          auto side = std::make_shared<PreparedSimTable>();
          build(side.get());
          sides[oi].sim = std::move(side);
        }
      }
      for (const JoinSideFilter& jc : op.cmps) {
        const Comparison& cmp = op.filters[jc.filter].lit.cmp;
        // lhs op (rhs + offset): the offset goes with the right side.
        const double offset = jc.probe_is_lhs ? cmp.rhs_offset : 0;
        auto build = [&](PreparedCmpColumn* column) {
          column->Build(*table, jc.table_col, cells_.keeps(),
                        [&](const Cell& c, PreparedCmpCell* scratch)
                            -> const PreparedCmpCell& {
                          return cells_.Cmp(corpus, c, cmp.op,
                                            options_.limits, offset, scratch);
                        });
        };
        if (interned != nullptr) {
          sides[oi].cmps.push_back(
              store_->CmpSide(interned->digest, jc.table_col, cmp.op, offset,
                              options_.limits, &hit, build));
        } else {
          auto column = std::make_shared<PreparedCmpColumn>();
          build(column.get());
          sides[oi].cmps.push_back(std::move(column));
        }
      }
    }
    return sides;
  }

  // The verdict row of `probe` over `sides.sim`: kept by an interned side,
  // so each (probe, table) pair is decided once per store, and built into
  // *scratch otherwise.
  Result<const SimRow*> SimRowOf(const JoinSides& sides,
                                 const PreparedSimCell& probe,
                                 double threshold, SimRow* scratch) {
    if (sides.keeps_rows) {
      if (const SimRow* row = sides.sim->FindRow(&probe)) return row;
    }
    IFLEX_RETURN_NOT_OK(
        sides.sim->BuildRow(probe, threshold, options_.limits, &stop_,
                            scratch));
    if (!sides.keeps_rows) return scratch;
    return &sides.sim->KeepRow(&probe, std::move(*scratch));
  }

  // The morsel loop (docs/RUNTIME.md), which runs every body that starts
  // with a seed join: carves the seed table into fixed-size morsels
  // (ExecOptions::morsel_docs seed tuples each; an empty table is one
  // empty morsel) that the pool's participants pull one at a time from
  // the shared batch cursor, so a straggler morsel delays only itself; a
  // null pool runs them inline, in order. Each morsel runs "seed join +
  // the plan's remaining ops" over its tuple range in its own
  // sub-evaluator, and the bindings are concatenated in morsel order.
  // Every later operator is per-tuple and the plan is shared, so the
  // concatenation equals one pass over the whole table tuple for tuple;
  // Project and ψ then run once on the merged table, because cross-tuple
  // deduplication must see all tuples. Morsel boundaries depend only on
  // table size and morsel_docs, so the result is bit-identical at any
  // thread count and without a pool.
  Status RunMorsels(const Rule& rule, const CompiledRule& plan,
                    const std::vector<JoinSides>& sides) {
    IFLEX_ASSIGN_OR_RETURN(const CompactTable* table,
                           ResolveJoinTable(plan.ops.front().atom.predicate));
    const size_t n = table->size();
    const size_t morsel_docs = std::max<size_t>(1, options_.morsel_docs);
    const size_t morsels = n == 0 ? 1 : (n + morsel_docs - 1) / morsel_docs;
    obs::TraceSpan span(tracer_, "exec.morsel_body", rule.head.predicate);

    struct MorselOut {
      Status status = Status::OK();
      // False when fault isolation salvaged nothing from the range, so
      // the columns/binding below carry no schema to merge from.
      bool valid = false;
      // The first dropped seed tuple's own error, under isolation.
      Status seed_error = Status::OK();
      CompactTable binding;
      std::unordered_map<std::string, size_t> columns;
      resilience::ExecReport report;
      ExecStats stats;
    };

    // Seed join + plan suffix over the seed tuples in [lo, hi).
    auto eval_range = [&](size_t lo, size_t hi) {
      MorselOut out;
      out.status = resilience::FailPointStatus("exec.shard");
      if (!out.status.ok()) return out;
      RuleEvaluator sub(catalog_, options_, idb_, tracer_, &out.report,
                        store_);
      sub.scope_ = scope_;  // morsels charge the same rule
      sub.binding_ = CompactTable(std::vector<std::string>{});
      sub.binding_.Add(CompactTuple{});
      out.status = sub.JoinAtom(plan.ops.front(), sides.front(), *table, lo,
                                hi);
      if (out.status.ok()) out.status = sub.RunPlan(plan, sides, 1);
      out.valid = out.status.ok();
      out.binding = std::move(sub.binding_);
      out.columns = std::move(sub.columns_);
      out.stats = sub.stats_;
      return out;
    };

    // One morsel; under best-effort a failing morsel is retried seed
    // tuple by seed tuple, so a single poisoned document drops only
    // itself (recorded in the report) instead of its whole morsel.
    auto eval_morsel = [&](size_t mi) {
      size_t lo = mi * morsel_docs;
      size_t hi = std::min(n, lo + morsel_docs);
      MorselOut out = eval_range(lo, hi);
      if (out.status.ok() || !options_.best_effort || out.status.IsStop()) {
        return out;
      }
      MorselOut iso;
      iso.status = Status::OK();
      iso.stats = out.stats;  // the failed attempt's work counts too
      for (size_t j = lo; j < hi; ++j) {
        MorselOut one = eval_range(j, j + 1);
        iso.report.Merge(one.report);
        iso.stats.Add(one.stats);
        if (one.status.IsStop()) {
          iso.status = one.status;
          break;
        }
        if (!one.status.ok()) {
          if (iso.seed_error.ok()) iso.seed_error = one.status;
          DocId doc = TupleDocId(table->tuples()[j]);
          if (doc != kInvalidDocId) {
            iso.report.AddFailedDoc(doc);
          } else {
            iso.report.AddFailedInput();
          }
          continue;
        }
        if (!iso.valid) {
          iso.valid = true;
          iso.binding = std::move(one.binding);
          iso.columns = std::move(one.columns);
        } else {
          for (CompactTuple& t : one.binding.tuples()) {
            iso.binding.Add(std::move(t));
          }
        }
      }
      return iso;
    };

    std::vector<std::optional<MorselOut>> slots(morsels);
    auto stop = [this] { return StopRequested(options_); };
    try {
      // grain = 1: each morsel is claimed individually from the shared
      // cursor — the chunking that balances skew already happened when
      // the table was carved into morsels.
      runtime::ParallelFor(
          options_.pool, morsels,
          [&](size_t mi) { slots[mi].emplace(eval_morsel(mi)); }, stop,
          /*grain=*/1);
    } catch (const std::exception& e) {
      return Status::Internal(
          std::string("worker exception in morsel evaluation: ") + e.what());
    }
    for (const auto& slot : slots) {
      // Unfilled slots mean the pool skipped work on a stop request.
      if (!slot.has_value()) return StopStatus(options_);
    }
    // Errors, degradation records and counts surface in morsel order, so
    // a failing program fails on the same morsel regardless of thread
    // count.
    size_t first = SIZE_MAX;
    size_t total = 0;
    Status seed_error = Status::OK();
    for (size_t mi = 0; mi < morsels; ++mi) {
      MorselOut& o = *slots[mi];
      report_->Merge(o.report);
      stats_.Add(o.stats);
      IFLEX_RETURN_NOT_OK(o.status);
      if (first == SIZE_MAX && o.valid) first = mi;
      if (seed_error.ok()) seed_error = o.seed_error;
      total += o.binding.size();
    }
    if (first == SIZE_MAX) {
      // Best-effort isolation salvaged no seed tuple at all; the rule has
      // no surviving binding to project. It fails with the first dropped
      // seed tuple's own error, which the caller's per-rule isolation
      // records; only an empty seed table has no tuple to blame.
      if (!seed_error.ok()) return seed_error;
      return Status::ExecutionError("no seed document survived in rule " +
                                    rule.ToString());
    }
    columns_ = std::move(slots[first]->columns);
    binding_ = std::move(slots[first]->binding);
    binding_.tuples().reserve(total);
    for (size_t mi = first + 1; mi < morsels; ++mi) {
      for (CompactTuple& t : slots[mi]->binding.tuples()) {
        binding_.Add(std::move(t));
      }
    }
    if (binding_.size() > options_.max_table_tuples) {
      IFLEX_RETURN_NOT_OK(OverBudget(&binding_, "intermediate table"));
    }
    return Status::OK();
  }

  bool Bound(const std::string& var) const { return columns_.count(var) > 0; }

  // ---- Plan execution (docs/PERFORMANCE.md, "Rule compilation").

  // Runs plan.ops[start..): consecutive constraints fused into one pass,
  // filters run columnar, pushed-down filters inside their join, which
  // reads its entry of `sides`. `start` is 1 on the morsel path, where the
  // seed join already ran.
  Status RunPlan(const CompiledRule& plan, const std::vector<JoinSides>& sides,
                 size_t start) {
    for (size_t oi = start; oi < plan.ops.size(); ++oi) {
      IFLEX_RETURN_NOT_OK(stop_.Check("Execute"));
      const CompiledOp& op = plan.ops[oi];
      switch (op.kind) {
        case CompiledOp::Kind::kJoin: {
          obs::TraceSpan span(tracer_, "exec.join", op.atom.predicate);
          IFLEX_ASSIGN_OR_RETURN(const CompactTable* t,
                                 ResolveJoinTable(op.atom.predicate));
          IFLEX_RETURN_NOT_OK(JoinAtom(op, sides[oi], *t, 0, t->size()));
          break;
        }
        case CompiledOp::Kind::kFrom: {
          obs::TraceSpan span(tracer_, "exec.from");
          IFLEX_RETURN_NOT_OK(ApplyFrom(op.atom));
          break;
        }
        case CompiledOp::Kind::kPPredicate: {
          obs::TraceSpan span(tracer_, "exec.ppred", op.atom.predicate);
          IFLEX_RETURN_NOT_OK(ApplyPPredicate(op.atom));
          break;
        }
        case CompiledOp::Kind::kConstraintChain:
          IFLEX_RETURN_NOT_OK(RunConstraintChain(op));
          break;
        case CompiledOp::Kind::kFilterBlock:
          IFLEX_RETURN_NOT_OK(RunFilterBlock(op));
          break;
      }
      // Chains and blocks only shrink the table, so checking once per op
      // is equivalent to checking after each of their literals.
      if (binding_.size() > options_.max_table_tuples) {
        IFLEX_RETURN_NOT_OK(OverBudget(&binding_, "intermediate table"));
      }
    }
    return Status::OK();
  }

  Result<const CompactTable*> ResolveJoinTable(const std::string& pred) {
    auto kind = catalog_.KindOf(pred);
    PredicateKind k = kind.ok() ? *kind : PredicateKind::kIntensional;
    if (k == PredicateKind::kExtensional) return catalog_.Table(pred);
    auto it = idb_->find(pred);
    if (it == idb_->end()) {
      return Status::Internal("intensional table not yet computed: " + pred);
    }
    return it->second.table.get();
  }

  // Fused verify pass: one traversal of the binding table applies a whole
  // run of consecutive constraints to each tuple, dropping dead tuples at
  // the first failing step, so the chain materializes one table instead
  // of one per constraint. Constraint application is per-tuple
  // independent, so surviving tuples, their narrowed cells, and the memo
  // hit/miss totals equal those of one pass per constraint in chain
  // order; per-step charges keep one explain row per constraint (rows =
  // step survivors, verify_calls = step entrants).
  Status RunConstraintChain(const CompiledOp& op) {
    obs::TraceSpan span(tracer_, "exec.constraint_chain");
    const Corpus& corpus = catalog_.corpus();
    const size_t n = op.chain.size();
    std::vector<size_t> cols(n);
    for (size_t i = 0; i < n; ++i) {
      cols[i] = columns_.at(op.chain[i].k.lit.var);
    }
    const bool profiling = cost_model_->enabled();
    const uint64_t t0 = profiling ? obs::Tracer::NowNs() : 0;
    std::vector<uint64_t> entered(n, 0);
    std::vector<uint64_t> survived(n, 0);
    std::vector<std::unordered_set<DocId>> docs(profiling ? n : 0);
    CompactTable out(binding_.schema());
    // The binding dies with this pass, so each tuple moves through it.
    for (CompactTuple& b : binding_.tuples()) {
      CompactTuple merged = std::move(b);
      bool dead = false;
      for (size_t i = 0; i < n; ++i) {
        ++stats_.constraint_cells;
        ++entered[i];
        if (profiling) {
          DocId d = TupleDocId(merged);
          if (d != kInvalidDocId) docs[i].insert(d);
        }
        IFLEX_RETURN_NOT_OK(stop_.Poll("Execute"));
        Cell cell = ApplyPreparedConstraintToCell(
            corpus, op.chain[i].k, op.chain[i].history, merged.cells[cols[i]],
            options_.verify_memo);
        if (cell.assignments.empty()) {
          dead = true;  // no value can satisfy this constraint
          break;
        }
        merged.cells[cols[i]] = std::move(cell);
        ++survived[i];
      }
      if (!dead) out.Add(std::move(merged));
    }
    binding_ = std::move(out);
    if (profiling) {
      // One charge per fused step; the chain's wall time is split evenly
      // with the remainder on the first step.
      const uint64_t wall = obs::Tracer::NowNs() - t0;
      for (size_t i = 0; i < n; ++i) {
        obs::Cost c;
        c.count = 1;
        c.wall_ns = wall / n + (i == 0 ? wall % n : 0);
        c.rows = survived[i];
        c.verify_calls = entered[i];
        c.docs = docs[i].size();
        cost_model_->Charge(
            obs::CostKey{scope_, "constraint", options_.cost_iteration}, c);
      }
    }
    return Status::OK();
  }

  // A cell a columnar filter can read as one scalar: a single exact
  // assignment (constant cells and refined attribute cells qualify).
  static bool SimpleCell(const Cell& c) {
    return !c.is_expansion && c.assignments.size() == 1 &&
           c.assignments[0].is_exact();
  }

  // CompareValues under the comparison's rhs offset, matching
  // NarrowCellByComparison / CompareCells: a non-numeric shifted value
  // becomes NULL (which satisfies only NULL = NULL).
  static bool CompareValuesOffset(const Value& lhs, CmpOp op, const Value& rhs,
                                  double off) {
    if (off == 0) return CompareValues(lhs, op, rhs);
    auto n = rhs.AsNumber();
    return CompareValues(lhs, op,
                         n.has_value() ? Value::Number(*n + off)
                                       : Value::Null());
  }

  // Columnar filter pass: batches the binding table into fixed-width
  // blocks, runs each filter over a block with an early-out selection
  // vector, and reads a comparison's singleton-exact cells as flat scalar
  // columns — one CompareValues per surviving row instead of per-tuple
  // cell enumeration. Irregular rows (expansion / multi-value / contain
  // cells) take the exact per-tuple evaluation, and the scalar path agrees
  // with it on singleton-exact rows: same survivors in the same order,
  // same narrowed cells, same maybe flags. A p-function row always takes
  // EvalFilter, which on singleton-exact cells makes the one call.
  Status RunFilterBlock(const CompiledOp& op) {
    obs::TraceSpan span(tracer_, "exec.filter_block");
    const size_t nf = op.filters.size();
    // A comparison's lhs/rhs columns; SIZE_MAX marks a constant term (cell
    // pre-built at compile time).
    std::vector<std::array<size_t, 2>> fcols(nf);
    std::vector<ConstSides> consts(nf);
    for (size_t fi = 0; fi < nf; ++fi) {
      const CompiledFilter& f = op.filters[fi];
      if (f.kind != CompiledFilter::Kind::kComparison) continue;
      const Comparison& cmp = f.lit.cmp;
      fcols[fi] = {cmp.lhs.is_var() ? columns_.at(cmp.lhs.var) : SIZE_MAX,
                   cmp.rhs.is_var() ? columns_.at(cmp.rhs.var) : SIZE_MAX};
      consts[fi] = PrepareConstSides(f);
    }
    const bool profiling = cost_model_->enabled();
    const uint64_t t0 = profiling ? obs::Tracer::NowNs() : 0;
    std::vector<uint64_t> survivors(nf, 0);

    constexpr size_t kBlockRows = 256;
    std::vector<CompactTuple>& tuples = binding_.tuples();
    CompactTable out(binding_.schema());
    std::vector<size_t> sel(kBlockRows);
    std::vector<const Value*> lcol(kBlockRows);
    std::vector<const Value*> rcol(kBlockRows);
    for (size_t base = 0; base < tuples.size(); base += kBlockRows) {
      const size_t rows = std::min(kBlockRows, tuples.size() - base);
      size_t live = rows;
      for (size_t i = 0; i < rows; ++i) sel[i] = base + i;
      for (size_t fi = 0; fi < nf && live > 0; ++fi) {
        const CompiledFilter& f = op.filters[fi];
        size_t kept = 0;
        if (f.kind == CompiledFilter::Kind::kComparison) {
          const Comparison& cmp = f.lit.cmp;
          const size_t lhs_col = fcols[fi][0];
          const size_t rhs_col = fcols[fi][1];
          // Gather scalar views; nullptr marks an irregular row.
          for (size_t i = 0; i < live; ++i) {
            const CompactTuple& t = tuples[sel[i]];
            const Cell& lc =
                lhs_col != SIZE_MAX ? t.cells[lhs_col] : f.const_cells[0];
            const Cell& rc =
                rhs_col != SIZE_MAX ? t.cells[rhs_col] : f.const_cells[1];
            const bool simple = SimpleCell(lc) && SimpleCell(rc);
            lcol[i] = simple ? &lc.assignments[0].value : nullptr;
            rcol[i] = simple ? &rc.assignments[0].value : nullptr;
          }
          for (size_t i = 0; i < live; ++i) {
            IFLEX_RETURN_NOT_OK(stop_.Poll("Execute"));
            bool keep;
            if (lcol[i] != nullptr) {
              // Singleton-exact fast path: narrowing keeps the assignment
              // unchanged and never sets maybe, so the pass reduces to
              // the forward check plus the flipped rhs check (the latter
              // can differ when the offset lands on a non-numeric value).
              keep = CompareValuesOffset(*lcol[i], cmp.op, *rcol[i],
                                         cmp.rhs_offset) &&
                     (!cmp.rhs.is_var() ||
                      CompareValuesOffset(*rcol[i], FlipOp(cmp.op), *lcol[i],
                                          -cmp.rhs_offset));
            } else {
              keep = ComparisonOnTuple(cmp, consts[fi], lhs_col, rhs_col,
                                       &tuples[sel[i]]);
            }
            if (keep) sel[kept++] = sel[i];
          }
        } else {
          for (size_t i = 0; i < live; ++i) {
            IFLEX_RETURN_NOT_OK(stop_.Poll("Execute"));
            CompactTuple& t = tuples[sel[i]];
            IFLEX_ASSIGN_OR_RETURN(SatResult r, EvalFilter(f, t, columns_));
            if (r == SatResult::kNone) continue;
            t.maybe = t.maybe || r == SatResult::kSome;
            sel[kept++] = sel[i];
          }
        }
        live = kept;
        survivors[fi] += live;
      }
      for (size_t i = 0; i < live; ++i) {
        out.Add(std::move(tuples[sel[i]]));
      }
    }
    binding_ = std::move(out);
    if (profiling) {
      const uint64_t wall = obs::Tracer::NowNs() - t0;
      for (size_t fi = 0; fi < nf; ++fi) {
        obs::Cost c;
        c.count = 1;
        c.wall_ns = wall / nf + (fi == 0 ? wall % nf : 0);
        c.rows = survivors[fi];
        cost_model_->Charge(
            obs::CostKey{scope_,
                         op.filters[fi].kind == CompiledFilter::Kind::kComparison
                             ? "comparison"
                             : "pfunction",
                         options_.cost_iteration},
            c);
      }
    }
    return Status::OK();
  }

  // Tri-state evaluation of a filter against a tuple whose columns are
  // described by `cols`.
  Result<SatResult> EvalFilter(
      const CompiledFilter& f, const CompactTuple& tuple,
      const std::unordered_map<std::string, size_t>& cols) {
    const Corpus& corpus = catalog_.corpus();
    // The cell a term reads: its column, or the constant cell the compiler
    // built for term position `pos`.
    auto cell_for = [&](const Term& t, size_t pos) -> const Cell& {
      return t.is_var() ? tuple.cells[cols.at(t.var)] : f.const_cells[pos];
    };
    if (f.kind == CompiledFilter::Kind::kComparison) {
      const Comparison& cmp = f.lit.cmp;
      PreparedCmpCell lhs;
      PreparedCmpCell rhs;
      return ComparePrepared(
          cells_.Cmp(corpus, cell_for(cmp.lhs, 0), cmp.op, options_.limits, 0,
                     &lhs),
          cmp.op,
          cells_.Cmp(corpus, cell_for(cmp.rhs, 1), cmp.op, options_.limits,
                     cmp.rhs_offset, &rhs),
          options_.limits);
    }
    const Atom& atom = f.lit.atom;
    // Token-similarity predicates are decided from prepared token-id sets:
    // the same answer as enumerating both cells and calling the function.
    if (std::optional<double> threshold =
            catalog_.TokenSimilarityThreshold(atom.predicate);
        threshold.has_value() && atom.args.size() == 2) {
      PreparedSimCell a;
      PreparedSimCell b;
      return SimilarityVerdict(
          cells_.Sim(corpus, cell_for(atom.args[0], 0), options_.limits, &a),
          cells_.Sim(corpus, cell_for(atom.args[1], 1), options_.limits, &b),
          options_.limits, *threshold);
    }
    const size_t n_args = atom.args.size();
    std::vector<std::vector<Value>> arg_values(n_args);
    bool complete = true;
    for (size_t i = 0; i < n_args; ++i) {
      complete = cell_for(atom.args[i], i)
                     .EnumerateValues(corpus, options_.limits.max_cell_enum,
                                      &arg_values[i]) &&
                 complete;
      if (arg_values[i].empty()) return SatResult::kNone;
    }
    size_t combos = 1;
    for (size_t i = 0; i < n_args; ++i) combos *= arg_values[i].size();
    if (combos > options_.limits.max_filter_combos || !complete) {
      return SatResult::kSome;  // sound: keep as maybe
    }
    bool any = false;
    bool all = true;
    std::vector<size_t> idx(n_args, 0);
    std::vector<Value> args;
    args.reserve(n_args);
    while (true) {
      args.clear();
      for (size_t i = 0; i < n_args; ++i) {
        args.push_back(arg_values[i][idx[i]]);
      }
      Result<Value> r = (*f.fn)(corpus, args);
      if (!r.ok()) return r.status();
      if (r->AsBool()) {
        any = true;
      } else {
        all = false;
      }
      if (any && !all) return SatResult::kSome;
      size_t k = 0;
      for (; k < n_args; ++k) {
        if (++idx[k] < arg_values[k].size()) break;
        idx[k] = 0;
      }
      if (k == n_args) break;
    }
    if (!any) return SatResult::kNone;
    return all ? SatResult::kAll : SatResult::kSome;
  }

  // Natural join of the binding table with the tuples [lo, hi) of a
  // stored/intensional table. The op's pushed-down filters (an unconnected
  // join's) decide each candidate pair before its tuple is kept; those the
  // plan names in CompiledOp::sim and ::cmps read their table side from
  // `sides`. A kept tuple holds only the op's live columns
  // (CompiledOp::live), in merged order.
  Status JoinAtom(const CompiledOp& op, const JoinSides& sides,
                  const CompactTable& table, size_t lo, size_t hi) {
    obs::CostScope cost(cost_model_, scope_, "join", options_.cost_iteration);
    const Corpus& corpus = catalog_.corpus();
    const Atom& atom = op.atom;
    const std::vector<CompiledFilter>& filters = op.filters;
    struct NewCol {
      size_t table_col;
      std::string var;
    };
    struct EqCond {
      size_t table_col;
      enum { kVsBinding, kVsConstant, kVsTableCol } kind;
      size_t other = 0;  // binding col or table col
      Cell constant;
    };
    std::vector<NewCol> new_cols;
    std::vector<EqCond> conds;
    std::unordered_map<std::string, size_t> seen_in_atom;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Term& t = atom.args[i];
      if (!t.is_var()) {
        conds.push_back(EqCond{i, EqCond::kVsConstant, 0, ConstantCell(t)});
        continue;
      }
      auto bit = columns_.find(t.var);
      if (bit != columns_.end()) {
        conds.push_back(EqCond{i, EqCond::kVsBinding, bit->second, Cell{}});
        continue;
      }
      auto sit = seen_in_atom.find(t.var);
      if (sit != seen_in_atom.end()) {
        conds.push_back(EqCond{i, EqCond::kVsTableCol, sit->second, Cell{}});
        continue;
      }
      seen_in_atom.emplace(t.var, i);
      new_cols.push_back(NewCol{i, t.var});
    }

    // Column map of the full merged tuples (binding, then new columns),
    // which the generic pushed-down filters read.
    std::unordered_map<std::string, size_t> merged_cols = columns_;
    for (const NewCol& nc : new_cols) {
      merged_cols.emplace(nc.var, merged_cols.size());
    }
    // The output layout: the merged columns a later op or the head reads.
    const size_t width = binding_.schema().size();
    std::vector<size_t> keep;  // merged indices of the kept columns
    std::vector<std::string> out_schema;
    std::unordered_map<std::string, size_t> out_cols;
    for (size_t m = 0; m < width + new_cols.size(); ++m) {
      const std::string& var =
          m < width ? binding_.schema()[m] : new_cols[m - width].var;
      if (!std::binary_search(op.live.begin(), op.live.end(), var)) continue;
      keep.push_back(m);
      out_cols.emplace(var, out_schema.size());
      out_schema.push_back(var);
    }

    // Prepared similarity join (docs/PERFORMANCE.md): the plan's similarity
    // filter joins one binding column to one new table column (the
    // approximate string join of the paper's TR) and reads the table side
    // BuildSides prepared. Each probe's verdict row lists the tuples it
    // does not rule out (only those sharing a token with it, when that
    // side is indexed), and the pair loop walks just those.
    const PreparedSimTable* sim = sides.sim.get();
    const size_t sim_binding_col =
        sim != nullptr ? columns_.at(op.sim->probe) : 0;

    // Prepared join comparisons: a comparison between one binding column
    // and one new table column (T9's `np < bp`) reads the table side
    // BuildSides prepared and the probe side prepared once per probe row,
    // on first use, so a pair costs O(1) — a search for `=` and `≠` —
    // instead of enumerating both cells.
    struct CmpProbe {
      size_t binding_col = 0;
      const PreparedCmpCell* cell = nullptr;  // this probe row's
      PreparedCmpCell scratch;
    };
    std::vector<CmpProbe> cmp_probes(op.cmps.size());
    for (size_t i = 0; i < op.cmps.size(); ++i) {
      cmp_probes[i].binding_col = columns_.at(op.cmps[i].probe);
    }
    // op.cmps[i] on one pair. lhs op (rhs + offset): the offset goes with
    // the right side.
    auto join_compare = [&](size_t i, const CompactTuple& b, size_t ti) {
      const JoinSideFilter& jc = op.cmps[i];
      const Comparison& cmp = filters[jc.filter].lit.cmp;
      CmpProbe& p = cmp_probes[i];
      if (p.cell == nullptr) {
        p.cell = &cells_.Cmp(corpus, b.cells[p.binding_col], cmp.op,
                             options_.limits,
                             jc.probe_is_lhs ? 0 : cmp.rhs_offset, &p.scratch);
      }
      const PreparedCmpCell& t = *sides.cmps[i]->cells[ti];
      return jc.probe_is_lhs
                 ? ComparePrepared(*p.cell, cmp.op, t, options_.limits)
                 : ComparePrepared(t, cmp.op, *p.cell, options_.limits);
    };

    CompactTable out(std::move(out_schema));
    PreparedSimCell probe_scratch;
    SimRow row_scratch;
    // Pairs are counted in a local and added once, on every exit, so the
    // pair loop never writes through `this`.
    size_t pairs = 0;
    class AddOnExit {
     public:
      AddOnExit(const size_t& n, size_t* total) : n_(n), total_(total) {}
      AddOnExit(const AddOnExit&) = delete;
      AddOnExit& operator=(const AddOnExit&) = delete;
      ~AddOnExit() { *total_ += n_; }

     private:
      const size_t& n_;
      size_t* total_;
    } add_pairs(pairs, &stats_.join_pairs);
    for (const CompactTuple& b : binding_.tuples()) {
      if (budget_exhausted_) break;
      const std::vector<CompactTuple>& ttuples = table.tuples();
      for (CmpProbe& p : cmp_probes) p.cell = nullptr;
      // The probe's verdict row, which decides the similarity filter before
      // the pair's other conditions: the plan names a similarity side only
      // when no p-function, which could fail on a pair the verdict drops,
      // comes before it (compile.cc). The row tried every candidate pair.
      const SimRow* row = nullptr;
      if (sim != nullptr) {
        const PreparedSimCell& probe = cells_.Sim(
            corpus, b.cells[sim_binding_col], options_.limits, &probe_scratch);
        IFLEX_ASSIGN_OR_RETURN(
            row, SimRowOf(sides, probe, op.sim->threshold, &row_scratch));
        pairs += row->tried;
      }
      // Only a morsel's seed join reads a partial range; compile.cc pushes
      // no filter into the first join, so a verdict row, which spans the
      // whole table, never meets a partial range.
      const size_t n_pairs = row != nullptr ? row->tuples.size() : hi - lo;

      for (size_t ci = 0; ci < n_pairs; ++ci) {
        const size_t ti = row != nullptr ? row->tuples[ci] : lo + ci;
        const CompactTuple& t = ttuples[ti];
        if (row == nullptr) ++pairs;
        IFLEX_RETURN_NOT_OK(stop_.Poll("Execute"));
        bool dead = false;
        bool some = false;
        for (const EqCond& c : conds) {
          const Cell& lhs = t.cells[c.table_col];
          const Cell* rhs = nullptr;
          switch (c.kind) {
            case EqCond::kVsBinding:
              rhs = &b.cells[c.other];
              break;
            case EqCond::kVsConstant:
              rhs = &c.constant;
              break;
            case EqCond::kVsTableCol:
              rhs = &t.cells[c.other];
              break;
          }
          SatResult r = CellsEqual(corpus, lhs, *rhs, options_.limits);
          if (r == SatResult::kNone) {
            dead = true;
            break;
          }
          if (r == SatResult::kSome) some = true;
        }
        if (dead) continue;
        // Pushed-down filters, in body order. The similarity filter and
        // the prepared comparisons read prepared cells, so the full merged
        // tuple is built only when another filter needs it.
        std::optional<CompactTuple> merged;
        auto merge = [&] {
          merged.emplace(b);
          for (const NewCol& nc : new_cols) {
            merged->cells.push_back(t.cells[nc.table_col]);
          }
        };
        size_t next_cmp = 0;  // into op.cmps, which are in filter order
        for (size_t fi = 0; fi < filters.size(); ++fi) {
          SatResult r;
          if (row != nullptr && fi == op.sim->filter) {
            r = row->verdicts[ci];
          } else if (next_cmp < op.cmps.size() &&
                     op.cmps[next_cmp].filter == fi) {
            r = join_compare(next_cmp++, b, ti);
          } else {
            if (!merged.has_value()) merge();
            IFLEX_ASSIGN_OR_RETURN(
                r, EvalFilter(filters[fi], *merged, merged_cols));
          }
          if (r == SatResult::kNone) {
            dead = true;
            break;
          }
          if (r == SatResult::kSome) some = true;
        }
        if (dead) continue;
        CompactTuple kept;
        kept.cells.reserve(keep.size());
        for (size_t m : keep) {
          if (merged.has_value()) {
            kept.cells.push_back(std::move(merged->cells[m]));
          } else {
            kept.cells.push_back(m < width
                                     ? b.cells[m]
                                     : t.cells[new_cols[m - width].table_col]);
          }
        }
        kept.maybe = b.maybe || t.maybe || some;
        out.Add(std::move(kept));
        if (out.size() > options_.max_table_tuples) {
          IFLEX_RETURN_NOT_OK(OverBudget(&out, "join output"));
          break;  // best-effort: stop enumerating candidates
        }
      }
    }
    columns_ = std::move(out_cols);
    binding_ = std::move(out);
    if (cost.active()) {
      cost.cost()->rows = binding_.size();
      cost.cost()->docs = DistinctDocs();
    }
    return Status::OK();
  }

  // Distinct source documents among the current binding tuples. Only
  // computed when the profiler is on — it walks the whole table.
  uint64_t DistinctDocs() const {
    std::unordered_set<DocId> docs;
    for (const CompactTuple& t : binding_.tuples()) {
      DocId d = TupleDocId(t);
      if (d != kInvalidDocId) docs.insert(d);
    }
    return docs.size();
  }

  // from(x, y): appends column y = expand({contain(s) per assignment of x}).
  Status ApplyFrom(const Atom& atom) {
    obs::CostScope cost(cost_model_, scope_, "from", options_.cost_iteration);
    if (cost.active()) cost.cost()->docs = DistinctDocs();
    const Corpus& corpus = catalog_.corpus();
    if (!atom.args[0].is_var() || !atom.args[1].is_var()) {
      return Status::InvalidArgument("from() arguments must be variables");
    }
    const std::string& in_var = atom.args[0].var;
    const std::string& out_var = atom.args[1].var;
    if (Bound(out_var)) {
      return Status::InvalidArgument("from() output already bound: " +
                                     out_var);
    }
    size_t in_col = columns_.at(in_var);
    CompactTable out(AppendSchema(out_var));
    for (CompactTuple& b : binding_.tuples()) {
      std::vector<Assignment> spans;
      for (const Assignment& a : b.cells[in_col].assignments) {
        if (a.is_contain()) {
          spans.push_back(Assignment::Contain(a.span));
        } else if (a.value.has_span()) {
          spans.push_back(Assignment::Contain(a.value.span()));
        } else if (a.value.kind() == Value::Kind::kDoc) {
          spans.push_back(
              Assignment::Contain(corpus.Get(a.value.doc()).FullSpan()));
        } else {
          return Status::ExecutionError(
              "from() applied to a value with no document provenance");
        }
      }
      CompactTuple merged = std::move(b);  // the binding dies with this op
      merged.cells.push_back(Cell::Expansion(std::move(spans)));
      out.Add(std::move(merged));
    }
    columns_.emplace(out_var, columns_.size());
    binding_ = std::move(out);
    if (cost.active()) cost.cost()->rows = binding_.size();
    return Status::OK();
  }

  std::vector<std::string> AppendSchema(const std::string& var) {
    std::vector<std::string> schema = binding_.schema();
    schema.push_back(var);
    return schema;
  }

  // Comparison forms of a filter's constant sides, prepared once per
  // filter block: `lhs` as compared, `lhs_flipped` as the right side of
  // the flipped comparison, `rhs` under the offset.
  struct ConstSides {
    PreparedCmpCell lhs;
    PreparedCmpCell lhs_flipped;
    PreparedCmpCell rhs;
  };

  ConstSides PrepareConstSides(const CompiledFilter& f) const {
    const Corpus& corpus = catalog_.corpus();
    const Comparison& cmp = f.lit.cmp;
    ConstSides out;
    if (!cmp.lhs.is_var()) {
      out.lhs = PrepareCmpCell(corpus, f.const_cells[0], cmp.op,
                               options_.limits);
      out.lhs_flipped = PrepareCmpCell(corpus, f.const_cells[0],
                                       FlipOp(cmp.op), options_.limits,
                                       -cmp.rhs_offset);
    }
    if (!cmp.rhs.is_var()) {
      out.rhs = PrepareCmpCell(corpus, f.const_cells[1], cmp.op,
                               options_.limits, cmp.rhs_offset);
    }
    return out;
  }

  // One tuple of a comparison filter (the filter block's irregular rows):
  // narrow the lhs cell (or tri-state compare when the lhs is a constant),
  // then narrow the rhs cell against the narrowed lhs. Column indices are
  // SIZE_MAX for constant sides, whose forms come from `consts`. On true,
  // *merged holds the narrowed tuple with its maybe flag updated; false
  // drops the tuple (a partially narrowed *merged is then discarded by the
  // caller).
  bool ComparisonOnTuple(const Comparison& cmp, const ConstSides& consts,
                         size_t lhs_col, size_t rhs_col,
                         CompactTuple* merged) {
    const Corpus& corpus = catalog_.corpus();
    const CellOpLimits& limits = options_.limits;
    PreparedCmpCell rhs_scratch;
    PreparedCmpCell lhs_scratch;
    // The rhs as compared, under the offset.
    const PreparedCmpCell& rhs =
        cmp.rhs.is_var() ? cells_.Cmp(corpus, merged->cells[rhs_col], cmp.op,
                                      limits, cmp.rhs_offset, &rhs_scratch)
                         : consts.rhs;
    bool maybe = merged->maybe;
    if (cmp.lhs.is_var()) {
      bool partial = false;
      Cell narrowed = NarrowCellByPrepared(corpus, merged->cells[lhs_col],
                                           cmp.op, rhs, limits, &partial);
      if (narrowed.assignments.empty()) return false;
      merged->cells[lhs_col] = std::move(narrowed);
      maybe = maybe || partial;
    } else {
      SatResult r = ComparePrepared(consts.lhs, cmp.op, rhs, limits);
      if (r == SatResult::kNone) return false;
      maybe = maybe || r == SatResult::kSome;
    }
    // Also narrow the right side when it is a variable (correlation with
    // the narrowed left side is lost, but the result stays a superset).
    if (cmp.rhs.is_var()) {
      // lhs op rhs+off  <=>  rhs flip(op) lhs-off.
      const CmpOp flipped = FlipOp(cmp.op);
      const PreparedCmpCell& lhs =
          cmp.lhs.is_var()
              ? cells_.Cmp(corpus, merged->cells[lhs_col], flipped, limits,
                           -cmp.rhs_offset, &lhs_scratch)
              : consts.lhs_flipped;
      bool partial = false;
      Cell narrowed = NarrowCellByPrepared(corpus, merged->cells[rhs_col],
                                           flipped, lhs, limits, &partial);
      if (narrowed.assignments.empty()) return false;
      merged->cells[rhs_col] = std::move(narrowed);
      maybe = maybe || partial;
    }
    merged->maybe = maybe;
    return true;
  }

  static CmpOp FlipOp(CmpOp op) {
    switch (op) {
      case CmpOp::kLt:
        return CmpOp::kGt;
      case CmpOp::kLe:
        return CmpOp::kGe;
      case CmpOp::kGt:
        return CmpOp::kLt;
      case CmpOp::kGe:
        return CmpOp::kLe;
      case CmpOp::kEq:
      case CmpOp::kNe:
        return op;
    }
    return op;
  }

  Cell CellForTerm(const Term& t, const CompactTuple& b) const {
    if (t.is_var()) return b.cells[columns_.at(t.var)];
    return ConstantCell(t);
  }

  Status ApplyPPredicate(const Atom& atom) {
    obs::CostScope cost(cost_model_, scope_, "ppred", options_.cost_iteration);
    const Corpus& corpus = catalog_.corpus();
    IFLEX_ASSIGN_OR_RETURN(const PPredicateFn* fn,
                           catalog_.PPredicate(atom.predicate));
    size_t n_inputs = *catalog_.InputArityOf(atom.predicate);

    struct OutCol {
      size_t arg_idx;
      std::string var;
    };
    std::vector<OutCol> new_cols;
    for (size_t i = n_inputs; i < atom.args.size(); ++i) {
      const Term& t = atom.args[i];
      if (t.is_var() && !Bound(t.var)) {
        bool dup = false;
        for (const auto& nc : new_cols) dup = dup || nc.var == t.var;
        if (!dup) new_cols.push_back(OutCol{i, t.var});
      }
    }

    std::vector<std::string> schema = binding_.schema();
    for (const auto& nc : new_cols) schema.push_back(nc.var);
    CompactTable out(std::move(schema));

    for (const CompactTuple& b : binding_.tuples()) {
      if (budget_exhausted_) break;
      IFLEX_RETURN_NOT_OK(stop_.Poll("Execute"));
      // Enumerate the possible input tuples (paper §4.1), capped. An
      // expansion cell expands into *certain* separate tuples; only a
      // plain multi-value cell (one tuple, uncertain value) makes the
      // outputs maybe. Overflowing the enumeration cap is a hard error by
      // default; best-effort mode drops just this tuple and records the
      // truncation, so the rest of the binding table still contributes.
      std::vector<std::vector<Value>> in_values(n_inputs);
      size_t combos = 1;
      bool uncertain_multi = false;
      bool drop_tuple = false;
      for (size_t i = 0; i < n_inputs && !drop_tuple; ++i) {
        Cell c = CellForTerm(atom.args[i], b);
        if (!c.EnumerateValues(corpus, options_.limits.max_ppred_combos,
                               &in_values[i])) {
          if (options_.best_effort) {
            report_->AddTruncation(StringPrintf(
                "p-predicate %s: input enumeration capped; tuple dropped",
                atom.predicate.c_str()));
            drop_tuple = true;
            break;
          }
          return Status::ExecutionError(StringPrintf(
              "p-predicate %s: too many possible input values; add "
              "constraints first",
              atom.predicate.c_str()));
        }
        if (!c.is_expansion && in_values[i].size() > 1) {
          uncertain_multi = true;
        }
        combos *= std::max<size_t>(1, in_values[i].size());
        if (combos > options_.limits.max_ppred_combos) {
          if (options_.best_effort) {
            report_->AddTruncation(StringPrintf(
                "p-predicate %s: input combinations capped; tuple dropped",
                atom.predicate.c_str()));
            drop_tuple = true;
            break;
          }
          return Status::ExecutionError(StringPrintf(
              "p-predicate %s: more than %zu input combinations",
              atom.predicate.c_str(), options_.limits.max_ppred_combos));
        }
        if (in_values[i].empty()) combos = 0;
      }
      if (drop_tuple || combos == 0) continue;
      bool multi = uncertain_multi;

      std::vector<size_t> idx(n_inputs, 0);
      while (true) {
        std::vector<Value> args;
        args.reserve(n_inputs);
        for (size_t i = 0; i < n_inputs; ++i) {
          args.push_back(in_values[i][idx[i]]);
        }
        ++stats_.ppred_invocations;
        Result<std::vector<std::vector<Value>>> rows = (*fn)(corpus, args);
        if (!rows.ok()) return rows.status();
        for (const auto& row : *rows) {
          if (row.size() != atom.args.size() - n_inputs) {
            return Status::ExecutionError(
                "p-predicate returned a row of wrong arity: " +
                atom.predicate);
          }
          bool dead = false;
          bool some = false;
          for (size_t i = n_inputs; i < atom.args.size(); ++i) {
            const Term& t = atom.args[i];
            bool is_new = false;
            for (const auto& nc : new_cols) is_new = is_new || nc.arg_idx == i;
            if (is_new) continue;
            Cell lhs = Cell::Exact(row[i - n_inputs]);
            Cell rhs = CellForTerm(t, b);
            SatResult r = CellsEqual(corpus, lhs, rhs, options_.limits);
            if (r == SatResult::kNone) {
              dead = true;
              break;
            }
            if (r == SatResult::kSome) some = true;
          }
          if (!dead) {
            CompactTuple merged = b;
            // Pin the input cells to this concrete combination to keep the
            // input/output correlation.
            for (size_t i = 0; i < n_inputs; ++i) {
              if (atom.args[i].is_var()) {
                merged.cells[columns_.at(atom.args[i].var)] =
                    Cell::Exact(args[i]);
              }
            }
            for (const auto& nc : new_cols) {
              merged.cells.push_back(Cell::Exact(row[nc.arg_idx - n_inputs]));
            }
            merged.maybe = b.maybe || multi || some;
            out.Add(std::move(merged));
          }
        }
        size_t k = 0;
        for (; k < n_inputs; ++k) {
          if (++idx[k] < in_values[k].size()) break;
          idx[k] = 0;
        }
        if (k == n_inputs) break;
      }
      if (out.size() > options_.max_table_tuples) {
        IFLEX_RETURN_NOT_OK(OverBudget(&out, "p-predicate output"));
      }
    }
    for (const auto& nc : new_cols) columns_.emplace(nc.var, columns_.size());
    binding_ = std::move(out);
    if (cost.active()) cost.cost()->rows = binding_.size();
    return Status::OK();
  }

  Result<CompactTable> Project(const RuleHead& head) {
    obs::CostScope cost(cost_model_, scope_, "project",
                        options_.cost_iteration);
    CompactTable out(
        std::vector<std::string>(head.args.begin(), head.args.end()));
    std::vector<size_t> cols;
    for (const std::string& var : head.args) {
      auto it = columns_.find(var);
      if (it == columns_.end()) {
        return Status::Internal("unbound head variable " + var);
      }
      cols.push_back(it->second);
    }
    // The binding dies here, so each cell moves out on its column's last
    // use in the head; a column the head names twice is copied first.
    std::vector<bool> last_use(cols.size());
    for (size_t i = 0; i < cols.size(); ++i) {
      last_use[i] = std::find(cols.begin() + static_cast<ptrdiff_t>(i) + 1,
                              cols.end(), cols[i]) == cols.end();
    }
    // Deduplicate tuples whose cells are all single exact assignments
    // (multiset -> set is world-preserving); prefer the non-maybe copy.
    std::unordered_map<std::string, size_t> seen;
    for (CompactTuple& b : binding_.tuples()) {
      CompactTuple t;
      t.maybe = b.maybe;
      t.cells.reserve(cols.size());
      bool all_exact = true;
      std::string key;
      for (size_t i = 0; i < cols.size(); ++i) {
        if (last_use[i]) {
          t.cells.push_back(std::move(b.cells[cols[i]]));
        } else {
          t.cells.push_back(b.cells[cols[i]]);
        }
        const Cell& cell = t.cells.back();
        if (cell.is_expansion || cell.assignments.size() != 1 ||
            !cell.assignments[0].is_exact()) {
          all_exact = false;
        } else {
          auto n = cell.assignments[0].value.AsNumber();
          if (n.has_value() &&
              cell.assignments[0].value.kind() != Value::Kind::kDoc) {
            key += StringPrintf("#%.17g|", *n);
          } else {
            key += cell.assignments[0].value.ToString() + "|";
          }
        }
      }
      if (all_exact) {
        auto it = seen.find(key);
        if (it != seen.end()) {
          if (!t.maybe) out.tuples()[it->second].maybe = false;
          continue;
        }
        seen.emplace(std::move(key), out.size());
      }
      out.Add(std::move(t));
    }
    stats_.tuples_emitted += out.size();
    if (cost.active()) cost.cost()->rows = out.size();
    return out;
  }

  const Catalog& catalog_;
  const ExecOptions& options_;
  const std::unordered_map<std::string, PredicateTable>* idb_;
  obs::Tracer* tracer_;
  resilience::ExecReport* report_;
  // The ReuseCache's prepared cells; null when the Execute has no cache.
  PreparedCellStore* store_;
  ExecStats stats_;
  CellPreparer cells_;
  obs::CostModel* cost_model_;
  obs::EventLog* event_log_;
  // Attribution scope: the head predicate of the rule being evaluated.
  // Shard sub-evaluators inherit it so shards charge the same rule.
  std::string scope_;
  resilience::StopPoller stop_;

  CompactTable binding_;
  std::unordered_map<std::string, size_t> columns_;
  // Latched by OverBudget in best-effort mode: once an output table hit
  // the cap, enumeration loops stop adding to it.
  bool budget_exhausted_ = false;
};

// Dependency-ordered list of intensional predicates needed for the query.
Result<std::vector<std::string>> TopoOrder(
    const std::unordered_map<std::string, std::vector<const Rule*>>& by_head,
    const std::string& query) {
  std::vector<std::string> order;
  std::unordered_set<std::string> done;
  std::unordered_set<std::string> visiting;

  struct Visitor {
    const std::unordered_map<std::string, std::vector<const Rule*>>& by_head;
    std::vector<std::string>& order;
    std::unordered_set<std::string>& done;
    std::unordered_set<std::string>& visiting;

    Status Visit(const std::string& pred) {
      if (done.count(pred)) return Status::OK();
      if (visiting.count(pred)) {
        return Status::InvalidArgument("recursive predicate: " + pred);
      }
      visiting.insert(pred);
      auto it = by_head.find(pred);
      if (it != by_head.end()) {
        for (const Rule* r : it->second) {
          for (const Literal& lit : r->body) {
            if (lit.kind != Literal::Kind::kAtom) continue;
            if (by_head.count(lit.atom.predicate) &&
                lit.atom.predicate != pred) {
              IFLEX_RETURN_NOT_OK(Visit(lit.atom.predicate));
            } else if (lit.atom.predicate == pred) {
              return Status::InvalidArgument("recursive predicate: " + pred);
            }
          }
        }
      }
      visiting.erase(pred);
      done.insert(pred);
      order.push_back(pred);
      return Status::OK();
    }
  };
  Visitor v{by_head, order, done, visiting};
  IFLEX_RETURN_NOT_OK(v.Visit(query));
  return order;
}

// The reuse key of the table `rules` compute for `pred` (docs/PERFORMANCE.md,
// "Content-keyed reuse"): their text and the digest of every intensional
// table they read, which `idb` holds for each predicate this Execute has
// computed so far. Inputs come first in topological order, so every input
// is there. The one key format both for a predicate's own rules and for
// the stripped rules narrowing looks up.
uint64_t ContentKey(
    const std::string& pred, const std::vector<const Rule*>& rules,
    const std::unordered_map<std::string, PredicateTable>& idb) {
  std::string blob = "pred:" + pred + "\n";
  for (const Rule* r : rules) {
    blob += r->ToString() + "\n";
    for (const Literal& lit : r->body) {
      if (lit.kind != Literal::Kind::kAtom) continue;
      auto it = idb.find(lit.atom.predicate);
      if (it == idb.end()) continue;
      blob += StringPrintf("in:%016llx\n",
                           static_cast<unsigned long long>(it->second.digest));
    }
  }
  return Fingerprint64(blob);
}

// How many constraint literals end `rule`'s body when the rule is
// narrowable (docs/PERFORMANCE.md, "Narrowing reuse"), nullopt when it is
// not. A narrowable body is one stored or intensional atom, then from()
// atoms and constraint literals, with the constraints a contiguous suffix
// on variables no from() reads. Its plan is the seed join followed by
// from() and constraint-chain ops that each read and write one variable,
// so ops on different variables commute.
std::optional<size_t> NarrowableSuffix(const Catalog& catalog,
                                       const Rule& rule) {
  const std::vector<Literal>& body = rule.body;
  auto kind_of = [&](const Atom& atom) {
    auto kind = catalog.KindOf(atom.predicate);
    return kind.ok() ? *kind : PredicateKind::kIntensional;
  };
  if (body.empty() || body[0].kind != Literal::Kind::kAtom) {
    return std::nullopt;
  }
  const PredicateKind seed = kind_of(body[0].atom);
  if (seed != PredicateKind::kExtensional &&
      seed != PredicateKind::kIntensional) {
    return std::nullopt;
  }
  std::unordered_set<std::string> from_inputs;
  size_t i = 1;
  for (; i < body.size() && body[i].kind == Literal::Kind::kAtom; ++i) {
    const Atom& a = body[i].atom;
    if (kind_of(a) != PredicateKind::kBuiltinFrom || a.args.size() != 2 ||
        !a.args[0].is_var()) {
      return std::nullopt;
    }
    from_inputs.insert(a.args[0].var);
  }
  for (size_t j = i; j < body.size(); ++j) {
    if (body[j].kind != Literal::Kind::kConstraint ||
        from_inputs.count(body[j].constraint.var) > 0) {
      return std::nullopt;
    }
  }
  return body.size() - i;
}

// Where a narrowing starts: the cached binding of the rule without its
// last `steps` constraint literals.
struct NarrowingBase {
  SharedBinding binding;
  size_t steps = 0;
  // Keys of the rules the narrowing passes through, in the order it
  // reaches them: the rule without its last steps - 1 constraints, then
  // steps - 2, down to 1.
  std::vector<uint64_t> passed;
};

// Strips the `suffix` constraint literals ending `rule`'s body one at a
// time, from the end, and returns the first stripped rule whose binding
// `cache` holds; nullopt when none does, or when that binding lacks the
// column of a stripped constraint (a seed-join column only the constraint
// reads is not kept in it).
std::optional<NarrowingBase> FindNarrowingBase(
    const std::string& pred, const Rule& rule, size_t suffix,
    const std::unordered_map<std::string, PredicateTable>& idb,
    ReuseCache* cache) {
  NarrowingBase base;
  Rule stripped = rule;
  for (size_t steps = 1; steps <= suffix; ++steps) {
    stripped.body.pop_back();
    const uint64_t key = ContentKey(pred, {&stripped}, idb);
    base.binding = cache->LookupBinding(key);
    if (base.binding == nullptr) {
      base.passed.insert(base.passed.begin(), key);
      continue;
    }
    for (size_t i = rule.body.size() - steps; i < rule.body.size(); ++i) {
      if (base.binding->columns.count(rule.body[i].constraint.var) == 0) {
        return std::nullopt;
      }
    }
    base.steps = steps;
    return base;
  }
  return std::nullopt;
}

// The counts of ExecStats and their metric names.
struct StatField {
  const char* name;
  size_t ExecStats::*field;
};
constexpr StatField kStatFields[] = {
    {"exec.rules_evaluated", &ExecStats::rules_evaluated},
    {"exec.rules_narrowed", &ExecStats::rules_narrowed},
    {"exec.tuples_emitted", &ExecStats::tuples_emitted},
    {"exec.join_pairs", &ExecStats::join_pairs},
    {"exec.constraint_cells", &ExecStats::constraint_cells},
    {"exec.ppred_invocations", &ExecStats::ppred_invocations},
    {"exec.cache_hits", &ExecStats::cache_hits},
    {"exec.cache_misses", &ExecStats::cache_misses},
    {"exec.cell_prep_hits", &ExecStats::cell_prep_hits},
    {"exec.cell_prep_misses", &ExecStats::cell_prep_misses},
    {"resilience.deadline_exceeded", &ExecStats::deadline_exceeded},
    {"resilience.cancelled", &ExecStats::cancelled},
    {"resilience.degraded_runs", &ExecStats::degraded_runs},
    {"resilience.docs_failed", &ExecStats::docs_failed},
    {"resilience.inputs_failed", &ExecStats::inputs_failed},
    {"resilience.rules_skipped", &ExecStats::rules_skipped},
    {"resilience.truncations", &ExecStats::truncations},
};

}  // namespace

void ExecStats::Add(const ExecStats& other) {
  for (const StatField& f : kStatFields) this->*f.field += other.*f.field;
}

void ExecStats::Publish(obs::MetricRegistry* registry,
                        std::string_view prefix) const {
  std::string name(prefix);
  for (const StatField& f : kStatFields) {
    const size_t n = this->*f.field;
    if (n == 0 && std::string_view(f.name).starts_with("resilience.")) {
      continue;
    }
    name.resize(prefix.size());
    name += f.name;
    registry->counter(name)->Add(n);
  }
}

Executor::Executor(const Catalog& catalog, ExecOptions options)
    : catalog_(catalog),
      options_(options),
      tracer_(obs::TracerOrDefault(options.tracer)),
      cost_model_(obs::CostModelOrDefault(options.cost_model)),
      event_log_(obs::EventLogOrDefault(options.event_log)) {
  if (options_.verify_memo == nullptr) {
    // No session-scoped memo supplied: a private one still pays off
    // within one Execute (history re-checks) and across Executes of this
    // executor.
    owned_verify_memo_ = std::make_unique<VerifyMemo>();
    options_.verify_memo = owned_verify_memo_.get();
  }
  report_ = options_.report != nullptr ? options_.report : &owned_report_;
}

Result<CompactTable> Executor::Execute(const Program& program) {
  return Execute(program, nullptr);
}

Result<CompactTable> Executor::Execute(const Program& program,
                                       ReuseCache* cache) {
  report_->Clear();
  stats_ = ExecStats();
  if (event_log_->ShouldLog(obs::LogLevel::kInfo)) {
    event_log_->Info("exec",
                     StringPrintf("execute begin: query=%s",
                                  program.query().c_str()));
  }
  // Baselines for the execute-level "caches" charge and the fail-point
  // trip detector: deltas across this Execute, not process totals.
  const bool profiling = cost_model_->enabled();
  const uint64_t span_start_ns = obs::Tracer::NowNs();
  const uint64_t memo_hits_before = options_.verify_memo->hits();
  const uint64_t arena_before = catalog_.corpus().interner().arena_bytes();
  std::vector<std::pair<std::string, uint64_t>> failpoint_hits_before;
  if (resilience::FailPoints::Active()) {
    for (std::string& site : resilience::FailPoints::Instance().ArmedSites()) {
      uint64_t hits = resilience::FailPoints::Instance().HitCount(site);
      failpoint_hits_before.emplace_back(std::move(site), hits);
    }
  }
  Result<CompactTable> result = [&]() -> Result<CompactTable> {
    try {
      return ExecuteInternal(program, cache);
    } catch (const std::exception& e) {
      // Worker exceptions that escape the join-level traps (or a throw on
      // the calling thread itself) degrade to a clean error, never a
      // process abort.
      return Status::Internal(std::string("uncaught worker exception: ") +
                              e.what());
    }
  }();
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      stats_.deadline_exceeded = 1;
    } else if (result.status().code() == StatusCode::kCancelled) {
      stats_.cancelled = 1;
    }
  }
  if (report_->degraded) {
    stats_.degraded_runs = 1;
    stats_.docs_failed = report_->failed_docs.size();
    stats_.inputs_failed = report_->failed_inputs;
    stats_.rules_skipped = report_->skipped_rules.size();
    stats_.truncations = report_->truncations.size();
  }
  if (options_.metrics != nullptr) stats_.Publish(options_.metrics);
  const uint64_t span_ns = obs::Tracer::NowNs() - span_start_ns;
  if (profiling) {
    cost_model_->AddSpan(span_ns);
    // Execute-level charge for the session-shared caches: memo hits and
    // interner growth are not observable per operator (the memo is shared
    // and hits happen deep inside cell ops), so their deltas land on one
    // row per Execute. wall_ns stays 0 — the leaf operators already
    // account for this time, and the coverage ratio must not double-count.
    obs::Cost caches;
    caches.count = 1;
    caches.memo_hits = options_.verify_memo->hits() - memo_hits_before;
    caches.arena_bytes =
        catalog_.corpus().interner().arena_bytes() - arena_before;
    cost_model_->Charge(
        obs::CostKey{program.query(), "caches", options_.cost_iteration},
        caches);
    report_->explain = cost_model_->Report().ToText();
  }
  if (event_log_->ShouldLog(obs::LogLevel::kInfo)) {
    event_log_->Info(
        "exec",
        StringPrintf("execute end: query=%s status=%s report=%s wall_ms=%.3f",
                     program.query().c_str(),
                     result.ok() ? "ok" : result.status().message().c_str(),
                     report_->ToString().c_str(),
                     static_cast<double>(span_ns) / 1e6));
  }
  // Flight recorder: a run that ended degraded, hit its deadline, was
  // cancelled, or tripped a fail point dumps the event-log tail into the
  // report so the context survives for post-mortems.
  const bool stopped =
      !result.ok() &&
      (result.status().code() == StatusCode::kDeadlineExceeded ||
       result.status().code() == StatusCode::kCancelled);
  bool failpoint_tripped = false;
  for (const auto& [site, before] : failpoint_hits_before) {
    if (resilience::FailPoints::Instance().HitCount(site) > before) {
      failpoint_tripped = true;
      break;
    }
  }
  if (report_->degraded || stopped || failpoint_tripped) {
    event_log_->Warn(
        "exec",
        StringPrintf("dumping flight recorder: degraded=%d stopped=%d "
                     "failpoint=%d",
                     report_->degraded ? 1 : 0, stopped ? 1 : 0,
                     failpoint_tripped ? 1 : 0));
    report_->flight_recorder = event_log_->FormatRecent();
  }
  return result;
}

Result<CompactTable> Executor::ExecuteInternal(const Program& program,
                                               ReuseCache* cache) {
  obs::TraceSpan exec_span(tracer_, "exec.execute", program.query());

  Result<Program> unfolded_or = [&] {
    obs::CostScope cost(cost_model_, program.query(), "unfold",
                        options_.cost_iteration);
    return program.Unfold(catalog_);
  }();
  IFLEX_RETURN_NOT_OK(unfolded_or.status());
  const Program& unfolded = *unfolded_or;
  std::unordered_map<std::string, std::vector<const Rule*>> by_head;
  for (const Rule& r : unfolded.rules()) {
    by_head[r.head.predicate].push_back(&r);
  }
  const std::string& query = unfolded.query();
  if (!by_head.count(query)) {
    return Status::InvalidArgument("no rule defines the query predicate " +
                                   query);
  }
  IFLEX_ASSIGN_OR_RETURN(std::vector<std::string> order,
                         TopoOrder(by_head, query));

  // Every intensional table computed so far, with its digest and sizes;
  // shared with the reuse cache: a hit or an insert copies no table.
  std::unordered_map<std::string, PredicateTable> idb;
  PreparedCellStore* store = cache != nullptr ? &cache->cells() : nullptr;
  // Predicates computed by this Execute from trapped faults, directly or
  // from such a predicate's table.
  std::unordered_set<std::string> degraded;
  for (const std::string& pred : order) {
    obs::TraceSpan pred_span(tracer_, "exec.predicate", pred);
    resilience::StopPoller stop(options_.deadline, options_.cancel);
    IFLEX_RETURN_NOT_OK(stop.Check("Execute"));
    const std::vector<const Rule*>& rules = by_head[pred];
    // With a cache: the predicate's content key, a table lookup, and on a
    // miss, for a narrowable rule (the only one of its predicate), the
    // cached binding of the rule without its newest constraints, to which
    // only those are applied (docs/PERFORMANCE.md, "Narrowing reuse").
    uint64_t key = 0;
    std::optional<size_t> suffix;
    std::optional<NarrowingBase> base;
    if (cache != nullptr) {
      obs::CostScope cost(cost_model_, pred, "key", options_.cost_iteration);
      key = ContentKey(pred, rules, idb);
      PredicateTable hit = cache->Lookup(key);
      if (hit.table != nullptr) {
        ++stats_.cache_hits;
        idb.emplace(pred, std::move(hit));
        continue;
      }
      ++stats_.cache_misses;
      if (rules.size() == 1) suffix = NarrowableSuffix(catalog_, *rules[0]);
      if (suffix.has_value()) {
        base = FindNarrowingBase(pred, *rules[0], *suffix, idb, cache);
      }
    }
    SharedBinding kept;
    std::vector<SharedBinding> intermediates;
    // This predicate's own report: only its events decide whether the
    // table is clean. It joins the Execute's report when the predicate
    // ends, on either exit below.
    resilience::ExecReport pred_report;
    // The rules run in order on this thread: a rule's morsels are the only
    // fan-out inside an Execute (docs/RUNTIME.md), so the result and the
    // error returned (the first failure in rule order) do not depend on
    // the thread count.
    CompactTable result;
    bool first = true;
    for (const Rule* rule : rules) {
      RuleEvaluator eval(catalog_, options_, &idb, tracer_, &pred_report,
                         store);
      Result<CompactTable> part =
          base.has_value()
              ? eval.Narrow(*rule, *base->binding, base->steps,
                            &intermediates)
              : eval.Evaluate(*rule, suffix.has_value() ? &kept : nullptr);
      stats_.Add(eval.stats());
      // Per-rule fault isolation: under best_effort a failing rule is
      // skipped and recorded — its siblings' tuples still answer the
      // query (superset semantics over the surviving rules). Stop codes
      // always propagate.
      if (!part.ok()) {
        if (!options_.best_effort || part.status().IsStop()) {
          report_->Merge(pred_report);
          return part.status();
        }
        pred_report.AddSkippedRule(pred + ": " + part.status().ToString());
        if (event_log_->ShouldLog(obs::LogLevel::kWarn)) {
          event_log_->Warn("exec.rule",
                           StringPrintf("rule for %s skipped: %s",
                                        pred.c_str(),
                                        part.status().ToString().c_str()));
        }
      } else if (first) {
        result = std::move(*part);
        first = false;
      } else {
        for (CompactTuple& tup : part->tuples()) result.Add(std::move(tup));
      }
    }
    report_->Merge(pred_report);
    if (first) {
      // Every rule of this predicate was skipped: degrade to an empty
      // table with the head schema so downstream joins stay well-formed.
      result = CompactTable(std::vector<std::string>(
          rules.front()->head.args.begin(), rules.front()->head.args.end()));
    }
    // A table assembled with faults trapped, or from such a table, is
    // incomplete for *this* run only — caching it, or the binding it came
    // from, would silently degrade future fault-free iterations, so
    // degraded predicates never enter the cache.
    bool clean = pred_report.empty();
    for (const Rule* rule : rules) {
      for (const Literal& lit : rule->body) {
        clean = clean && (lit.kind != Literal::Kind::kAtom ||
                          degraded.count(lit.atom.predicate) == 0);
      }
    }
    if (!clean) degraded.insert(pred);
    // The table's process sizes, and with a cache its digest, once.
    PredicateTable built;
    {
      obs::CostScope cost(cost_model_, pred, "digest",
                          options_.cost_iteration);
      built.assignments = result.AssignmentCount();
      built.values = result.TotalValueCount(catalog_.corpus());
      if (cache != nullptr) built.digest = result.Digest();
      built.table = std::make_shared<const CompactTable>(std::move(result));
    }
    if (cache != nullptr && clean) {
      cache->Insert(key, built, std::move(kept));
      // A narrowing keeps no binding of its own: in a session that would
      // be one per simulated answer. The rules it passed through are kept,
      // since later narrowings start from them.
      for (size_t i = 0; i < intermediates.size(); ++i) {
        cache->Insert(base->passed[i], {}, std::move(intermediates[i]));
      }
    }
    idb.emplace(pred, std::move(built));
  }
  last_idb_.clear();
  for (const auto& [pred, table] : idb) {
    stats_.process_assignments += table.assignments;
    stats_.process_values += table.values;
    last_idb_.emplace(pred, table.table);
  }
  return *idb.at(query).table;
}

double ResultSize(const CompactTable& table, const Corpus& corpus) {
  return table.ExpandedTupleCount(corpus);
}

}  // namespace iflex
