#include "exec/compile.h"

#include <algorithm>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace iflex {

namespace {

// Priorities of the two filter kinds, and of a join that shares no
// variable with the binding: a cross product, so it runs last and carries
// the filters pushed down into it.
constexpr int kComparisonPriority = 4;
constexpr int kPFunctionPriority = 5;
constexpr int kUnconnectedJoinPriority = 6;

// The literal-selection policy: constraints as soon as their variable is
// bound, then connected stored-table joins, from, p-predicates,
// comparisons, p-functions, and unconnected joins last. Returns -1 when
// the literal is not yet evaluable under `bound`; lower values run
// earlier. `any_bound` is false only for the empty binding, where the
// first join is free.
template <typename BoundFn>
int LiteralPriority(const Catalog& catalog, const Literal& lit, bool any_bound,
                    BoundFn&& bound) {
  switch (lit.kind) {
    case Literal::Kind::kConstraint:
      return bound(lit.constraint.var) ? 0 : -1;
    case Literal::Kind::kComparison: {
      bool ok = (!lit.cmp.lhs.is_var() || bound(lit.cmp.lhs.var)) &&
                (!lit.cmp.rhs.is_var() || bound(lit.cmp.rhs.var));
      return ok ? kComparisonPriority : -1;
    }
    case Literal::Kind::kAtom: {
      const Atom& a = lit.atom;
      auto kind = catalog.KindOf(a.predicate);
      PredicateKind k = kind.ok() ? *kind : PredicateKind::kIntensional;
      size_t n_inputs = 0;
      if (k == PredicateKind::kPPredicate || k == PredicateKind::kBuiltinFrom) {
        n_inputs = *catalog.InputArityOf(a.predicate);
      } else if (k == PredicateKind::kPFunction) {
        n_inputs = a.args.size();
      }
      for (size_t i = 0; i < n_inputs; ++i) {
        if (a.args[i].is_var() && !bound(a.args[i].var)) return -1;
      }
      switch (k) {
        case PredicateKind::kExtensional:
        case PredicateKind::kIntensional: {
          if (!any_bound) return 1;  // first join is free
          for (const Term& t : a.args) {
            // Shared variable or constant: the join is connected.
            if (!t.is_var() || bound(t.var)) return 1;
          }
          return kUnconnectedJoinPriority;
        }
        case PredicateKind::kBuiltinFrom:
          return 2;
        case PredicateKind::kPPredicate:
          return 3;
        case PredicateKind::kPFunction:
          return kPFunctionPriority;
        default:
          return -1;  // IE predicates must have been unfolded away
      }
    }
  }
  return -1;
}

// Lowers a comparison or p-function literal into a filter.
Result<CompiledFilter> MakeFilter(const Catalog& catalog, Literal lit) {
  CompiledFilter f;
  if (lit.kind == Literal::Kind::kComparison) {
    f.kind = CompiledFilter::Kind::kComparison;
    f.const_cells.resize(2);
    if (!lit.cmp.lhs.is_var()) f.const_cells[0] = ConstantCell(lit.cmp.lhs);
    if (!lit.cmp.rhs.is_var()) f.const_cells[1] = ConstantCell(lit.cmp.rhs);
  } else {
    f.kind = CompiledFilter::Kind::kPFunction;
    IFLEX_ASSIGN_OR_RETURN(f.fn, catalog.PFunction(lit.atom.predicate));
    f.const_cells.resize(lit.atom.args.size());
    for (size_t i = 0; i < lit.atom.args.size(); ++i) {
      if (!lit.atom.args[i].is_var()) {
        f.const_cells[i] = ConstantCell(lit.atom.args[i]);
      }
    }
  }
  f.lit = std::move(lit);
  return f;
}

// Appends a filter to the plan's trailing filter block, opening a new
// block when the previous op is not one.
void AppendFilter(CompiledRule* plan, CompiledFilter f) {
  if (plan->ops.empty() ||
      plan->ops.back().kind != CompiledOp::Kind::kFilterBlock) {
    CompiledOp op;
    op.kind = CompiledOp::Kind::kFilterBlock;
    plan->ops.push_back(std::move(op));
  }
  plan->ops.back().filters.push_back(std::move(f));
}

// Records the pushed-down filters of a join whose table sides can be
// prepared before it runs (CompiledOp::sim, ::cmps): those between a probe
// and a variable the join binds. `new_cols` maps each variable the join
// binds to its table column; every other variable a pushed-down filter
// reads was bound before the join. Such a variable is also in the
// runtime binding: a variable a join's filters mention stays live at
// every earlier join. The similarity filter is named only when no
// p-function comes before it: the join decides it before a pair's other
// filters (a verdict row), and a p-function could fail on a pair whose
// verdict drops it.
void PlanJoinSides(const Catalog& catalog,
                   const std::unordered_map<std::string, size_t>& new_cols,
                   CompiledOp* op) {
  auto joined = [&](const Term& t) {
    return t.is_var() && new_cols.count(t.var) > 0;
  };
  auto probe = [&](const Term& t) {
    return t.is_var() && new_cols.count(t.var) == 0;
  };
  // Filter `fi` over terms a and b when one is a probe and the other a
  // joined variable; nullopt otherwise.
  auto side = [&](size_t fi, const Term& a,
                  const Term& b) -> std::optional<JoinSideFilter> {
    const bool probe_is_lhs = probe(a) && joined(b);
    if (!probe_is_lhs && !(probe(b) && joined(a))) return std::nullopt;
    JoinSideFilter s;
    s.filter = fi;
    s.probe = probe_is_lhs ? a.var : b.var;
    s.table_col = new_cols.at(probe_is_lhs ? b.var : a.var);
    s.probe_is_lhs = probe_is_lhs;
    return s;
  };
  bool pfunction_before = false;
  for (size_t fi = 0; fi < op->filters.size(); ++fi) {
    const Literal& lit = op->filters[fi].lit;
    if (lit.kind == Literal::Kind::kComparison) {
      if (auto s = side(fi, lit.cmp.lhs, lit.cmp.rhs)) {
        op->cmps.push_back(std::move(*s));
      }
      continue;
    }
    std::optional<double> threshold =
        catalog.TokenSimilarityThreshold(lit.atom.predicate);
    if (!op->sim.has_value() && !pfunction_before && threshold.has_value() &&
        lit.atom.args.size() == 2) {
      op->sim = side(fi, lit.atom.args[0], lit.atom.args[1]);
      if (op->sim.has_value()) op->sim->threshold = *threshold;
    }
    pfunction_before = true;
  }
}

// Adds every variable `op` mentions to `vars`: its atom's arguments, its
// chain's constrained variables and its filters' terms.
void AddMentions(const CompiledOp& op,
                 std::unordered_set<std::string>* vars) {
  auto add = [&](const Term& t) {
    if (t.is_var()) vars->insert(t.var);
  };
  for (const Term& t : op.atom.args) add(t);
  for (const CompiledConstraintStep& step : op.chain) {
    vars->insert(step.k.lit.var);
  }
  for (const CompiledFilter& f : op.filters) {
    if (f.kind == CompiledFilter::Kind::kComparison) {
      add(f.lit.cmp.lhs);
      add(f.lit.cmp.rhs);
    } else {
      for (const Term& t : f.lit.atom.args) add(t);
    }
  }
}

}  // namespace

Result<CompiledRule> CompileRule(const Catalog& catalog, const Rule& rule) {
  std::unordered_set<std::string> bound;
  auto is_bound = [&](const std::string& v) { return bound.count(v) > 0; };

  std::vector<Literal> pending = rule.body;
  // Per-variable constraint history in application order (paper §4.2
  // re-check).
  std::unordered_map<std::string, std::vector<PreparedConstraint>> history;
  CompiledRule plan;

  while (!pending.empty()) {
    size_t best = SIZE_MAX;
    int best_prio = INT_MAX;
    for (size_t i = 0; i < pending.size(); ++i) {
      int prio =
          LiteralPriority(catalog, pending[i], !bound.empty(), is_bound);
      if (prio >= 0 && prio < best_prio) {
        best_prio = prio;
        best = i;
      }
    }
    if (best == SIZE_MAX) {
      return Status::Internal("no evaluable literal left in rule " +
                              rule.ToString());
    }
    Literal lit = std::move(pending[best]);
    pending.erase(pending.begin() + static_cast<ptrdiff_t>(best));

    if (best_prio == kComparisonPriority || best_prio == kPFunctionPriority) {
      IFLEX_ASSIGN_OR_RETURN(CompiledFilter f,
                             MakeFilter(catalog, std::move(lit)));
      AppendFilter(&plan, std::move(f));
      continue;
    }
    if (lit.kind == Literal::Kind::kConstraint) {
      IFLEX_ASSIGN_OR_RETURN(
          PreparedConstraint pk,
          PrepareConstraint(catalog.corpus(), catalog.features(),
                            lit.constraint, /*want_memo=*/true));
      CompiledConstraintStep step;
      step.k = std::move(pk);
      step.history = history[lit.constraint.var];
      history[lit.constraint.var].push_back(step.k);
      if (plan.ops.empty() ||
          plan.ops.back().kind != CompiledOp::Kind::kConstraintChain) {
        CompiledOp op;
        op.kind = CompiledOp::Kind::kConstraintChain;
        plan.ops.push_back(std::move(op));
      }
      plan.ops.back().chain.push_back(std::move(step));
      continue;
    }

    CompiledOp op;
    op.atom = std::move(lit.atom);
    const Atom& a = op.atom;
    auto kind = catalog.KindOf(a.predicate);
    switch (kind.ok() ? *kind : PredicateKind::kIntensional) {
      case PredicateKind::kExtensional:
      case PredicateKind::kIntensional: {
        op.kind = CompiledOp::Kind::kJoin;
        // The table column of each variable the join binds: its first
        // argument position. Every other argument is tested per pair.
        std::unordered_map<std::string, size_t> new_cols;
        for (size_t i = 0; i < a.args.size(); ++i) {
          const Term& t = a.args[i];
          if (!t.is_var() || is_bound(t.var) ||
              !new_cols.emplace(t.var, i).second) {
            op.keyed = true;
          }
        }
        for (const auto& [var, col] : new_cols) bound.insert(var);
        // Every bound variable for now; the liveness pass below keeps the
        // ones read later.
        op.live.assign(bound.begin(), bound.end());
        std::sort(op.live.begin(), op.live.end());
        if (best_prio != kUnconnectedJoinPriority) break;
        // Push down every pending comparison or p-function that the join's
        // variables make evaluable, in body order. None was evaluable
        // before the join: filters outrank unconnected joins, so it would
        // have run already.
        for (size_t i = 0; i < pending.size();) {
          int prio = LiteralPriority(catalog, pending[i], /*any_bound=*/true,
                                     is_bound);
          if (prio != kComparisonPriority && prio != kPFunctionPriority) {
            ++i;
            continue;
          }
          IFLEX_ASSIGN_OR_RETURN(CompiledFilter f,
                                 MakeFilter(catalog, std::move(pending[i])));
          op.filters.push_back(std::move(f));
          pending.erase(pending.begin() + static_cast<ptrdiff_t>(i));
        }
        PlanJoinSides(catalog, new_cols, &op);
        break;
      }
      case PredicateKind::kBuiltinFrom:
        // A malformed from() literal still lowers: ApplyFrom raises its
        // argument error when the op runs.
        op.kind = CompiledOp::Kind::kFrom;
        if (a.args.size() == 2 && a.args[1].is_var()) {
          bound.insert(a.args[1].var);
        }
        break;
      case PredicateKind::kPPredicate: {
        op.kind = CompiledOp::Kind::kPPredicate;
        size_t n_inputs = *catalog.InputArityOf(a.predicate);
        for (size_t i = n_inputs; i < a.args.size(); ++i) {
          if (a.args[i].is_var()) bound.insert(a.args[i].var);
        }
        break;
      }
      default:
        return Status::Internal("unexpected IE predicate at execution: " +
                                a.predicate);
    }
    plan.ops.push_back(std::move(op));
  }
  // Liveness, back to front: a join keeps the variables that a later op
  // or the head mentions. Project reads only the head's columns, so a
  // column no later op mentions cannot change the rule's table.
  std::unordered_set<std::string> mentioned(rule.head.args.begin(),
                                            rule.head.args.end());
  for (size_t i = plan.ops.size(); i-- > 0;) {
    CompiledOp& op = plan.ops[i];
    if (op.kind == CompiledOp::Kind::kJoin) {
      std::erase_if(op.live, [&](const std::string& v) {
        return mentioned.count(v) == 0;
      });
    }
    AddMentions(op, &mentioned);
  }
  plan.seed_join =
      !plan.ops.empty() && plan.ops.front().kind == CompiledOp::Kind::kJoin;
  return plan;
}

}  // namespace iflex
