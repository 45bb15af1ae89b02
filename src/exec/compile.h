#ifndef IFLEX_EXEC_COMPILE_H_
#define IFLEX_EXEC_COMPILE_H_

#include <optional>
#include <string>
#include <vector>

#include "alog/ast.h"
#include "alog/catalog.h"
#include "common/result.h"
#include "exec/cell_ops.h"

namespace iflex {

/// One step of a fused constraint chain: the prepared constraint plus the
/// prepared forms of the same-variable constraints applied earlier in the
/// rule (the paper's §4.2 re-check history), resolved once at compile
/// time instead of once per tuple per pass.
struct CompiledConstraintStep {
  PreparedConstraint k;
  std::vector<PreparedConstraint> history;
};

/// One filter of a columnar filter block, or one filter pushed down into
/// an unconnected join: a comparison or p-function literal with its
/// constant terms pre-built into one-value cells and the p-function
/// procedure pre-resolved, so evaluating it never touches the catalog or
/// re-parses terms.
struct CompiledFilter {
  enum class Kind : uint8_t { kComparison, kPFunction };
  Kind kind = Kind::kComparison;
  /// The source literal; irregular rows and join pairs take the exact
  /// per-tuple evaluation of it.
  Literal lit;
  /// Resolved procedure for kPFunction (owned by the catalog).
  const PFunctionFn* fn = nullptr;
  /// Constant cells parallel to the literal's term positions (lhs/rhs for
  /// a comparison, the argument list for a p-function); entries for
  /// variable terms are left empty.
  std::vector<Cell> const_cells;
};

/// A filter pushed down into a join that compares a *probe* — a variable
/// bound before the join — with a variable the join binds. Its table side,
/// that variable's column prepared for every tuple, depends only on the
/// table, so the rule's evaluator builds it before the join's morsels
/// start (docs/PERFORMANCE.md, "Prepared similarity join").
struct JoinSideFilter {
  size_t filter = 0;          // index into CompiledOp::filters
  std::string probe;          // the probe variable
  size_t table_col = 0;       // the joined variable's first argument position
  bool probe_is_lhs = false;  // the probe is the filter's first term
  /// A similarity filter's threshold (Catalog::TokenSimilarityThreshold).
  double threshold = 0;
};

/// A flat operator of a compiled rule plan.
struct CompiledOp {
  enum class Kind : uint8_t {
    kJoin,             // stored/intensional join (atom, pushed filters)
    kFrom,             // the built-in from(x, y) span extractor (atom)
    kPPredicate,       // procedural predicate (atom)
    kConstraintChain,  // fused run of consecutive constraints (chain)
    kFilterBlock,      // columnar run of consecutive filters (filters)
  };
  Kind kind = Kind::kJoin;
  Atom atom;
  std::vector<CompiledConstraintStep> chain;
  /// kFilterBlock: the block's filters. kJoin: the comparisons and
  /// p-functions that become evaluable exactly at this join, in body
  /// order — non-empty only for an unconnected join, where they decide
  /// each candidate pair so the cross product never materializes.
  std::vector<CompiledFilter> filters;
  /// kJoin: the atom has a constant, a variable bound before the join or a
  /// repeated variable, so every pair is tested for equality and a
  /// similarity join does not block on its token index.
  bool keyed = false;
  /// kJoin: the first token-similarity filter between a probe and a
  /// variable the join binds, when no p-function filter comes before it.
  /// Each probe's verdict row decides it from prepared cells before the
  /// pair's other filters and, when the join may block, picks the pairs
  /// from a token index.
  std::optional<JoinSideFilter> sim;
  /// kJoin: every comparison filter between a probe and a variable the
  /// join binds, in body order, decided from prepared comparison cells.
  std::vector<JoinSideFilter> cmps;
  /// kJoin: the variables bound after the join that a later op or the
  /// rule head mentions, sorted. The join's output keeps only their
  /// columns, since nothing after it reads the others (docs/PERFORMANCE.md,
  /// "Copy-free table flow").
  std::vector<std::string> live;
};

/// A lowered rule body: the operator sequence chosen by the literal
/// selection policy (constraints as soon as their variable is bound, then
/// connected stored-table joins, from, p-predicates, comparisons,
/// p-functions, and unconnected joins last), with consecutive constraints
/// fused into chains, consecutive filters grouped into blocks, all name
/// resolution (features, memo key bases, p-functions, constants) hoisted
/// out of the per-tuple loops, and each join's live columns and prepared
/// table sides recorded. An empty body gives an empty plan.
struct CompiledRule {
  std::vector<CompiledOp> ops;
  /// True when ops[0] joins a stored/intensional table against the empty
  /// binding — the seed the morsel scheduler carves (docs/RUNTIME.md).
  bool seed_join = false;
};

/// Lowers one unfolded rule body into a compiled plan by simulating
/// literal selection over the bound-variable set. Fails with
/// Internal("no evaluable literal left in rule ...") when some literal
/// can never become evaluable. Malformed from() literals still compile:
/// the from operator raises their argument errors when it runs.
Result<CompiledRule> CompileRule(const Catalog& catalog, const Rule& rule);

}  // namespace iflex

#endif  // IFLEX_EXEC_COMPILE_H_
