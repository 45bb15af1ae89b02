#ifndef IFLEX_EXEC_CELL_OPS_H_
#define IFLEX_EXEC_CELL_OPS_H_

#include <span>
#include <string_view>
#include <vector>

#include "alog/ast.h"
#include "common/result.h"
#include "ctable/compact_table.h"
#include "exec/verify_memo.h"
#include "features/registry.h"

namespace iflex {

/// Tri-state outcome of evaluating a condition over the possible values of
/// compact cells (paper §4.1): no possible tuple satisfies it, some do, or
/// all do.
enum class SatResult : uint8_t { kNone, kSome, kAll };

/// Execution caps; hitting a cap degrades to the sound direction (keep the
/// tuple, mark it maybe) rather than failing.
struct CellOpLimits {
  /// Max values enumerated from one cell when checking a condition.
  size_t max_cell_enum = 20000;
  /// Max input-value combinations when invoking a p-predicate per tuple.
  size_t max_ppred_combos = 4096;
  /// Max value combinations tested per tuple for a p-*function* filter
  /// (similar(), ...). Overflow keeps the tuple as maybe — sound, and it
  /// bounds join costs while cells are still wide (unrefined cells over a
  /// whole record exceed it; cells refined by a constraint or two fall
  /// under it, so simulation sees real selectivity).
  size_t max_filter_combos = 1024;
};

/// A constraint with its feature procedure resolved and its memo key base
/// interned up front, so applying it to a cell pays no registry or
/// interner lookups. ApplyConstraintToCell prepares per call; the rule
/// compiler prepares once per rule evaluation and reuses the prepared
/// form for every tuple (docs/PERFORMANCE.md, "Rule compilation").
struct PreparedConstraint {
  ConstraintLit lit;
  const Feature* feature = nullptr;
  /// Constraint-invariant part of the VerifyMemo key (feature, value,
  /// param); only meaningful when base_usable.
  VerifyMemo::Key base_key;
  /// False when memoization was not requested or the interner refused a
  /// component (keys must never collide, so such constraints simply go
  /// unmemoized).
  bool base_usable = false;
};

/// Resolves `k` against the registry and (when `want_memo`) interns its
/// memo key base. NotFound when the feature does not exist.
Result<PreparedConstraint> PrepareConstraint(const Corpus& corpus,
                                             const FeatureRegistry& features,
                                             const ConstraintLit& k,
                                             bool want_memo);

/// ApplyConstraintToCell over pre-resolved state: identical narrowing,
/// identical memo lookups, no per-call feature/interner work. `history`
/// holds the previously applied constraints for the same attribute in
/// application order (paper §4.2 re-check).
Cell ApplyPreparedConstraintToCell(
    const Corpus& corpus, const PreparedConstraint& k,
    const std::vector<PreparedConstraint>& history, const Cell& cell,
    VerifyMemo* memo);

/// Most values a cell may encode and still take part in a
/// token-similarity join's inverted index: a join indexes its table only
/// when every join-column cell is within this bound, and a probe cell
/// reads the index only when it is.
inline constexpr size_t kSimIndexMaxValues = 512;

/// A cell prepared for a token-similarity predicate (similar(),
/// approx_match(); see Catalog::MarkTokenSimilarity): its value count and
/// the token-id sets of its values, computed once instead of once per
/// pair. A join prepares each table cell once per rule evaluation and
/// each probe cell once (docs/PERFORMANCE.md, "Prepared similarity
/// join"); with a PreparedCellStore, once per session.
struct PreparedSimCell {
  /// |V(c)|, counted without enumerating.
  size_t values = 0;
  /// The distinct token-id sets of V(c), ordered by size and then by ids,
  /// stored flat: set i is set_ids[set_offsets[i], set_offsets[i + 1]).
  /// Filled only when `values` is at most max(kSimIndexMaxValues,
  /// min(max_cell_enum, max_filter_combos)): beyond that no pair is
  /// decided by token sets and no index reads them.
  std::vector<ValueId> set_ids;
  std::vector<size_t> set_offsets;  // token_set_count() + 1 when filled
  /// Sorted distinct token ids over V(c), and whether some value has no
  /// token ("&", "-"): what a join's inverted index reads. Filled only
  /// when `values` is at most kSimIndexMaxValues.
  std::vector<ValueId> tokens;
  bool tokenless = false;

  size_t token_set_count() const {
    return set_offsets.empty() ? 0 : set_offsets.size() - 1;
  }
  std::span<const ValueId> token_set(size_t i) const {
    return std::span<const ValueId>(set_ids).subspan(
        set_offsets[i], set_offsets[i + 1] - set_offsets[i]);
  }
};

/// Prepares `cell` for SimilarityVerdict and the join index under
/// `limits`. An exact value's set is TokensOf(text); a contain's
/// sub-span sets are unions of runs of its region's per-token sets, so the
/// corpus TokenCache sees each region token once and no sub-span text
/// (exact by Document::Tokenize's invariant).
PreparedSimCell PrepareSimCell(const Corpus& corpus, const Cell& cell,
                               const CellOpLimits& limits);

/// Tri-state `TokenIdJaccard >= threshold` over every value pair of two
/// prepared cells, with the caps of a p-function filter: kNone when either
/// cell encodes no value (or max_cell_enum is 0), kSome when either has
/// more than max_cell_enum values or their value product exceeds
/// max_filter_combos, else any/all over the token-set pairs, skipping the
/// pairs whose size ratio already rules the threshold out. Equal to
/// enumerating both cells and calling the registered p-function per pair.
SatResult SimilarityVerdict(const PreparedSimCell& a, const PreparedSimCell& b,
                            const CellOpLimits& limits, double threshold);

/// Applies the domain constraint `k` to `cell` (paper §4.2): exact
/// assignments go through Verify, contain assignments through Refine, and
/// every refined assignment is re-checked against the previously applied
/// constraints `history` for this attribute. Preserves the expansion flag.
/// With `memo` non-null (the session's VerifyMemo, shared by every
/// morsel), Verify/VerifyText verdicts are served from (and recorded
/// into) it instead of re-running the feature procedures.
Result<Cell> ApplyConstraintToCell(const Corpus& corpus,
                                   const FeatureRegistry& features,
                                   const Cell& cell, const ConstraintLit& k,
                                   const std::vector<ConstraintLit>& history,
                                   VerifyMemo* memo = nullptr);

/// A cell prepared for comparisons (docs/PERFORMANCE.md, "Prepared
/// cells"): its values, shifted by a comparison offset, counted by
/// CompareValues class, with the extremes of each class. Every pair of
/// classes compares one way: NULL satisfies only `NULL = NULL` and
/// `≠` against a non-NULL; a NaN, and a kNumber against a value without
/// a loose number, satisfy only `≠`; two values with numbers compare as
/// numbers; any other pair compares as text. So the extremes decide
/// every ordered operator, `≠` reads them too, and `=` searches the
/// sorted values.
struct PreparedCmpCell {
  /// |V(c)|. The fields below are filled only when it is at most
  /// max_cell_enum; a wider cell is decided by its count alone.
  size_t values = 0;
  size_t nulls = 0;
  size_t nans = 0;           // NaN numbers
  size_t numbers = 0;        // other kNumber values
  size_t numeric_texts = 0;  // other values with a loose number
  size_t texts = 0;          // values without one: spans, strings, docs, bools
  /// Extremes over numbers and numeric_texts.
  double num_min = 0;
  double num_max = 0;
  std::string_view numeric_text_min, numeric_text_max;
  std::string_view text_min, text_max;
  /// Built only when prepared for `=` or `≠`: every number of numbers and
  /// numeric_texts, and the distinct texts of `texts`, sorted. A numeric
  /// text never equals a text without a loose number (the class is a
  /// function of the text), so no other text needs searching.
  std::vector<double> sorted_numbers;
  std::vector<std::string_view> sorted_texts;
  /// Copies of the scalar values whose texts the views above read (span
  /// texts live in the corpus), so a stored form outlives its cell.
  std::vector<Value> pinned;
};

/// Prepares `cell` for `op` with `offset` added to every value, as the
/// right side of `lhs op (rhs + offset)`: numbers shift, anything else
/// becomes NULL.
PreparedCmpCell PrepareCmpCell(const Corpus& corpus, const Cell& cell,
                               CmpOp op, const CellOpLimits& limits,
                               double offset = 0);

/// CompareCells over prepared forms, both prepared for `op`: O(1) per
/// pair of classes for ordered operators and `≠`'s existence, a search of
/// the sorted values for `=` and `≠`'s universality.
SatResult ComparePrepared(const PreparedCmpCell& lhs, CmpOp op,
                          const PreparedCmpCell& rhs,
                          const CellOpLimits& limits);

/// NarrowCellByComparison against a prepared `other` (prepared for `op`):
/// each value of `cell` is decided in O(1), or by one search for `=`.
Cell NarrowCellByPrepared(const Corpus& corpus, const Cell& cell, CmpOp op,
                          const PreparedCmpCell& other,
                          const CellOpLimits& limits, bool* partial);

/// Evaluates `lhs op (rhs + rhs_offset)` over all possible value pairs of
/// two cells (either may be a 1-value "constant cell"). Overflowing the
/// enumeration cap yields kSome (sound: keep as maybe).
SatResult CompareCells(const Corpus& corpus, const Cell& lhs, CmpOp op,
                       const Cell& rhs, const CellOpLimits& limits,
                       double rhs_offset = 0);

/// Evaluates a single comparison between concrete values: numeric when
/// both sides are numeric, else textual; NULLs compare equal only to NULL.
bool CompareValues(const Value& lhs, CmpOp op, const Value& rhs);

/// Tri-state equality of two cells (join condition).
SatResult CellsEqual(const Corpus& corpus, const Cell& a, const Cell& b,
                     const CellOpLimits& limits);

/// Narrows `cell` to the assignments that can still equal some value of
/// `other`; used to filter expansion cells under join/selection
/// conditions. Sets `*partial` when a kept assignment also encodes
/// non-matching values (caller must mark the tuple maybe to stay a
/// superset). Returns an empty cell when nothing can match.
Cell NarrowCellByEquality(const Corpus& corpus, const Cell& cell,
                          const Cell& other, const CellOpLimits& limits,
                          bool* partial);

/// Narrows `cell` to assignments that can satisfy `op` against
/// `other + other_offset` (same contract as NarrowCellByEquality).
Cell NarrowCellByComparison(const Corpus& corpus, const Cell& cell, CmpOp op,
                            const Cell& other, const CellOpLimits& limits,
                            bool* partial, double other_offset = 0);

/// Builds a one-value constant cell from a term (number / string literal).
Cell ConstantCell(const Term& term);

}  // namespace iflex

#endif  // IFLEX_EXEC_CELL_OPS_H_
