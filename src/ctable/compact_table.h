#ifndef IFLEX_CTABLE_COMPACT_TABLE_H_
#define IFLEX_CTABLE_COMPACT_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "ctable/value.h"
#include "text/corpus.h"

namespace iflex {

/// An assignment encodes a set of attribute values (paper §3):
/// exact(v) encodes exactly v (with an optional string->numeric cast);
/// contain(s) encodes s and every (token-aligned) sub-span of s.
struct Assignment {
  enum class Kind : uint8_t { kExact, kContain };

  Kind kind = Kind::kExact;
  Value value;  // kExact payload
  Span span;    // kContain payload

  static Assignment Exact(Value v) {
    Assignment a;
    a.kind = Kind::kExact;
    a.value = std::move(v);
    return a;
  }
  static Assignment Contain(Span s) {
    Assignment a;
    a.kind = Kind::kContain;
    a.span = s;
    return a;
  }

  bool is_exact() const { return kind == Kind::kExact; }
  bool is_contain() const { return kind == Kind::kContain; }

  /// |V(m(s))| — 1 for exact, the number of token-aligned sub-spans for
  /// contain.
  size_t ValueCount(const Corpus& corpus) const;

  /// Appends V(m(s)) to `out`, stopping at `max_values` total size of
  /// `out`. Returns false when truncated.
  bool EnumerateValues(const Corpus& corpus, size_t max_values,
                       std::vector<Value>* out) const;

  std::string ToString(const Corpus* corpus = nullptr) const;
};

/// A cell: a multiset of assignments, or an *expansion cell* (paper §3),
/// which turns each encoded value into its own tuple when expanded.
struct Cell {
  std::vector<Assignment> assignments;
  bool is_expansion = false;

  static Cell Exact(Value v) {
    Cell c;
    c.assignments.push_back(Assignment::Exact(std::move(v)));
    return c;
  }
  static Cell Expansion(std::vector<Assignment> as) {
    Cell c;
    c.assignments = std::move(as);
    c.is_expansion = true;
    return c;
  }

  /// |V(c)|.
  size_t ValueCount(const Corpus& corpus) const;
  bool EnumerateValues(const Corpus& corpus, size_t max_values,
                       std::vector<Value>* out) const;

  /// True when the cell encodes exactly one value.
  bool IsSingleton(const Corpus& corpus) const;

  std::string ToString(const Corpus* corpus = nullptr) const;
};

/// A compact tuple; `maybe` marks tuples that may not exist in every
/// possible relation.
struct CompactTuple {
  std::vector<Cell> cells;
  bool maybe = false;

  std::string ToString(const Corpus* corpus = nullptr) const;
};

/// A compact table: schema + multiset of compact tuples. The central data
/// structure of the approximate query processor.
class CompactTable {
 public:
  CompactTable() = default;
  explicit CompactTable(std::vector<std::string> schema)
      : schema_(std::move(schema)) {}

  const std::vector<std::string>& schema() const { return schema_; }
  size_t arity() const { return schema_.size(); }

  /// Index of attribute `name`, or NotFound.
  Result<size_t> AttrIndex(const std::string& name) const;

  std::vector<CompactTuple>& tuples() { return tuples_; }
  const std::vector<CompactTuple>& tuples() const { return tuples_; }
  size_t size() const { return tuples_.size(); }

  void Add(CompactTuple t) { tuples_.push_back(std::move(t)); }

  /// Total number of assignments across all cells — the paper's
  /// convergence monitor tracks this alongside the tuple count.
  size_t AssignmentCount() const;

  /// Sum over tuples of the product of per-cell |V(c)| (capped): how many
  /// concrete tuples this table could expand to. Used by benches to show
  /// the compact-table compression factor.
  double PossibleTupleCount(const Corpus& corpus, double cap = 1e18) const;

  /// Number of tuples after expanding expansion cells only (each encoded
  /// value of an expansion cell is its own tuple; a plain multi-assignment
  /// cell is still one tuple with an uncertain value). This is the result
  /// size the paper reports ("Num Tuples" in Table 4).
  double ExpandedTupleCount(const Corpus& corpus, double cap = 1e18) const;

  /// Like ExpandedTupleCount but over non-maybe tuples only: the tuples
  /// that exist in *every* possible relation — the certain lower bound
  /// paired with the superset upper bound.
  double CertainTupleCount(const Corpus& corpus, double cap = 1e18) const;

  /// Sum of |V(c)| over every cell of every tuple (capped): the total
  /// amount of value-level ambiguity the table carries. Shrinks whenever a
  /// constraint narrows any cell — the fine-grained progress signal the
  /// convergence detector watches.
  double TotalValueCount(const Corpus& corpus, double cap = 1e18) const;

  /// A 64-bit hash of the table's content (docs/PERFORMANCE.md,
  /// "Content-keyed reuse"): the schema and, in order, every tuple's maybe
  /// flag and cells; per cell the expansion flag and its assignments in
  /// order, each a contain's span or an exact value's kind, doc id, span,
  /// text and parsed number. Two tables no operator can tell apart may
  /// still digest apart ("92" against 92); two that one can tell apart
  /// digest equal only by a 64-bit collision.
  uint64_t Digest() const;

  /// Replaces every expansion-cell tuple by its expanded tuples (one per
  /// encoded value, paper §3); tuples expanded from a multi-value cell
  /// keep/inherit the maybe flag of the source tuple.
  /// NOTE: expansion preserves the represented set of possible relations.
  Result<CompactTable> ExpandExpansionCells(const Corpus& corpus,
                                            size_t max_tuples) const;

  std::string ToString(const Corpus* corpus = nullptr) const;

 private:
  std::vector<std::string> schema_;
  std::vector<CompactTuple> tuples_;
};

}  // namespace iflex

#endif  // IFLEX_CTABLE_COMPACT_TABLE_H_
