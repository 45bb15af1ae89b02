#include "exec/cell_ops.h"

#include <algorithm>
#include <functional>

#include "common/strutil.h"

namespace iflex {

namespace {

// Memoized f(span) = v; Verify is a pure function of the key over the
// frozen corpus, so a cached verdict is exact.
bool VerifySpan(const Corpus& corpus, const PreparedConstraint& k,
                const Span& span, VerifyMemo* memo) {
  if (memo == nullptr || !k.base_usable) {
    return k.feature->Verify(corpus.Get(span.doc), span, k.lit.param,
                             k.lit.value);
  }
  VerifyMemo::Key key = k.base_key;
  key.target_kind = 0;
  key.doc = span.doc;
  key.begin = span.begin;
  key.end = span.end;
  if (auto cached = memo->Lookup(key)) return *cached != 0;
  bool holds =
      k.feature->Verify(corpus.Get(span.doc), span, k.lit.param, k.lit.value);
  memo->Insert(key, holds ? 1 : 0);
  return holds;
}

// Memoized VerifyText; the tri-state verdict (holds / fails / needs
// document context) is keyed by the interned scalar text.
std::optional<bool> VerifyScalar(const Corpus& corpus,
                                 const PreparedConstraint& k,
                                 std::string_view text, VerifyMemo* memo) {
  if (memo == nullptr || !k.base_usable) {
    return k.feature->VerifyText(text, k.lit.param, k.lit.value);
  }
  VerifyMemo::Key key = k.base_key;
  key.target_kind = 1;
  key.text = corpus.interner().Intern(text);
  if (key.text == kInvalidValueId) {  // frozen interner refused the text
    return k.feature->VerifyText(text, k.lit.param, k.lit.value);
  }
  if (auto cached = memo->Lookup(key)) {
    if (*cached < 0) return std::nullopt;
    return *cached != 0;
  }
  std::optional<bool> verdict =
      k.feature->VerifyText(text, k.lit.param, k.lit.value);
  memo->Insert(key, !verdict.has_value() ? int8_t{-1}
                                         : (*verdict ? int8_t{1} : int8_t{0}));
  return verdict;
}

// A(k, m(s)) of paper §4.2: the assignments resulting from applying
// constraint `k` to one assignment.
std::vector<Assignment> ApplyOne(const Corpus& corpus,
                                 const PreparedConstraint& k,
                                 const Assignment& a, VerifyMemo* memo) {
  std::vector<Assignment> out;
  if (a.is_exact()) {
    const Value& v = a.value;
    if (v.has_span()) {
      if (VerifySpan(corpus, k, v.span(), memo)) {
        out.push_back(a);
      }
    } else {
      // Scalar value: fall back to text-only verification; features that
      // need document context keep the value (no narrowing, still sound).
      auto verdict = VerifyScalar(corpus, k, v.AsText(), memo);
      if (!verdict.has_value() || *verdict) out.push_back(a);
    }
    return out;
  }
  // Contain assignment: refine into maximal satisfying regions.
  const Document& doc = corpus.Get(a.span.doc);
  for (const RefinedRegion& r :
       k.feature->Refine(doc, a.span, k.lit.param, k.lit.value)) {
    if (r.span.empty()) continue;
    if (r.exact) {
      out.push_back(Assignment::Exact(Value::OfSpan(corpus, r.span)));
    } else {
      out.push_back(Assignment::Contain(r.span));
    }
  }
  return out;
}

bool AssignmentsIdentical(const Assignment& a, const Assignment& b) {
  if (a.kind != b.kind) return false;
  if (a.is_contain()) return a.span == b.span;
  return a.value.Equals(b.value) &&
         a.value.has_span() == b.value.has_span() &&
         (!a.value.has_span() || a.value.span() == b.value.span());
}

void DedupAssignments(std::vector<Assignment>* as) {
  std::vector<Assignment> out;
  for (auto& a : *as) {
    bool dup = false;
    for (const auto& o : out) {
      if (AssignmentsIdentical(a, o)) {
        dup = true;
        break;
      }
    }
    if (!dup) out.push_back(std::move(a));
  }
  *as = std::move(out);
}

}  // namespace

Result<PreparedConstraint> PrepareConstraint(const Corpus& corpus,
                                             const FeatureRegistry& features,
                                             const ConstraintLit& k,
                                             bool want_memo) {
  PreparedConstraint pk;
  pk.lit = k;
  IFLEX_ASSIGN_OR_RETURN(pk.feature, features.Get(k.feature));
  if (!want_memo) return pk;
  pk.base_usable = true;
  pk.base_key.feature = corpus.interner().Intern(pk.feature->name());
  if (pk.base_key.feature == kInvalidValueId) pk.base_usable = false;
  pk.base_key.value = static_cast<uint8_t>(k.value);
  if (k.param.str.has_value()) {
    pk.base_key.param_kind = 1;
    pk.base_key.param_str = corpus.interner().Intern(*k.param.str);
    // A frozen interner can refuse new strings; keys must never collide,
    // so such constraints just go unmemoized.
    if (pk.base_key.param_str == kInvalidValueId) pk.base_usable = false;
  } else if (k.param.num.has_value()) {
    pk.base_key.param_kind = 2;
    double d = *k.param.num;
    __builtin_memcpy(&pk.base_key.param_num, &d, sizeof(d));
  }
  return pk;
}

Cell ApplyPreparedConstraintToCell(
    const Corpus& corpus, const PreparedConstraint& k,
    const std::vector<PreparedConstraint>& history, const Cell& cell,
    VerifyMemo* memo) {
  Cell out;
  out.is_expansion = cell.is_expansion;
  for (const Assignment& a : cell.assignments) {
    std::vector<Assignment> current = ApplyOne(corpus, k, a, memo);
    // Re-check newly created assignments against the constraints applied
    // earlier for this attribute (paper §4.2: sub-spans created with k_j
    // are checked for violation of k_1..k_{j-1}).
    for (const PreparedConstraint& prior : history) {
      std::vector<Assignment> next;
      for (const Assignment& cur : current) {
        std::vector<Assignment> rechecked = ApplyOne(corpus, prior, cur, memo);
        next.insert(next.end(), rechecked.begin(), rechecked.end());
      }
      current = std::move(next);
    }
    out.assignments.insert(out.assignments.end(), current.begin(),
                           current.end());
  }
  DedupAssignments(&out.assignments);
  return out;
}

Result<Cell> ApplyConstraintToCell(const Corpus& corpus,
                                   const FeatureRegistry& features,
                                   const Cell& cell, const ConstraintLit& k,
                                   const std::vector<ConstraintLit>& history,
                                   VerifyMemo* memo) {
  const bool want_memo = memo != nullptr;
  IFLEX_ASSIGN_OR_RETURN(PreparedConstraint pk,
                         PrepareConstraint(corpus, features, k, want_memo));
  std::vector<PreparedConstraint> prior;
  prior.reserve(history.size());
  for (const ConstraintLit& h : history) {
    IFLEX_ASSIGN_OR_RETURN(
        PreparedConstraint ph,
        PrepareConstraint(corpus, features, h, want_memo));
    prior.push_back(std::move(ph));
  }
  return ApplyPreparedConstraintToCell(corpus, pk, prior, cell, memo);
}

PreparedSimCell PrepareSimCell(const Corpus& corpus, const Cell& cell,
                               const CellOpLimits& limits) {
  PreparedSimCell out;
  // Counting matches enumeration exactly: EnumerateValues under a cap
  // yields min(|V(c)|, cap) values and is complete iff |V(c)| <= cap.
  out.values = cell.ValueCount(corpus);
  const size_t token_cap = std::max(
      kSimIndexMaxValues,
      std::min(limits.max_cell_enum, limits.max_filter_combos));
  if (out.values > token_cap) return out;
  TokenCache& tokens = corpus.tokens();
  out.token_sets.reserve(out.values);
  std::vector<Span> spans;
  for (const Assignment& a : cell.assignments) {
    if (a.is_exact()) {
      out.token_sets.push_back(&tokens.TokensOf(a.value.AsText()));
      continue;
    }
    // A contain value's text is its sub-span's text (Value::OfSpan).
    const Document& doc = corpus.Get(a.span.doc);
    spans.clear();
    doc.EnumerateSubSpans(a.span, out.values, &spans);
    for (const Span& s : spans) {
      out.token_sets.push_back(&tokens.TokensOf(doc.TextOf(s)));
    }
  }
  // any/all over value pairs does not depend on order or repeats, so the
  // sets are de-duplicated and ordered by size for SimilarityVerdict's
  // size window.
  std::sort(out.token_sets.begin(), out.token_sets.end(),
            [](const std::vector<ValueId>* x, const std::vector<ValueId>* y) {
              if (x->size() != y->size()) return x->size() < y->size();
              return std::less<>()(x, y);
            });
  out.token_sets.erase(
      std::unique(out.token_sets.begin(), out.token_sets.end()),
      out.token_sets.end());
  return out;
}

SatResult SimilarityVerdict(const PreparedSimCell& a, const PreparedSimCell& b,
                            const CellOpLimits& limits, double threshold) {
  const size_t na = std::min(a.values, limits.max_cell_enum);
  const size_t nb = std::min(b.values, limits.max_cell_enum);
  if (na == 0 || nb == 0) return SatResult::kNone;
  if (a.values > limits.max_cell_enum || b.values > limits.max_cell_enum ||
      na > limits.max_filter_combos / nb) {
    return SatResult::kSome;  // sound: keep as maybe
  }
  // Both counts are now within min(max_cell_enum, max_filter_combos), so
  // PrepareSimCell filled both token-set lists, ordered by size.
  //
  // Size window (AllPairs): J(A, B) <= min(|A|, |B|) / max(|A|, |B|), and
  // correctly rounded division is monotone, so a pair whose size ratio
  // computes below the threshold has a computed Jaccard below it too. For
  // each A, the sets of B that can reach the threshold are one run of the
  // size-sorted list around |A|; every set outside it fails the pair.
  // Both sides of a ratio are nonzero here, and two empty sets (J = 1)
  // always fall inside.
  const auto ratio_below = [threshold](size_t small, size_t large) {
    return static_cast<double>(small) / static_cast<double>(large) <
           threshold;
  };
  const auto& bs = b.token_sets;
  bool any = false;
  bool all = true;
  for (const std::vector<ValueId>* ta : a.token_sets) {
    const size_t na_tok = ta->size();
    auto lo = std::partition_point(
        bs.begin(), bs.end(), [&](const std::vector<ValueId>* tb) {
          return tb->size() < na_tok && ratio_below(tb->size(), na_tok);
        });
    auto hi = std::partition_point(
        lo, bs.end(), [&](const std::vector<ValueId>* tb) {
          return tb->size() <= na_tok || !ratio_below(na_tok, tb->size());
        });
    if (lo != bs.begin() || hi != bs.end()) all = false;
    for (auto it = lo; it != hi && !(any && !all); ++it) {
      if (TokenIdJaccard(*ta, **it) >= threshold) {
        any = true;
      } else {
        all = false;
      }
    }
    if (any && !all) return SatResult::kSome;
  }
  if (!any) return SatResult::kNone;
  return all ? SatResult::kAll : SatResult::kSome;
}

bool CompareValues(const Value& lhs, CmpOp op, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) {
    bool both_null = lhs.is_null() && rhs.is_null();
    switch (op) {
      case CmpOp::kEq:
        return both_null;
      case CmpOp::kNe:
        return !both_null;
      default:
        return false;
    }
  }
  auto ln = lhs.AsNumber();
  auto rn = rhs.AsNumber();
  // A genuine number never matches non-numeric text: "Sqft" > 500000 must
  // be false, not a lexicographic accident.
  bool lhs_is_number = lhs.kind() == Value::Kind::kNumber;
  bool rhs_is_number = rhs.kind() == Value::Kind::kNumber;
  if ((lhs_is_number || rhs_is_number) &&
      !(ln.has_value() && rn.has_value())) {
    return op == CmpOp::kNe;
  }
  if (ln.has_value() && rn.has_value()) {
    switch (op) {
      case CmpOp::kLt:
        return *ln < *rn;
      case CmpOp::kLe:
        return *ln <= *rn;
      case CmpOp::kGt:
        return *ln > *rn;
      case CmpOp::kGe:
        return *ln >= *rn;
      case CmpOp::kEq:
        return *ln == *rn;
      case CmpOp::kNe:
        return *ln != *rn;
    }
  }
  int c = lhs.AsText().compare(rhs.AsText());
  switch (op) {
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
  }
  return false;
}

namespace {

// Enumerates a cell's values up to the cap. `complete` reports whether the
// enumeration covered every value.
std::vector<Value> EnumerateCapped(const Corpus& corpus, const Cell& cell,
                                   size_t cap, bool* complete) {
  std::vector<Value> out;
  *complete = cell.EnumerateValues(corpus, cap, &out);
  return out;
}

SatResult Combine(bool any, bool all, bool complete) {
  if (!complete) {
    // Unknown tail of values: cannot claim kNone or kAll.
    return SatResult::kSome;
  }
  if (all) return SatResult::kAll;
  if (any) return SatResult::kSome;
  return SatResult::kNone;
}

}  // namespace

namespace {

// Applies the additive comparison offset: numeric values shift, anything
// else becomes incomparable (NULL).
void ApplyOffset(std::vector<Value>* values, double offset) {
  if (offset == 0) return;
  for (Value& v : *values) {
    auto n = v.AsNumber();
    v = n.has_value() ? Value::Number(*n + offset) : Value::Null();
  }
}

}  // namespace

SatResult CompareCells(const Corpus& corpus, const Cell& lhs, CmpOp op,
                       const Cell& rhs, const CellOpLimits& limits,
                       double rhs_offset) {
  bool lc = false;
  bool rc = false;
  std::vector<Value> lv = EnumerateCapped(corpus, lhs, limits.max_cell_enum, &lc);
  std::vector<Value> rv = EnumerateCapped(corpus, rhs, limits.max_cell_enum, &rc);
  ApplyOffset(&rv, rhs_offset);
  if (lv.empty() || rv.empty()) return SatResult::kNone;
  bool any = false;
  bool all = true;
  for (const Value& a : lv) {
    for (const Value& b : rv) {
      if (CompareValues(a, op, b)) {
        any = true;
      } else {
        all = false;
      }
      if (any && !all) return SatResult::kSome;  // early out
    }
  }
  return Combine(any, all, lc && rc);
}

SatResult CellsEqual(const Corpus& corpus, const Cell& a, const Cell& b,
                     const CellOpLimits& limits) {
  return CompareCells(corpus, a, CmpOp::kEq, b, limits);
}

Cell NarrowCellByComparison(const Corpus& corpus, const Cell& cell, CmpOp op,
                            const Cell& other, const CellOpLimits& limits,
                            bool* partial, double other_offset) {
  *partial = false;
  bool oc = false;
  std::vector<Value> ov =
      EnumerateCapped(corpus, other, limits.max_cell_enum, &oc);
  ApplyOffset(&ov, other_offset);
  Cell out;
  out.is_expansion = cell.is_expansion;
  if (!oc) {
    // Other side too large to enumerate: keep everything, flag partial.
    *partial = true;
    out.assignments = cell.assignments;
    return out;
  }
  for (const Assignment& a : cell.assignments) {
    bool complete = false;
    std::vector<Value> values;
    Cell single;
    single.assignments.push_back(a);
    values = EnumerateCapped(corpus, single, limits.max_cell_enum, &complete);
    if (!complete) {
      *partial = true;
      out.assignments.push_back(a);
      continue;
    }
    bool any = false;
    bool all = true;
    for (const Value& v : values) {
      bool sat = false;
      for (const Value& o : ov) {
        if (CompareValues(v, op, o)) {
          sat = true;
          break;
        }
      }
      any = any || sat;
      all = all && sat;
    }
    if (any) {
      out.assignments.push_back(a);
      if (!all) *partial = true;
    }
  }
  return out;
}

Cell NarrowCellByEquality(const Corpus& corpus, const Cell& cell,
                          const Cell& other, const CellOpLimits& limits,
                          bool* partial) {
  return NarrowCellByComparison(corpus, cell, CmpOp::kEq, other, limits,
                                partial);
}

Cell ConstantCell(const Term& term) {
  switch (term.kind) {
    case Term::Kind::kNumber:
      return Cell::Exact(Value::Number(term.num));
    case Term::Kind::kString:
      return Cell::Exact(Value::String(term.str));
    case Term::Kind::kNull:
      return Cell::Exact(Value::Null());
    case Term::Kind::kVar:
      break;
  }
  return Cell::Exact(Value::Null());
}

}  // namespace iflex
