#include "exec/cell_ops.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <ranges>
#include <span>
#include <utility>

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
  TokenCache& cache = corpus.tokens();
  // Per-thread buffers: every value's set is appended to `ids`, with its
  // bounds in `sets`, so a cell allocates only its own exact-size arrays.
  thread_local std::vector<ValueId> ids;
  thread_local std::vector<std::pair<size_t, size_t>> sets;
  thread_local std::vector<const std::vector<ValueId>*> region;
  thread_local std::vector<ValueId> run;
  thread_local std::vector<ValueId> merged;
  ids.clear();
  sets.clear();
  const auto append = [](std::span<const ValueId> set) {
    sets.emplace_back(ids.size(), ids.size() + set.size());
    ids.insert(ids.end(), set.begin(), set.end());
  };
  for (const Assignment& a : cell.assignments) {
    if (a.is_exact()) {
      append(cache.TokensOf(a.value.AsText()));
      continue;
    }
    // A contain value's text is its sub-span's text (Value::OfSpan): the
    // text of region tokens i..j. No alphanumeric character lies between
    // two tokens (Document::Tokenize) and TokensOf splits at every other
    // character, so that text's set is the union of tokens i..j's sets,
    // with the same interned ids.
    const Document& doc = corpus.Get(a.span.doc);
    const size_t last = doc.TokensEndingBy(a.span.end);
    region.clear();
    for (size_t t = doc.FirstTokenAtOrAfter(a.span.begin); t < last; ++t) {
      const Token& tok = doc.tokens()[t];
      region.push_back(
          &cache.TokensOf(doc.TextOf(Span(doc.id(), tok.begin, tok.end))));
    }
    for (size_t i = 0; i < region.size(); ++i) {
      run.clear();
      for (size_t j = i; j < region.size(); ++j) {
        merged.clear();
        std::set_union(run.begin(), run.end(), region[j]->begin(),
                       region[j]->end(), std::back_inserter(merged));
        run.swap(merged);
        append(run);
      }
    }
  }
  // any/all over value pairs does not depend on order or repeats, so the
  // sets are de-duplicated by content and ordered by size, for
  // SimilarityVerdict's size window, then by ids.
  const auto content = [](const std::pair<size_t, size_t>& s) {
    return std::span<const ValueId>(ids).subspan(s.first,
                                                 s.second - s.first);
  };
  std::sort(sets.begin(), sets.end(), [&](const auto& x, const auto& y) {
    const std::span<const ValueId> cx = content(x);
    const std::span<const ValueId> cy = content(y);
    if (cx.size() != cy.size()) return cx.size() < cy.size();
    return std::lexicographical_compare(cx.begin(), cx.end(), cy.begin(),
                                        cy.end());
  });
  sets.erase(std::unique(sets.begin(), sets.end(),
                         [&](const auto& x, const auto& y) {
                           return std::ranges::equal(content(x), content(y));
                         }),
             sets.end());
  size_t total = 0;
  for (const auto& [begin, end] : sets) total += end - begin;
  out.set_ids.reserve(total);
  out.set_offsets.reserve(sets.size() + 1);
  out.set_offsets.push_back(0);
  for (const auto& [begin, end] : sets) {
    out.set_ids.insert(out.set_ids.end(), ids.begin() + begin,
                       ids.begin() + end);
    out.set_offsets.push_back(out.set_ids.size());
  }
  if (out.values > kSimIndexMaxValues) return out;
  // The smallest set is empty iff some value is token-less.
  out.tokenless = out.token_set_count() > 0 && out.token_set(0).empty();
  ids.assign(out.set_ids.begin(), out.set_ids.end());
  std::sort(ids.begin(), ids.end());
  out.tokens.assign(ids.begin(), std::unique(ids.begin(), ids.end()));
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
  const auto bs = std::views::iota(size_t{0}, b.token_set_count());
  const auto b_size = [&b](size_t i) {
    return b.set_offsets[i + 1] - b.set_offsets[i];
  };
  bool any = false;
  bool all = true;
  for (size_t ia = 0; ia < a.token_set_count(); ++ia) {
    const std::span<const ValueId> ta = a.token_set(ia);
    const size_t na_tok = ta.size();
    auto lo = std::ranges::partition_point(bs, [&](size_t ib) {
      return b_size(ib) < na_tok && ratio_below(b_size(ib), na_tok);
    });
    auto hi = std::ranges::partition_point(lo, bs.end(), [&](size_t ib) {
      return b_size(ib) <= na_tok || !ratio_below(na_tok, b_size(ib));
    });
    if (lo != bs.begin() || hi != bs.end()) all = false;
    for (auto it = lo; it != hi && !(any && !all); ++it) {
      if (TokenIdJaccard(ta, b.token_set(*it)) >= threshold) {
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

// The CompareValues class of a value: which rule decides its comparisons.
enum class CmpClass : uint8_t { kNull, kNaN, kNumber, kNumericText, kText };

CmpClass ClassOf(const Value& v) {
  if (v.is_null()) return CmpClass::kNull;
  if (v.kind() == Value::Kind::kNumber) {
    return std::isnan(*v.AsNumber()) ? CmpClass::kNaN : CmpClass::kNumber;
  }
  return v.AsNumber().has_value() ? CmpClass::kNumericText : CmpClass::kText;
}

// Calls fn(cls, num, text, exact) for the values of `a` — the values
// Assignment::EnumerateValues would build, without building them — until
// fn returns false. `exact` is the exact assignment's value, or null for a
// contain sub-span. `num` is meaningful for the numeric classes only.
template <typename Fn>
void ForEachCmpValue(const Corpus& corpus, const Assignment& a, Fn&& fn) {
  if (a.is_exact()) {
    const Value& v = a.value;
    fn(ClassOf(v), v.AsNumber().value_or(0), v.AsText(), &v);
    return;
  }
  // A contain value is a span value: a text, numeric when it parses as a
  // loose number (Value::OfSpan).
  const Document& doc = corpus.Get(a.span.doc);
  const std::vector<Token>& tokens = doc.tokens();
  const size_t first = doc.FirstTokenAtOrAfter(a.span.begin);
  const size_t last = doc.TokensEndingBy(a.span.end);
  for (size_t i = first; i < last; ++i) {
    for (size_t j = i; j < last; ++j) {
      std::string_view text =
          doc.TextOf(Span(a.span.doc, tokens[i].begin, tokens[j].end));
      std::optional<double> n = ParseLooseNumber(text);
      if (!fn(n.has_value() ? CmpClass::kNumericText : CmpClass::kText,
              n.value_or(0), text, nullptr)) {
        return;
      }
    }
  }
}

bool NeedsSorted(CmpOp op) { return op == CmpOp::kEq || op == CmpOp::kNe; }

// Whether some / every pair (x, y) of x in [xmin, xmax] and y in [ymin,
// ymax] satisfies an ordered `op`; the extremes are attained.
template <typename T>
std::pair<bool, bool> OrderedPair(const T& xmin, const T& xmax, CmpOp op,
                                  const T& ymin, const T& ymax) {
  switch (op) {
    case CmpOp::kLt:
      return {xmin < ymax, xmax < ymin};
    case CmpOp::kLe:
      return {xmin <= ymax, xmax <= ymin};
    case CmpOp::kGt:
      return {xmax > ymin, xmin > ymax};
    case CmpOp::kGe:
      return {xmax >= ymin, xmin >= ymax};
    case CmpOp::kEq:
    case CmpOp::kNe:
      break;
  }
  return {false, false};
}

// Whether two sorted lists share a value: each of the shorter is searched
// in the longer.
template <typename T>
bool Intersects(const std::vector<T>& a, const std::vector<T>& b) {
  const std::vector<T>& small = a.size() <= b.size() ? a : b;
  const std::vector<T>& large = a.size() <= b.size() ? b : a;
  for (const T& x : small) {
    if (std::binary_search(large.begin(), large.end(), x)) return true;
  }
  return false;
}

// Whether some / every pair of two non-empty classes compared as `op`,
// given their extremes, sorted lists and whether values of the two
// classes can be equal at all.
template <typename T>
std::pair<bool, bool> ClassPair(const T& xmin, const T& xmax,
                                const std::vector<T>& xs, CmpOp op,
                                const T& ymin, const T& ymax,
                                const std::vector<T>& ys, bool can_equal) {
  if (!NeedsSorted(op)) return OrderedPair(xmin, xmax, op, ymin, ymax);
  // Every pair is equal iff both classes hold one and the same value.
  const bool all_equal =
      can_equal && xmin == xmax && ymin == ymax && xmin == ymin;
  const bool some_equal = all_equal || (can_equal && Intersects(xs, ys));
  if (op == CmpOp::kEq) return {some_equal, all_equal};
  return {!all_equal, !some_equal};
}

// Whether `x` satisfies an ordered `op` against some value of [ymin, ymax].
template <typename T>
bool OrderedSome(const T& x, CmpOp op, const T& ymin, const T& ymax) {
  return OrderedPair(x, x, op, ymin, ymax).first;
}

// Widens [*lo, *hi] to `x`; `seen` counts the values already in it.
template <typename T>
void Extend(const T& x, size_t seen, T* lo, T* hi) {
  if (seen == 0 || x < *lo) *lo = x;
  if (seen == 0 || x > *hi) *hi = x;
}

size_t Numeric(const PreparedCmpCell& c) {
  return c.numbers + c.numeric_texts;
}

// Whether value (cls, num, text) satisfies `op` against some value of
// `o` — CompareValues(v, op, o) for some o in V(other), decided from the
// class counts, extremes and sorted lists.
bool SomeSatisfied(CmpClass cls, double num, std::string_view text, CmpOp op,
                   const PreparedCmpCell& o) {
  const size_t non_null = o.values - o.nulls;
  switch (cls) {
    case CmpClass::kNull:
      if (op == CmpOp::kEq) return o.nulls > 0;
      return op == CmpOp::kNe && non_null > 0;
    case CmpClass::kNaN:
      return op == CmpOp::kNe && o.values > 0;
    case CmpClass::kNumber:
    case CmpClass::kNumericText: {
      const bool as_text = cls == CmpClass::kNumericText && o.texts > 0;
      if (op == CmpOp::kNe) {
        // Unequal to a NULL, a NaN and any text; equal to a number only
        // when every number of `o` is this one.
        return o.nulls + o.nans + o.texts > 0 ||
               (Numeric(o) > 0 &&
                !(o.num_min == o.num_max && o.num_min == num));
      }
      if (Numeric(o) > 0) {
        if (op == CmpOp::kEq) {
          if (std::binary_search(o.sorted_numbers.begin(),
                                 o.sorted_numbers.end(), num)) {
            return true;
          }
        } else if (OrderedSome(num, op, o.num_min, o.num_max)) {
          return true;
        }
      }
      // A numeric text against a text compares as text; it never equals
      // one.
      return as_text && op != CmpOp::kEq &&
             OrderedSome(text, op, o.text_min, o.text_max);
    }
    case CmpClass::kText:
      if (op == CmpOp::kNe) {
        return o.nulls + o.nans + Numeric(o) > 0 ||
               (o.texts > 0 &&
                !(o.text_min == o.text_max && o.text_min == text));
      }
      if (op == CmpOp::kEq) {
        return o.texts > 0 && std::binary_search(o.sorted_texts.begin(),
                                                 o.sorted_texts.end(), text);
      }
      return (o.numeric_texts > 0 &&
              OrderedSome(text, op, o.numeric_text_min,
                          o.numeric_text_max)) ||
             (o.texts > 0 && OrderedSome(text, op, o.text_min, o.text_max));
  }
  return false;
}

}  // namespace

PreparedCmpCell PrepareCmpCell(const Corpus& corpus, const Cell& cell,
                               CmpOp op, const CellOpLimits& limits,
                               double offset) {
  PreparedCmpCell out;
  // A cell enumerates completely iff |V(c)| <= max_cell_enum.
  out.values = cell.ValueCount(corpus);
  if (out.values > limits.max_cell_enum) return out;
  const bool sorted = NeedsSorted(op);
  const bool shift = offset != 0;
  auto add = [&](CmpClass cls, double num, std::string_view text,
                 const Value* exact) {
    if (shift) {
      // Offsets shift numbers; anything else becomes NULL.
      if (cls == CmpClass::kNull || cls == CmpClass::kText) {
        cls = CmpClass::kNull;
      } else {
        num += offset;
        cls = std::isnan(num) ? CmpClass::kNaN : CmpClass::kNumber;
      }
    }
    switch (cls) {
      case CmpClass::kNull:
        ++out.nulls;
        return true;
      case CmpClass::kNaN:
        ++out.nans;
        return true;
      case CmpClass::kNumber:
        Extend(num, Numeric(out), &out.num_min, &out.num_max);
        ++out.numbers;
        if (sorted) out.sorted_numbers.push_back(num);
        return true;
      case CmpClass::kNumericText:
        Extend(num, Numeric(out), &out.num_min, &out.num_max);
        Extend(text, out.numeric_texts, &out.numeric_text_min,
               &out.numeric_text_max);
        ++out.numeric_texts;
        if (sorted) out.sorted_numbers.push_back(num);
        break;
      case CmpClass::kText:
        Extend(text, out.texts, &out.text_min, &out.text_max);
        ++out.texts;
        if (sorted) out.sorted_texts.push_back(text);
        break;
    }
    if (exact != nullptr && !exact->has_span()) out.pinned.push_back(*exact);
    return true;
  };
  for (const Assignment& a : cell.assignments) ForEachCmpValue(corpus, a, add);
  std::sort(out.sorted_numbers.begin(), out.sorted_numbers.end());
  std::sort(out.sorted_texts.begin(), out.sorted_texts.end());
  out.sorted_texts.erase(
      std::unique(out.sorted_texts.begin(), out.sorted_texts.end()),
      out.sorted_texts.end());
  return out;
}

SatResult ComparePrepared(const PreparedCmpCell& lhs, CmpOp op,
                          const PreparedCmpCell& rhs,
                          const CellOpLimits& limits) {
  const size_t cap = limits.max_cell_enum;
  if (std::min(lhs.values, cap) == 0 || std::min(rhs.values, cap) == 0) {
    return SatResult::kNone;
  }
  // An unenumerated tail of values: neither kNone nor kAll can be claimed.
  if (lhs.values > cap || rhs.values > cap) return SatResult::kSome;
  // The pairs split by class; any/all fold over the non-empty products.
  bool any = false;
  bool all = true;
  auto fold = [&](std::pair<bool, bool> some_every) {
    any = any || some_every.first;
    all = all && some_every.second;
  };
  auto constant = [&](bool holds) { fold({holds, holds}); };
  const size_t l_non_null = lhs.values - lhs.nulls;
  const size_t r_non_null = rhs.values - rhs.nulls;
  if (lhs.nulls > 0 && rhs.nulls > 0) constant(op == CmpOp::kEq);
  if ((lhs.nulls > 0 && r_non_null > 0) || (l_non_null > 0 && rhs.nulls > 0)) {
    constant(op == CmpOp::kNe);
  }
  // Pairs that satisfy only `≠`: a NaN against any non-NULL value, and a
  // kNumber against a value without a loose number.
  if ((lhs.nans > 0 && r_non_null > 0) || (l_non_null > 0 && rhs.nans > 0) ||
      (lhs.numbers > 0 && rhs.texts > 0) ||
      (lhs.texts > 0 && rhs.numbers > 0)) {
    constant(op == CmpOp::kNe);
  }
  if (Numeric(lhs) > 0 && Numeric(rhs) > 0) {
    fold(ClassPair(lhs.num_min, lhs.num_max, lhs.sorted_numbers, op,
                   rhs.num_min, rhs.num_max, rhs.sorted_numbers,
                   /*can_equal=*/true));
  }
  static const std::vector<std::string_view> kNoTexts;
  if (lhs.numeric_texts > 0 && rhs.texts > 0) {
    fold(ClassPair(lhs.numeric_text_min, lhs.numeric_text_max, kNoTexts, op,
                   rhs.text_min, rhs.text_max, kNoTexts, /*can_equal=*/false));
  }
  if (lhs.texts > 0 && rhs.numeric_texts > 0) {
    fold(ClassPair(lhs.text_min, lhs.text_max, kNoTexts, op,
                   rhs.numeric_text_min, rhs.numeric_text_max, kNoTexts,
                   /*can_equal=*/false));
  }
  if (lhs.texts > 0 && rhs.texts > 0) {
    fold(ClassPair(lhs.text_min, lhs.text_max, lhs.sorted_texts, op,
                   rhs.text_min, rhs.text_max, rhs.sorted_texts,
                   /*can_equal=*/true));
  }
  if (all) return SatResult::kAll;
  return any ? SatResult::kSome : SatResult::kNone;
}

Cell NarrowCellByPrepared(const Corpus& corpus, const Cell& cell, CmpOp op,
                          const PreparedCmpCell& other,
                          const CellOpLimits& limits, bool* partial) {
  *partial = false;
  Cell out;
  out.is_expansion = cell.is_expansion;
  if (other.values > limits.max_cell_enum) {
    // Other side too large to enumerate: keep everything, flag partial.
    *partial = true;
    out.assignments = cell.assignments;
    return out;
  }
  for (const Assignment& a : cell.assignments) {
    if (a.ValueCount(corpus) > limits.max_cell_enum) {
      *partial = true;  // not enumerable: keep it, as maybe
      out.assignments.push_back(a);
      continue;
    }
    bool any = false;
    bool all = true;
    ForEachCmpValue(corpus, a,
                    [&](CmpClass cls, double num, std::string_view text,
                        const Value*) {
                      const bool sat = SomeSatisfied(cls, num, text, op, other);
                      any = any || sat;
                      all = all && sat;
                      return !any || all;  // stop once both are settled
                    });
    if (any) {
      out.assignments.push_back(a);
      if (!all) *partial = true;
    }
  }
  return out;
}

SatResult CompareCells(const Corpus& corpus, const Cell& lhs, CmpOp op,
                       const Cell& rhs, const CellOpLimits& limits,
                       double rhs_offset) {
  return ComparePrepared(PrepareCmpCell(corpus, lhs, op, limits), op,
                         PrepareCmpCell(corpus, rhs, op, limits, rhs_offset),
                         limits);
}

SatResult CellsEqual(const Corpus& corpus, const Cell& a, const Cell& b,
                     const CellOpLimits& limits) {
  return CompareCells(corpus, a, CmpOp::kEq, b, limits);
}

Cell NarrowCellByComparison(const Corpus& corpus, const Cell& cell, CmpOp op,
                            const Cell& other, const CellOpLimits& limits,
                            bool* partial, double other_offset) {
  return NarrowCellByPrepared(
      corpus, cell, op,
      PrepareCmpCell(corpus, other, op, limits, other_offset), limits,
      partial);
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
