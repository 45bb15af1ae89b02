// Focused cell-op coverage beyond what exec_test exercises: constant
// cells, equality narrowing, enumeration caps, dedup behaviour, the
// prepared token sets against per-sub-span tokenization, the prepared
// token-similarity verdict against a brute-force reference, the
// prepared comparison forms against the nested loops they replace, and
// the prepared-cell store's keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "alog/catalog.h"
#include "exec/cell_ops.h"
#include "exec/cell_store.h"
#include "text/markup_parser.h"

namespace iflex {
namespace {

class CellOpsEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = ParseMarkup("d", "alpha 42 beta 42 gamma 7");
    ASSERT_TRUE(doc.ok());
    d_ = corpus_.Add(std::move(doc).value());
    registry_ = CreateDefaultRegistry();
  }

  Corpus corpus_;
  DocId d_ = 0;
  std::unique_ptr<FeatureRegistry> registry_;
  CellOpLimits limits_;
};

TEST_F(CellOpsEdgeTest, ConstantCellFromTerms) {
  Cell n = ConstantCell(Term::Number(42));
  ASSERT_EQ(n.assignments.size(), 1u);
  EXPECT_DOUBLE_EQ(*n.assignments[0].value.AsNumber(), 42);
  Cell s = ConstantCell(Term::Str("abc"));
  EXPECT_EQ(s.assignments[0].value.AsText(), "abc");
  Cell null = ConstantCell(Term::Null());
  EXPECT_TRUE(null.assignments[0].value.is_null());
}

TEST_F(CellOpsEdgeTest, NarrowByEqualityKeepsMatchingAssignments) {
  Cell cell;
  cell.assignments.push_back(Assignment::Exact(Value::Number(1)));
  cell.assignments.push_back(Assignment::Exact(Value::Number(2)));
  cell.assignments.push_back(Assignment::Exact(Value::String("2")));
  Cell two = Cell::Exact(Value::Number(2));
  bool partial = false;
  Cell narrowed = NarrowCellByEquality(corpus_, cell, two, limits_, &partial);
  // Both the number 2 and the string "2" equal 2 (numeric cast).
  EXPECT_EQ(narrowed.assignments.size(), 2u);
  EXPECT_FALSE(partial);  // kept assignments have only matching values
}

TEST_F(CellOpsEdgeTest, NarrowEmptyWhenNothingMatches) {
  Cell cell = Cell::Exact(Value::Number(1));
  Cell other = Cell::Exact(Value::Number(9));
  bool partial = false;
  Cell narrowed = NarrowCellByEquality(corpus_, cell, other, limits_, &partial);
  EXPECT_TRUE(narrowed.assignments.empty());
}

TEST_F(CellOpsEdgeTest, EnumerationCapDegradesToSome) {
  // A tiny cap forces the tri-state evaluation to admit uncertainty.
  CellOpLimits tiny;
  tiny.max_cell_enum = 2;
  Cell cell;
  cell.assignments.push_back(Assignment::Contain(corpus_.Get(d_).FullSpan()));
  Cell big = Cell::Exact(Value::Number(1000000));
  // No sub-span is > 1000000, but under the cap we must not claim kNone.
  EXPECT_EQ(CompareCells(corpus_, cell, CmpOp::kGt, big, tiny),
            SatResult::kSome);
  // With a generous cap the truth comes out.
  EXPECT_EQ(CompareCells(corpus_, cell, CmpOp::kGt, big, limits_),
            SatResult::kNone);
}

TEST_F(CellOpsEdgeTest, CompareCellsWithOffset) {
  Cell lhs = Cell::Exact(Value::Number(10));
  Cell rhs = Cell::Exact(Value::Number(6));
  // 10 < 6 + 5.
  EXPECT_EQ(CompareCells(corpus_, lhs, CmpOp::kLt, rhs, limits_, 5),
            SatResult::kAll);
  // 10 < 6 + 3 fails.
  EXPECT_EQ(CompareCells(corpus_, lhs, CmpOp::kLt, rhs, limits_, 3),
            SatResult::kNone);
  // Offsets make non-numeric right sides incomparable except under !=.
  Cell text = Cell::Exact(Value::String("abc"));
  EXPECT_EQ(CompareCells(corpus_, lhs, CmpOp::kLt, text, limits_, 5),
            SatResult::kNone);
  EXPECT_EQ(CompareCells(corpus_, lhs, CmpOp::kNe, text, limits_, 5),
            SatResult::kAll);
}

TEST_F(CellOpsEdgeTest, ConstraintDedupsIdenticalRefinements) {
  // Two overlapping contain assignments refine to the same numeric
  // tokens; the result must not double-store them.
  Cell cell;
  cell.assignments.push_back(Assignment::Contain(Span(d_, 0, 12)));
  cell.assignments.push_back(Assignment::Contain(Span(d_, 0, 12)));
  ConstraintLit k;
  k.feature = "numeric";
  k.var = "v";
  k.value = FeatureValue::kYes;
  auto out = ApplyConstraintToCell(corpus_, *registry_, cell, k, {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->assignments.size(), 1u);  // the token "42"
}

TEST_F(CellOpsEdgeTest, ConstraintOnEmptyCellStaysEmpty) {
  Cell cell;
  ConstraintLit k;
  k.feature = "numeric";
  k.var = "v";
  auto out = ApplyConstraintToCell(corpus_, *registry_, cell, k, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->assignments.empty());
}

TEST_F(CellOpsEdgeTest, ExpansionFlagSurvivesConstraint) {
  Cell cell = Cell::Expansion({Assignment::Contain(Span(d_, 0, 12))});
  ConstraintLit k;
  k.feature = "numeric";
  k.var = "v";
  auto out = ApplyConstraintToCell(corpus_, *registry_, cell, k, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->is_expansion);
}

TEST_F(CellOpsEdgeTest, UnknownFeatureFails) {
  Cell cell = Cell::Exact(Value::Number(1));
  ConstraintLit k;
  k.feature = "no_such_feature";
  k.var = "v";
  EXPECT_FALSE(ApplyConstraintToCell(corpus_, *registry_, cell, k, {}).ok());
}

// SimilarityVerdict against the definition it replaces: enumerate both
// cells under max_cell_enum, keep the pair as maybe past the caps, and
// otherwise call the registered similar() p-function on every value pair.
class SimilarityVerdictTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Document tokens split on whitespace, so "&" and "--" are tokens
    // with no alphanumeric character: their sub-spans are token-less.
    auto punct = ParseMarkup("punct", "& -- Alpha & Beta");
    ASSERT_TRUE(punct.ok());
    punct_ = corpus_.Add(std::move(punct).value());
    std::string words;
    for (int i = 0; i < 31; ++i) words += "w" + std::to_string(i) + " ";
    auto wide = ParseMarkup("wide", words);
    ASSERT_TRUE(wide.ok());
    wide_ = corpus_.Add(std::move(wide).value());
    catalog_ = std::make_unique<Catalog>(&corpus_);
    catalog_->RegisterBuiltinFunctions(0.75);
    threshold_ = *catalog_->TokenSimilarityThreshold("similar");
  }

  SatResult Reference(const Cell& a, const Cell& b,
                      const CellOpLimits& limits) {
    const PFunctionFn& fn = **catalog_->PFunction("similar");
    std::vector<Value> va;
    std::vector<Value> vb;
    bool complete = a.EnumerateValues(corpus_, limits.max_cell_enum, &va);
    complete = b.EnumerateValues(corpus_, limits.max_cell_enum, &vb) &&
               complete;
    if (va.empty() || vb.empty()) return SatResult::kNone;
    if (!complete || va.size() * vb.size() > limits.max_filter_combos) {
      return SatResult::kSome;
    }
    bool any = false;
    bool all = true;
    for (const Value& x : va) {
      for (const Value& y : vb) {
        Result<Value> r = fn(corpus_, {x, y});
        EXPECT_TRUE(r.ok());
        if (r.ok() && r->AsBool()) {
          any = true;
        } else {
          all = false;
        }
      }
    }
    if (!any) return SatResult::kNone;
    return all ? SatResult::kAll : SatResult::kSome;
  }

  // The verdict (both argument orders) must equal the reference, and the
  // reference must be `expected`, so each case pins the outcome it covers.
  void ExpectVerdict(const Cell& a, const Cell& b, SatResult expected,
                     const CellOpLimits& limits = CellOpLimits()) {
    EXPECT_EQ(Reference(a, b, limits), expected);
    PreparedSimCell pa = PrepareSimCell(corpus_, a, limits);
    PreparedSimCell pb = PrepareSimCell(corpus_, b, limits);
    EXPECT_EQ(SimilarityVerdict(pa, pb, limits, threshold_), expected);
    EXPECT_EQ(SimilarityVerdict(pb, pa, limits, threshold_), expected);
  }

  // A cell of `n` exact values "<prefix>0", "<prefix>1", ...
  static Cell Words(const std::string& prefix, size_t n) {
    Cell c;
    for (size_t i = 0; i < n; ++i) {
      c.assignments.push_back(
          Assignment::Exact(Value::String(prefix + std::to_string(i))));
    }
    return c;
  }

  // The wide document's first 31 tokens as one contain: 31 * 32 / 2 = 496
  // sub-span values.
  Cell WideContain() const {
    Cell c;
    c.assignments.push_back(
        Assignment::Contain(corpus_.Get(wide_).FullSpan()));
    return c;
  }

  // The distinct token sets of V(c), one TokensOf per value text: the
  // per-sub-span path PrepareSimCell replaced, kept as its reference.
  std::set<std::vector<ValueId>> ReferenceSets(const Cell& cell) {
    TokenCache& cache = corpus_.tokens();
    std::set<std::vector<ValueId>> sets;
    for (const Assignment& a : cell.assignments) {
      if (a.is_exact()) {
        sets.insert(cache.TokensOf(a.value.AsText()));
        continue;
      }
      const Document& doc = corpus_.Get(a.span.doc);
      std::vector<Span> spans;
      doc.EnumerateSubSpans(a.span, std::numeric_limits<size_t>::max(),
                            &spans);
      for (const Span& s : spans) sets.insert(cache.TokensOf(doc.TextOf(s)));
    }
    return sets;
  }

  Corpus corpus_;
  DocId punct_ = 0;
  DocId wide_ = 0;
  std::unique_ptr<Catalog> catalog_;
  double threshold_ = 0;
};

TEST_F(SimilarityVerdictTest, EmptyCellMatchesNothing) {
  Cell empty;
  ExpectVerdict(empty, Cell::Exact(Value::String("Alpha")), SatResult::kNone);
  ExpectVerdict(empty, empty, SatResult::kNone);
  EXPECT_EQ(PrepareSimCell(corpus_, empty, CellOpLimits()).values, 0u);
}

TEST_F(SimilarityVerdictTest, ExactCells) {
  Cell alpha_beta = Cell::Exact(Value::String("Alpha Beta"));
  ExpectVerdict(alpha_beta, Cell::Exact(Value::String("beta, ALPHA")),
                SatResult::kAll);
  ExpectVerdict(alpha_beta, Cell::Exact(Value::String("Alpha Gamma")),
                SatResult::kNone);
  Cell two = alpha_beta;
  two.assignments.push_back(Assignment::Exact(Value::String("Gamma")));
  ExpectVerdict(two, alpha_beta, SatResult::kSome);
  // Both token-less: Jaccard of two empty sets is 1.
  ExpectVerdict(Cell::Exact(Value::String("&")),
                Cell::Exact(Value::String("--")), SatResult::kAll);
  ExpectVerdict(Cell::Exact(Value::String("&")), alpha_beta,
                SatResult::kNone);
  // Jaccard exactly at the threshold (3 / 4 = 0.75) counts as similar.
  ExpectVerdict(Cell::Exact(Value::String("a b c")),
                Cell::Exact(Value::String("a b c d")), SatResult::kAll);
}

TEST_F(SimilarityVerdictTest, ContainSpansOverPunctuationTokens) {
  const Document& doc = corpus_.Get(punct_);
  // "& --": sub-spans "&", "& --", "--" — all token-less.
  Cell marks;
  marks.assignments.push_back(Assignment::Contain(Span(punct_, 0, 4)));
  ASSERT_EQ(marks.ValueCount(corpus_), 3u);
  ExpectVerdict(marks, Cell::Exact(Value::String("&")), SatResult::kAll);
  ExpectVerdict(marks, Cell::Exact(Value::String("Alpha")), SatResult::kNone);
  // The whole document mixes token-less and alphanumeric sub-spans.
  Cell whole;
  whole.assignments.push_back(Assignment::Contain(doc.FullSpan()));
  ExpectVerdict(whole, Cell::Exact(Value::String("&")), SatResult::kSome);
  ExpectVerdict(whole, Cell::Exact(Value::String("Zeta")), SatResult::kNone);
  ExpectVerdict(whole, marks, SatResult::kSome);
}

TEST_F(SimilarityVerdictTest, IndexBoundaryAt512Values) {
  // 496 sub-spans + 16 or 17 exact values: the last cells a join index
  // takes, and the first it does not.
  Cell at = WideContain();
  for (int i = 0; i < 16; ++i) {
    at.assignments.push_back(
        Assignment::Exact(Value::String("x" + std::to_string(i))));
  }
  Cell over = at;
  over.assignments.push_back(Assignment::Exact(Value::String("x16")));
  const CellOpLimits limits;
  EXPECT_EQ(PrepareSimCell(corpus_, at, limits).values, kSimIndexMaxValues);
  EXPECT_EQ(PrepareSimCell(corpus_, over, limits).values,
            kSimIndexMaxValues + 1);
  ExpectVerdict(at, Cell::Exact(Value::String("w3")), SatResult::kSome);
  ExpectVerdict(over, Cell::Exact(Value::String("w3")), SatResult::kSome);
  ExpectVerdict(at, Cell::Exact(Value::String("nothing")), SatResult::kNone);
  ExpectVerdict(over, Cell::Exact(Value::String("nothing")),
                SatResult::kNone);
  // 512 * 2 = 1024 combinations are still decided; 513 * 2 are not.
  ExpectVerdict(at, Words("nothing", 2), SatResult::kNone);
  ExpectVerdict(over, Words("nothing", 2), SatResult::kSome);
}

TEST_F(SimilarityVerdictTest, CombinationCapAt1024) {
  // Disjoint tokens everywhere: decided as kNone up to the cap, kept as
  // maybe one combination past it.
  ExpectVerdict(Words("a", 32), Words("b", 32), SatResult::kNone);
  ExpectVerdict(Words("a", 25), Words("b", 41), SatResult::kSome);
  ExpectVerdict(Words("a", 1024), Words("b", 1), SatResult::kNone);
  ExpectVerdict(Words("a", 1025), Words("b", 1), SatResult::kSome);
  // The widest cell still decided by token sets finds its one match.
  ExpectVerdict(Words("a", 1024), Cell::Exact(Value::String("A1000")),
                SatResult::kSome);
}

TEST_F(SimilarityVerdictTest, SmallEnumerationCap) {
  CellOpLimits small;
  small.max_cell_enum = 3;
  ExpectVerdict(Words("a", 3), Words("b", 1), SatResult::kNone, small);
  ExpectVerdict(Words("a", 4), Words("b", 1), SatResult::kSome, small);
  ExpectVerdict(WideContain(), Cell::Exact(Value::String("w0")),
                SatResult::kSome, small);
  // A cap of zero enumerates nothing, which reads as "no value".
  CellOpLimits none;
  none.max_cell_enum = 0;
  ExpectVerdict(Words("a", 1), Words("a", 1), SatResult::kNone, none);
}

// At θ = 0.75 a set of n tokens can only match sets of 0.75n to n/0.75
// tokens; the verdict skips every pair outside that window without
// computing its Jaccard, and must still equal the reference.
TEST_F(SimilarityVerdictTest, SizeWindowStraddlingCells) {
  Cell abc = Cell::Exact(Value::String("a b c"));
  Cell four_and_one = Cell::Exact(Value::String("a b c d"));
  four_and_one.assignments.push_back(Assignment::Exact(Value::String("a")));
  // "a b c d" sits exactly at 3 / 4 = 0.75; "a" is outside the window.
  ExpectVerdict(abc, four_and_one, SatResult::kSome);
  // 1 and 2 tokens are both outside the window of 5.
  Cell one_and_two = Cell::Exact(Value::String("a"));
  one_and_two.assignments.push_back(Assignment::Exact(Value::String("a b")));
  ExpectVerdict(Cell::Exact(Value::String("a b c d e")), one_and_two,
                SatResult::kNone);
  // Sub-spans of 1 to 31 tokens against values of 1, 2 and 6 tokens.
  const Cell wide = WideContain();
  const Cell six = Cell::Exact(Value::String("w10 w11 w12 w13 w14 w15"));
  ExpectVerdict(wide, Cell::Exact(Value::String("w30")), SatResult::kSome);
  ExpectVerdict(wide, Cell::Exact(Value::String("w4 w5")), SatResult::kSome);
  ExpectVerdict(wide, six, SatResult::kSome);
  Cell two_and_six = Cell::Exact(Value::String("w5 w4"));
  two_and_six.assignments.push_back(six.assignments[0]);
  ExpectVerdict(wide, two_and_six, SatResult::kSome);
  // Every window holds sub-spans, but none of them is similar enough.
  ExpectVerdict(wide, Cell::Exact(Value::String("w0 w2 w4 w6 w8 w10")),
                SatResult::kNone);
  ExpectVerdict(wide, Cell::Exact(Value::String("w0 w30")), SatResult::kNone);
}

TEST_F(SimilarityVerdictTest, ExpansionCells) {
  Cell exp = Cell::Expansion(
      {Assignment::Contain(Span(punct_, 0, 4)),
       Assignment::Exact(Value::String("Alpha Beta"))});
  ExpectVerdict(exp, Cell::Exact(Value::String("beta alpha")),
                SatResult::kSome);
  ExpectVerdict(exp, Cell::Exact(Value::String("Gamma")), SatResult::kNone);
  ExpectVerdict(Cell::Expansion({Assignment::Contain(Span(punct_, 0, 4))}),
                Cell::Exact(Value::String("&")), SatResult::kAll);
}

// A contain is tokenized once per region token, not once per sub-span:
// the 496 sub-span sets of a 31-token region cost at most 31 TokenCache
// misses, so the cache keeps no sub-span text.
TEST_F(SimilarityVerdictTest, ContainMissesTokenCacheOncePerToken) {
  const uint64_t before = corpus_.tokens().misses();
  const PreparedSimCell wide =
      PrepareSimCell(corpus_, WideContain(), CellOpLimits());
  EXPECT_EQ(wide.values, 496u);
  EXPECT_EQ(wide.token_set_count(), 496u);  // distinct tokens, distinct sets
  EXPECT_LE(corpus_.tokens().misses() - before, 31u);
  const uint64_t after = corpus_.tokens().misses();
  PrepareSimCell(corpus_, WideContain(), CellOpLimits());
  EXPECT_EQ(corpus_.tokens().misses(), after);
}

// PrepareSimCell against the per-sub-span path it replaced, and
// SimilarityVerdict against Reference(), over seeded random documents of
// hostile tokens: contain spans that start or end inside a token or a gap,
// expansion cells, and exact values among them "&" and "--".
TEST_F(SimilarityVerdictTest, MatchesPerSubSpanTokenization) {
  static const char* kWords[] = {
      "(4700),", "\"quoted\"", "--",    "...",   "rock&roll",
      "O'Brien", "U.S.A.",     "&",     "Alpha", "alpha",
      "BETA",    "beta,",      "42",    "x",     "caf\xc3\xa9",
      "(x)y"};
  static const char* kGaps[] = {" ", "  ", "\t", "\n", " \r\n"};
  std::mt19937_64 rng(20080609);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  std::vector<DocId> docs;
  for (int d = 0; d < 16; ++d) {
    std::string text;
    for (size_t w = 1 + pick(10); w > 0; --w) {
      text += kGaps[pick(std::size(kGaps))];
      text += kWords[pick(std::size(kWords))];
    }
    docs.push_back(corpus_.Add(Document("r" + std::to_string(d), text)));
  }
  // Mostly short spans, so many pairs are decided by their token sets.
  auto random_span = [&] {
    const Document& doc = corpus_.Get(docs[pick(docs.size())]);
    const uint32_t begin = static_cast<uint32_t>(pick(doc.size() + 1));
    const uint32_t room = doc.size() - begin;
    const uint32_t end =
        begin + static_cast<uint32_t>(pick(
                    (pick(4) == 0 ? room : std::min<uint32_t>(room, 24)) + 1));
    return Span(doc.id(), begin, end);
  };
  auto random_cell = [&] {
    Cell c;
    c.is_expansion = pick(2) == 0;
    for (size_t n = pick(8) == 0 ? 0 : 1 + pick(3); n > 0; --n) {
      if (pick(2) == 0) {
        c.assignments.push_back(Assignment::Contain(random_span()));
      } else if (pick(3) == 0) {
        c.assignments.push_back(
            Assignment::Exact(Value::OfSpan(corpus_, random_span())));
      } else {
        // From the first eight words, so exact values often match.
        std::string text = kWords[pick(8)];
        if (pick(2) == 0) text += std::string(" ") + kWords[pick(8)];
        c.assignments.push_back(Assignment::Exact(Value::String(text)));
      }
    }
    return c;
  };

  const CellOpLimits limits;
  constexpr int kCells = 3000;
  constexpr int kVerdicts = 20000;
  std::vector<Cell> cells;
  std::vector<PreparedSimCell> prepared;
  int mismatches = 0;
  for (int i = 0; i < kCells && mismatches < 5; ++i) {
    cells.push_back(random_cell());
    prepared.push_back(PrepareSimCell(corpus_, cells.back(), limits));
    const PreparedSimCell& p = prepared.back();
    const std::string what = cells.back().ToString(&corpus_);
    EXPECT_EQ(p.values, cells.back().ValueCount(corpus_)) << what;
    ASSERT_LE(p.values, limits.max_filter_combos) << what;
    std::vector<std::vector<ValueId>> got;
    for (size_t s = 0; s < p.token_set_count(); ++s) {
      got.emplace_back(p.token_set(s).begin(), p.token_set(s).end());
    }
    // Ordered by size, then by ids, with no repeats.
    for (size_t s = 1; s < got.size(); ++s) {
      EXPECT_LT(std::make_pair(got[s - 1].size(), got[s - 1]),
                std::make_pair(got[s].size(), got[s]))
          << what;
    }
    const std::set<std::vector<ValueId>> want = ReferenceSets(cells.back());
    std::vector<ValueId> tokens;
    for (const std::vector<ValueId>& set : want) {
      tokens.insert(tokens.end(), set.begin(), set.end());
    }
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    const bool index_side = p.values <= kSimIndexMaxValues;
    if (std::set<std::vector<ValueId>>(got.begin(), got.end()) != want ||
        p.tokens != (index_side ? tokens : std::vector<ValueId>()) ||
        p.tokenless != (index_side && want.count({}) > 0)) {
      ADD_FAILURE() << "prepared sets differ: " << what;
      ++mismatches;
    }
  }
  size_t outcomes[3] = {0, 0, 0};
  for (int i = 0; i < kVerdicts && mismatches < 5; ++i) {
    const size_t x = pick(cells.size());
    const size_t y = pick(cells.size());
    const SatResult want = Reference(cells[x], cells[y], limits);
    ++outcomes[static_cast<int>(want)];
    if (SimilarityVerdict(prepared[x], prepared[y], limits, threshold_) !=
        want) {
      ADD_FAILURE() << "verdict differs: " << cells[x].ToString(&corpus_)
                    << " vs " << cells[y].ToString(&corpus_);
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
  // The generator reaches every outcome.
  for (size_t n : outcomes) EXPECT_GT(n, static_cast<size_t>(kVerdicts / 200));
}

// The nested loops CompareCells, CellsEqual and NarrowCellByComparison
// used to run: enumerate both cells under max_cell_enum, shift the right
// side by the offset, and call CompareValues on every value pair. Kept
// here as the reference the prepared forms must reproduce exactly.
namespace nested_loops {

std::vector<Value> EnumerateCapped(const Corpus& corpus, const Cell& cell,
                                   size_t cap, bool* complete) {
  std::vector<Value> out;
  *complete = cell.EnumerateValues(corpus, cap, &out);
  return out;
}

SatResult Combine(bool any, bool all, bool complete) {
  if (!complete) return SatResult::kSome;
  if (all) return SatResult::kAll;
  if (any) return SatResult::kSome;
  return SatResult::kNone;
}

void ApplyOffset(std::vector<Value>* values, double offset) {
  if (offset == 0) return;
  for (Value& v : *values) {
    auto n = v.AsNumber();
    v = n.has_value() ? Value::Number(*n + offset) : Value::Null();
  }
}

SatResult CompareCells(const Corpus& corpus, const Cell& lhs, CmpOp op,
                       const Cell& rhs, const CellOpLimits& limits,
                       double rhs_offset) {
  bool lc = false;
  bool rc = false;
  std::vector<Value> lv =
      EnumerateCapped(corpus, lhs, limits.max_cell_enum, &lc);
  std::vector<Value> rv =
      EnumerateCapped(corpus, rhs, limits.max_cell_enum, &rc);
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
      if (any && !all) return SatResult::kSome;
    }
  }
  return Combine(any, all, lc && rc);
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
    *partial = true;
    out.assignments = cell.assignments;
    return out;
  }
  for (const Assignment& a : cell.assignments) {
    bool complete = false;
    Cell single;
    single.assignments.push_back(a);
    std::vector<Value> values =
        EnumerateCapped(corpus, single, limits.max_cell_enum, &complete);
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

}  // namespace nested_loops

// Same kind, same span or same value, kind and text: what narrowing keeps
// is a subsequence of its input, so this pins the exact assignments.
bool SameAssignments(const Cell& a, const Cell& b) {
  if (a.is_expansion != b.is_expansion ||
      a.assignments.size() != b.assignments.size()) {
    return false;
  }
  for (size_t i = 0; i < a.assignments.size(); ++i) {
    const Assignment& x = a.assignments[i];
    const Assignment& y = b.assignments[i];
    if (x.kind != y.kind) return false;
    if (x.is_contain() ? !(x.span == y.span)
                       : x.value.kind() != y.value.kind() ||
                             x.value.AsText() != y.value.AsText()) {
      return false;
    }
  }
  return true;
}

// Random cells over every CompareValues class — NULL, kNumber (with
// NaN, infinities and -0), numeric text ("$35", "1,234"), text, bool and
// doc values, exact span values and contain regions — checked against the
// nested loops under all six operators, offsets {0, 5, -2.5}, and
// max_cell_enum values that truncate enumeration.
class PreparedComparisonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* text :
         {"alpha 42 beta $35 1,234 -5 3.5 gamma 7 92 abc 0",
          "Sqft 100 zeta -2.5 $-5 92a 35 b 1e3 & 42 alpha"}) {
      auto doc = ParseMarkup("d", text);
      ASSERT_TRUE(doc.ok());
      docs_.push_back(corpus_.Add(std::move(doc).value()));
    }
  }

  size_t Pick(size_t n) { return static_cast<size_t>(rng_() % n); }

  Value RandomValue() {
    static const double kNumbers[] = {
        0, -0.0, 1, 5, 7, 35, 42, 92, -5, 3.5, 2.5, 1234, 97, 1e30,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    static const char* kNumericTexts[] = {"92",  "$35", "35", "1,234", "-5",
                                          "3.5", "0",   "7",  "42",    "100"};
    static const char* kTexts[] = {"abc", "alpha", "Sqft", "",
                                   "92a", "zeta",  "Alpha", "b"};
    switch (Pick(8)) {
      case 0:
        return Value::Null();
      case 1:
        return Value::Number(kNumbers[Pick(std::size(kNumbers))]);
      case 2:
        return Value::String(kNumericTexts[Pick(std::size(kNumericTexts))]);
      case 3:
        return Value::String(kTexts[Pick(std::size(kTexts))]);
      case 4:
        return Value::Bool(Pick(2) == 0);
      case 5:
        return Value::Doc(docs_[Pick(docs_.size())]);
      default:
        return Value::OfSpan(corpus_, RandomRegion(2));
    }
  }

  // A token-aligned region of up to `max_tokens` tokens, or (rarely) an
  // empty one, which encodes no value.
  Span RandomRegion(size_t max_tokens) {
    const Document& doc = corpus_.Get(docs_[Pick(docs_.size())]);
    const std::vector<Token>& tokens = doc.tokens();
    const size_t i = Pick(tokens.size());
    if (Pick(16) == 0) return Span(doc.id(), tokens[i].begin, tokens[i].begin);
    const size_t j = std::min(tokens.size() - 1, i + Pick(max_tokens));
    return Span(doc.id(), tokens[i].begin, tokens[j].end);
  }

  Cell RandomCell() {
    Cell c;
    c.is_expansion = Pick(2) == 0;
    const size_t n = Pick(5);
    for (size_t i = 0; i < n; ++i) {
      if (Pick(3) == 0) {
        c.assignments.push_back(Assignment::Contain(RandomRegion(5)));
      } else {
        c.assignments.push_back(Assignment::Exact(RandomValue()));
      }
    }
    return c;
  }

  Corpus corpus_;
  std::vector<DocId> docs_;
  std::mt19937_64 rng_{20081};
};

TEST_F(PreparedComparisonTest, MatchesNestedLoops) {
  static const CmpOp kOps[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                               CmpOp::kGe, CmpOp::kEq, CmpOp::kNe};
  static const double kOffsets[] = {0, 5, -2.5};
  // 20000 enumerates every cell here; the others truncate some.
  static const size_t kCaps[] = {20000, 20000, 0, 1, 3, 8};
  constexpr int kCases = 40000;
  int mismatches = 0;
  for (int i = 0; i < kCases && mismatches < 5; ++i) {
    const Cell lhs = RandomCell();
    const Cell rhs = RandomCell();
    const CmpOp op = kOps[Pick(std::size(kOps))];
    const double offset = kOffsets[Pick(std::size(kOffsets))];
    CellOpLimits limits;
    limits.max_cell_enum = kCaps[Pick(std::size(kCaps))];
    const std::string what =
        "lhs " + lhs.ToString(&corpus_) + " op " + CmpOpToString(op) +
        " rhs " + rhs.ToString(&corpus_) + " offset " +
        std::to_string(offset) + " max_cell_enum " +
        std::to_string(limits.max_cell_enum);

    const SatResult want =
        nested_loops::CompareCells(corpus_, lhs, op, rhs, limits, offset);
    if (CompareCells(corpus_, lhs, op, rhs, limits, offset) != want) {
      ADD_FAILURE() << "CompareCells: " << what;
      ++mismatches;
    }
    const SatResult want_eq = nested_loops::CompareCells(
        corpus_, lhs, CmpOp::kEq, rhs, limits, 0);
    if (CellsEqual(corpus_, lhs, rhs, limits) != want_eq) {
      ADD_FAILURE() << "CellsEqual: " << what;
      ++mismatches;
    }
    bool want_partial = false;
    const Cell want_cell = nested_loops::NarrowCellByComparison(
        corpus_, lhs, op, rhs, limits, &want_partial, offset);
    bool partial = false;
    const Cell cell = NarrowCellByComparison(corpus_, lhs, op, rhs, limits,
                                             &partial, offset);
    if (!SameAssignments(cell, want_cell) || partial != want_partial) {
      ADD_FAILURE() << "NarrowCellByComparison: " << what << " got "
                    << cell.ToString(&corpus_) << " partial " << partial
                    << ", want " << want_cell.ToString(&corpus_)
                    << " partial " << want_partial;
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// The store keys on what preparation reads, not on Value::Equals: "92"
// and 92 are equal values, but only the number is a kNumber (which never
// compares with text), and "$35" and "35" tokenize differently.
TEST(PreparedCellStoreTest, KeysOnTextNotValueEquality) {
  Corpus corpus;
  CellOpLimits limits;
  const Cell pairs[][2] = {
      {Cell::Exact(Value::String("92")), Cell::Exact(Value::Number(92))},
      {Cell::Exact(Value::String("$35")), Cell::Exact(Value::String("35"))}};
  for (const auto& pair : pairs) {
    ASSERT_TRUE(pair[0].assignments[0].value.Equals(
        pair[1].assignments[0].value));
    PreparedCellStore store;
    bool hit = true;
    const PreparedSimCell& s0 = store.Sim(corpus, pair[0], limits, &hit);
    EXPECT_FALSE(hit);
    const PreparedSimCell& s1 = store.Sim(corpus, pair[1], limits, &hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(&s0, &s1);
    const PreparedCmpCell& c0 =
        store.Cmp(corpus, pair[0], CmpOp::kLt, limits, 0, &hit);
    EXPECT_FALSE(hit);
    const PreparedCmpCell& c1 =
        store.Cmp(corpus, pair[1], CmpOp::kLt, limits, 0, &hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(&c0, &c1);
    EXPECT_EQ(store.size(), 4u);
    // A second lookup is served the same entry.
    EXPECT_EQ(&store.Sim(corpus, pair[1], limits, &hit), &s1);
    EXPECT_TRUE(hit);
    EXPECT_EQ(&store.Cmp(corpus, pair[0], CmpOp::kLt, limits, 0, &hit), &c0);
    EXPECT_TRUE(hit);
    // The operator's need for sorted values and the offset are part of
    // the key; -0 shifts like 0.
    store.Cmp(corpus, pair[0], CmpOp::kEq, limits, 0, &hit);
    EXPECT_FALSE(hit);
    store.Cmp(corpus, pair[0], CmpOp::kLt, limits, 5, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(&store.Cmp(corpus, pair[0], CmpOp::kGt, limits, -0.0, &hit),
              &c0);
    EXPECT_TRUE(hit);
    store.Clear();
    EXPECT_EQ(store.size(), 0u);
  }
  // The number never compares with text; the numeric text does, as text.
  const Cell text = Cell::Exact(Value::String("abc"));
  EXPECT_EQ(CompareCells(corpus, pairs[0][1], CmpOp::kLt, text, limits),
            SatResult::kNone);
  EXPECT_EQ(CompareCells(corpus, pairs[0][0], CmpOp::kLt, text, limits),
            SatResult::kAll);
}

}  // namespace
}  // namespace iflex
