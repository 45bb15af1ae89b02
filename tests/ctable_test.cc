#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "ctable/atable.h"
#include "ctable/compact_table.h"
#include "ctable/value.h"
#include "ctable/worlds.h"
#include "text/markup_parser.h"

namespace iflex {
namespace {

class CTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = ParseMarkup("d", "Cozy house 351000 Vanhise High");
    ASSERT_TRUE(doc.ok());
    doc_id_ = corpus_.Add(std::move(doc).value());
  }

  Corpus corpus_;
  DocId doc_id_ = 0;
};

TEST_F(CTableTest, ValueKindsAndText) {
  EXPECT_TRUE(Value::Null().is_null());
  Value d = Value::Doc(3);
  EXPECT_EQ(d.kind(), Value::Kind::kDoc);
  EXPECT_EQ(d.doc(), 3u);
  Value s = Value::OfSpan(corpus_, Span(doc_id_, 0, 4));
  EXPECT_EQ(s.AsText(), "Cozy");
  EXPECT_TRUE(s.has_span());
  EXPECT_EQ(Value::Number(4.5).AsText(), "4.5");
  EXPECT_EQ(Value::Number(42).AsText(), "42");
  EXPECT_TRUE(Value::Bool(true).AsBool());
}

// Numbers outside the int64 range print with %g instead of going through
// an undefined float-to-integer cast.
TEST_F(CTableTest, HugeNumbersPrintWithoutIntegerCast) {
  EXPECT_EQ(Value::Number(1e30).AsText(), "1e+30");
  EXPECT_EQ(Value::Number(std::numeric_limits<double>::infinity()).AsText(),
            "inf");
  EXPECT_EQ(Value::Number(1e30).ToString(), "1e+30");
}

TEST_F(CTableTest, ValueNumericCast) {
  // The paper: exact("92") encodes value 92 (cast from string to numeric).
  Value s = Value::String("$351,000");
  ASSERT_TRUE(s.AsNumber().has_value());
  EXPECT_DOUBLE_EQ(*s.AsNumber(), 351000);
  EXPECT_TRUE(s.Equals(Value::Number(351000)));
  EXPECT_EQ(s.Hash(), Value::Number(351000).Hash());
}

TEST_F(CTableTest, ValueEqualityTextual) {
  EXPECT_TRUE(Value::String("abc").Equals(Value::String("abc")));
  EXPECT_FALSE(Value::String("abc").Equals(Value::String("abd")));
  EXPECT_FALSE(Value::Doc(1).Equals(Value::Doc(2)));
  EXPECT_FALSE(Value::Doc(1).Equals(Value::Number(1)));
  EXPECT_FALSE(Value::Null().Equals(Value::Number(0)));
  EXPECT_TRUE(Value::Null().Equals(Value::Null()));
}

TEST_F(CTableTest, AssignmentValueCounts) {
  Assignment e = Assignment::Exact(Value::Number(92));
  EXPECT_EQ(e.ValueCount(corpus_), 1u);
  // "Cozy house 351000 Vanhise High" has 5 tokens -> 15 sub-spans.
  Assignment c = Assignment::Contain(corpus_.Get(doc_id_).FullSpan());
  EXPECT_EQ(c.ValueCount(corpus_), 15u);
}

TEST_F(CTableTest, CellEnumerationHonorsCap) {
  Cell cell;
  cell.assignments.push_back(
      Assignment::Contain(corpus_.Get(doc_id_).FullSpan()));
  std::vector<Value> values;
  EXPECT_FALSE(cell.EnumerateValues(corpus_, 4, &values));
  EXPECT_EQ(values.size(), 4u);
  values.clear();
  EXPECT_TRUE(cell.EnumerateValues(corpus_, 100, &values));
  EXPECT_EQ(values.size(), 15u);
}

TEST_F(CTableTest, ExpandExpansionCells) {
  CompactTable t({"x", "s"});
  CompactTuple tup;
  tup.cells.push_back(Cell::Exact(Value::Doc(doc_id_)));
  tup.cells.push_back(Cell::Expansion(
      {Assignment::Contain(Span(doc_id_, 0, 10))}));  // "Cozy house"
  t.Add(tup);
  auto expanded = t.ExpandExpansionCells(corpus_, 100);
  ASSERT_TRUE(expanded.ok());
  // 2 tokens -> 3 sub-spans -> 3 tuples.
  EXPECT_EQ(expanded->size(), 3u);
  for (const auto& u : expanded->tuples()) {
    EXPECT_FALSE(u.cells[1].is_expansion);
    EXPECT_FALSE(u.maybe);
  }
}

TEST_F(CTableTest, ExpandPropagatesMaybe) {
  CompactTable t({"s"});
  CompactTuple tup;
  tup.maybe = true;
  tup.cells.push_back(Cell::Expansion({Assignment::Contain(Span(doc_id_, 0, 10))}));
  t.Add(tup);
  auto expanded = t.ExpandExpansionCells(corpus_, 100);
  ASSERT_TRUE(expanded.ok());
  for (const auto& u : expanded->tuples()) EXPECT_TRUE(u.maybe);
}

TEST_F(CTableTest, ExpandCapFails) {
  CompactTable t({"s"});
  CompactTuple tup;
  tup.cells.push_back(
      Cell::Expansion({Assignment::Contain(corpus_.Get(doc_id_).FullSpan())}));
  t.Add(tup);
  EXPECT_FALSE(t.ExpandExpansionCells(corpus_, 10).ok());
}

TEST_F(CTableTest, CompactToATableDedupsValues) {
  CompactTable t({"a"});
  CompactTuple tup;
  Cell c;
  c.assignments.push_back(Assignment::Exact(Value::String("92")));
  c.assignments.push_back(Assignment::Exact(Value::Number(92)));
  tup.cells.push_back(c);
  t.Add(tup);
  auto at = CompactToATable(corpus_, t);
  ASSERT_TRUE(at.ok());
  ASSERT_EQ(at->size(), 1u);
  EXPECT_EQ(at->tuples()[0].cells[0].size(), 1u);  // "92" == 92
}

TEST_F(CTableTest, RoundTripThroughATable) {
  CompactTable t({"x", "p"});
  CompactTuple tup;
  tup.maybe = true;
  tup.cells.push_back(Cell::Exact(Value::Doc(doc_id_)));
  Cell prices;
  prices.assignments.push_back(Assignment::Exact(Value::Number(351000)));
  prices.assignments.push_back(Assignment::Exact(Value::Number(5146)));
  tup.cells.push_back(prices);
  t.Add(tup);
  auto at = CompactToATable(corpus_, t);
  ASSERT_TRUE(at.ok());
  CompactTable back = ATableToCompact(*at, t.schema());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(back.tuples()[0].maybe);
  EXPECT_EQ(back.tuples()[0].cells[1].assignments.size(), 2u);
}

TEST_F(CTableTest, PossibleTupleCount) {
  CompactTable t({"p"});
  CompactTuple tup;
  Cell c;
  c.assignments.push_back(Assignment::Exact(Value::Number(1)));
  c.assignments.push_back(Assignment::Exact(Value::Number(2)));
  tup.cells.push_back(c);
  t.Add(tup);
  t.Add(tup);
  EXPECT_DOUBLE_EQ(t.PossibleTupleCount(corpus_), 4.0);
  EXPECT_EQ(t.AssignmentCount(), 4u);
}

// ------------------------------------------------------------------ worlds

ATuple MakeATuple(std::vector<std::vector<Value>> cells, bool maybe = false) {
  ATuple t;
  t.cells = std::move(cells);
  t.maybe = maybe;
  return t;
}

TEST(WorldsTest, PaperFigure5SemanticsOfMaybeAndChoice) {
  // A 1-cell a-tuple with 2 values -> 2 worlds; making it maybe adds the
  // empty world.
  ATable t({"age"});
  t.Add(MakeATuple({{Value::Number(8), Value::Number(9)}}));
  auto worlds = EnumerateWorlds(t);
  ASSERT_TRUE(worlds.ok());
  EXPECT_EQ(worlds->size(), 2u);

  ATable tm({"age"});
  tm.Add(MakeATuple({{Value::Number(8), Value::Number(9)}}, /*maybe=*/true));
  auto worlds_m = EnumerateWorlds(tm);
  ASSERT_TRUE(worlds_m.ok());
  // subsets {} (once) plus {8} and {9}.
  auto ws = WorldSet(tm);
  ASSERT_TRUE(ws.ok());
  EXPECT_EQ(ws->size(), 3u);
}

TEST(WorldsTest, CanonicalWorldIsOrderInsensitive) {
  World w1 = {{Value::Number(1)}, {Value::Number(2)}};
  World w2 = {{Value::Number(2)}, {Value::Number(1)}};
  EXPECT_EQ(CanonicalWorld(w1), CanonicalWorld(w2));
}

TEST(WorldsTest, SupersetDetection) {
  ATable spec({"a"});
  spec.Add(MakeATuple({{Value::Number(1)}}));

  // Result that hedges with a maybe tuple still covers the spec world.
  ATable result({"a"});
  result.Add(MakeATuple({{Value::Number(1)}}));
  result.Add(MakeATuple({{Value::Number(7)}}, /*maybe=*/true));
  auto ok = RepresentsSuperset(result, spec);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);

  // A result that *forces* tuple 7 is not a superset.
  ATable forced({"a"});
  forced.Add(MakeATuple({{Value::Number(1)}}));
  forced.Add(MakeATuple({{Value::Number(7)}}));
  auto bad = RepresentsSuperset(forced, spec);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(*bad);
}

TEST(WorldsTest, TooManyMaybesFails) {
  ATable t({"a"});
  for (int i = 0; i < 30; ++i) {
    t.Add(MakeATuple({{Value::Number(i)}}, /*maybe=*/true));
  }
  EXPECT_FALSE(EnumerateWorlds(t).ok());
}

// Content-keyed reuse keys tables by Digest(): every difference an
// operator can read changes it, and equal tables built apart digest equal.
TEST_F(CTableTest, DigestCoversEveryReadablePart) {
  const Span region(doc_id_, 0, 10);
  auto build = [&] {
    CompactTable t({"a", "b"});
    CompactTuple tup;
    tup.cells.push_back(Cell::Expansion({Assignment::Contain(region)}));
    Cell exact;
    exact.assignments.push_back(Assignment::Exact(Value::String("92")));
    exact.assignments.push_back(Assignment::Exact(Value::Number(7)));
    tup.cells.push_back(exact);
    t.Add(tup);
    return t;
  };
  const uint64_t base = build().Digest();
  EXPECT_EQ(build().Digest(), base);

  std::vector<CompactTable> variants(7, build());
  variants[0].tuples()[0].maybe = true;
  variants[1].tuples()[0].cells[0].is_expansion = false;
  std::swap(variants[2].tuples()[0].cells[1].assignments[0],
            variants[2].tuples()[0].cells[1].assignments[1]);
  variants[3].tuples()[0].cells[1].assignments[0] =
      Assignment::Exact(Value::Number(92));
  variants[4].tuples()[0].cells[0].assignments[0] =
      Assignment::Exact(Value::OfSpan(corpus_, region));
  variants[5] = CompactTable({"a", "c"});
  variants[5].Add(build().tuples()[0]);
  variants[6].tuples()[0].cells[0].assignments[0].span.end = 11;
  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(variants[i].Digest(), base) << "variant " << i;
  }
}

}  // namespace
}  // namespace iflex
