#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "exec/annotate.h"
#include "exec/cell_ops.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "resilience/failpoint.h"
#include "text/markup_parser.h"

namespace iflex {
namespace {

Value Num(double n) { return Value::Number(n); }
Value Str(const std::string& s) { return Value::String(s); }

// ------------------------------------------------------- BAnnotate (Fig 5)

ATuple MakeATuple(std::vector<std::vector<Value>> cells, bool maybe = false) {
  ATuple t;
  t.cells = std::move(cells);
  t.maybe = maybe;
  return t;
}

TEST(BAnnotateTest, PaperFigure5) {
  // T1 from Figure 5.a with an attribute annotation on age.
  ATable t1({"name", "age"});
  t1.Add(MakeATuple({{Str("Alice"), Str("Bob")}, {Num(5)}}));
  t1.Add(MakeATuple({{Str("Alice"), Str("Carol")}, {Num(6), Num(7)}}));
  t1.Add(MakeATuple({{Str("Dave")}, {Num(8), Num(9)}}));

  AnnotationSpec spec;
  spec.annotated = {1};
  auto t2 = BAnnotate(t1, spec);
  ASSERT_TRUE(t2.ok()) << t2.status();
  ASSERT_EQ(t2->size(), 4u);

  auto find = [&](const std::string& name) -> const ATuple* {
    for (const auto& t : t2->tuples()) {
      if (t.cells[0][0].AsText() == name) return &t;
    }
    return nullptr;
  };
  const ATuple* alice = find("Alice");
  ASSERT_NE(alice, nullptr);
  EXPECT_TRUE(alice->maybe);
  EXPECT_EQ(alice->cells[1].size(), 3u);  // {5, 6, 7}

  const ATuple* bob = find("Bob");
  ASSERT_NE(bob, nullptr);
  EXPECT_TRUE(bob->maybe);
  EXPECT_EQ(bob->cells[1].size(), 1u);

  const ATuple* carol = find("Carol");
  ASSERT_NE(carol, nullptr);
  EXPECT_TRUE(carol->maybe);
  EXPECT_EQ(carol->cells[1].size(), 2u);

  // Dave is pinned: every possible relation has a Dave tuple.
  const ATuple* dave = find("Dave");
  ASSERT_NE(dave, nullptr);
  EXPECT_FALSE(dave->maybe);
  EXPECT_EQ(dave->cells[1].size(), 2u);  // {8, 9}
}

TEST(BAnnotateTest, MaybeInputNeverPins) {
  ATable t({"name", "age"});
  t.Add(MakeATuple({{Str("Dave")}, {Num(8)}}, /*maybe=*/true));
  AnnotationSpec spec;
  spec.annotated = {1};
  auto out = BAnnotate(t, spec);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_TRUE(out->tuples()[0].maybe);
}

TEST(BAnnotateTest, MultipleAnnotatedAttributes) {
  ATable t({"k", "a", "b"});
  t.Add(MakeATuple({{Str("x")}, {Num(1), Num(2)}, {Num(3)}}));
  t.Add(MakeATuple({{Str("x")}, {Num(2)}, {Num(4)}}));
  AnnotationSpec spec;
  spec.annotated = {1, 2};
  auto out = BAnnotate(t, spec);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->tuples()[0].cells[1].size(), 2u);  // {1,2}
  EXPECT_EQ(out->tuples()[0].cells[2].size(), 2u);  // {3,4}
  EXPECT_FALSE(out->tuples()[0].maybe);
}

// ------------------------------------------------------------ cell ops

class CellOpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = ParseMarkup(
        "d", "Price: <b>$619,000</b>\nSqft: 4700\nSchool: Basktall HS");
    ASSERT_TRUE(d.ok());
    doc_ = corpus_.Add(std::move(d).value());
    registry_ = CreateDefaultRegistry();
  }

  Cell WholeDocContain() {
    Cell c;
    c.assignments.push_back(Assignment::Contain(corpus_.Get(doc_).FullSpan()));
    return c;
  }

  Corpus corpus_;
  DocId doc_ = 0;
  std::unique_ptr<FeatureRegistry> registry_;
  CellOpLimits limits_;
};

TEST_F(CellOpsTest, ConstraintRefinesContainToExactNumbers) {
  ConstraintLit k;
  k.feature = "numeric";
  k.var = "p";
  k.value = FeatureValue::kYes;
  auto cell = ApplyConstraintToCell(corpus_, *registry_, WholeDocContain(), k, {});
  ASSERT_TRUE(cell.ok());
  ASSERT_EQ(cell->assignments.size(), 2u);  // $619,000 and 4700
  EXPECT_TRUE(cell->assignments[0].is_exact());
}

TEST_F(CellOpsTest, ConstraintHistoryRechecked) {
  // First bold, then numeric: numeric Refine over the bold region; the
  // result must still satisfy bold (it does: $619,000 is inside bold).
  ConstraintLit bold;
  bold.feature = "bold_font";
  bold.var = "p";
  ConstraintLit numeric;
  numeric.feature = "numeric";
  numeric.var = "p";
  auto after_bold =
      ApplyConstraintToCell(corpus_, *registry_, WholeDocContain(), bold, {});
  ASSERT_TRUE(after_bold.ok());
  auto after_num = ApplyConstraintToCell(corpus_, *registry_, *after_bold,
                                         numeric, {bold});
  ASSERT_TRUE(after_num.ok());
  ASSERT_EQ(after_num->assignments.size(), 1u);
  EXPECT_EQ(after_num->assignments[0].value.AsText(), "$619,000");

  // Order independence (paper §4.2): numeric then bold gives the same set.
  auto a1 = ApplyConstraintToCell(corpus_, *registry_, WholeDocContain(),
                                  numeric, {});
  ASSERT_TRUE(a1.ok());
  auto a2 = ApplyConstraintToCell(corpus_, *registry_, *a1, bold, {numeric});
  ASSERT_TRUE(a2.ok());
  ASSERT_EQ(a2->assignments.size(), 1u);
  EXPECT_EQ(a2->assignments[0].value.AsText(), "$619,000");
}

TEST_F(CellOpsTest, ScalarValuesVerifiedByText) {
  Cell c = Cell::Exact(Value::String("42"));
  ConstraintLit numeric;
  numeric.feature = "numeric";
  numeric.var = "v";
  auto r = ApplyConstraintToCell(corpus_, *registry_, c, numeric, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->assignments.size(), 1u);
  // A markup feature cannot narrow a scalar: value kept (sound).
  ConstraintLit bold;
  bold.feature = "bold_font";
  bold.var = "v";
  auto r2 = ApplyConstraintToCell(corpus_, *registry_, c, bold, {});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->assignments.size(), 1u);
}

TEST_F(CellOpsTest, CompareCellsTriState) {
  Cell big = Cell::Exact(Num(619000));
  Cell small = Cell::Exact(Num(4700));
  Cell threshold = Cell::Exact(Num(500000));
  EXPECT_EQ(CompareCells(corpus_, big, CmpOp::kGt, threshold, limits_),
            SatResult::kAll);
  EXPECT_EQ(CompareCells(corpus_, small, CmpOp::kGt, threshold, limits_),
            SatResult::kNone);
  Cell both;
  both.assignments.push_back(Assignment::Exact(Num(619000)));
  both.assignments.push_back(Assignment::Exact(Num(4700)));
  EXPECT_EQ(CompareCells(corpus_, both, CmpOp::kGt, threshold, limits_),
            SatResult::kSome);
}

TEST_F(CellOpsTest, CompareValuesNullSemantics) {
  EXPECT_TRUE(CompareValues(Value::Null(), CmpOp::kEq, Value::Null()));
  EXPECT_TRUE(CompareValues(Num(1), CmpOp::kNe, Value::Null()));
  EXPECT_FALSE(CompareValues(Num(1), CmpOp::kEq, Value::Null()));
  EXPECT_FALSE(CompareValues(Value::Null(), CmpOp::kLt, Num(1)));
}

TEST_F(CellOpsTest, CompareValuesMixedNumericString) {
  EXPECT_TRUE(CompareValues(Str("$39.99"), CmpOp::kEq, Num(39.99)));
  EXPECT_TRUE(CompareValues(Str("abc"), CmpOp::kLt, Str("abd")));
  // Both sides parse as numbers, so the comparison is numeric: 10 < 9 is
  // false even though "10" < "9" lexicographically.
  EXPECT_FALSE(CompareValues(Str("10"), CmpOp::kLt, Str("9")));
  // A true number never matches non-numeric text.
  EXPECT_FALSE(CompareValues(Str("Sqft"), CmpOp::kGt, Num(500000)));
  EXPECT_TRUE(CompareValues(Str("Sqft"), CmpOp::kNe, Num(500000)));
}

TEST_F(CellOpsTest, NarrowByComparisonFlagsPartial) {
  Cell both;
  both.assignments.push_back(Assignment::Exact(Num(619000)));
  both.assignments.push_back(Assignment::Exact(Num(4700)));
  Cell threshold = Cell::Exact(Num(500000));
  bool partial = false;
  Cell narrowed = NarrowCellByComparison(corpus_, both, CmpOp::kGt, threshold,
                                         limits_, &partial);
  ASSERT_EQ(narrowed.assignments.size(), 1u);
  EXPECT_EQ(*narrowed.assignments[0].value.AsNumber(), 619000);
  // No partiality: the dropped assignment had no satisfying value, the
  // kept one only satisfying values.
  EXPECT_FALSE(partial);

  // contain over the whole document: some sub-spans satisfy, some do not.
  bool partial2 = false;
  Cell narrowed2 = NarrowCellByComparison(corpus_, WholeDocContain(),
                                          CmpOp::kGt, threshold, limits_,
                                          &partial2);
  EXPECT_EQ(narrowed2.assignments.size(), 1u);
  EXPECT_TRUE(partial2);
}

// --------------------------------------------------------------- executor

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto p1 = ParseMarkup("page1", "Price: <b>$250,000</b> Sqft: 2000");
    auto p2 = ParseMarkup("page2", "Price: <b>$619,000</b> Sqft: 4700");
    ASSERT_TRUE(p1.ok());
    ASSERT_TRUE(p2.ok());
    d1_ = corpus_.Add(std::move(p1).value());
    d2_ = corpus_.Add(std::move(p2).value());
    catalog_ = std::make_unique<Catalog>(&corpus_);
    CompactTable pages({"x"});
    for (DocId d : {d1_, d2_}) {
      CompactTuple t;
      t.cells.push_back(Cell::Exact(Value::Doc(d)));
      pages.Add(t);
    }
    ASSERT_TRUE(catalog_->AddTable("pages", std::move(pages)).ok());
    ASSERT_TRUE(catalog_->DeclareIEPredicate("extractPrice", 1, 1).ok());
    catalog_->RegisterBuiltinFunctions();
  }

  Corpus corpus_;
  DocId d1_ = 0, d2_ = 0;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(ExecutorTest, ExtractWithConstraints) {
  const char* src = R"(
    q(x, p) :- pages(x), extractPrice(x, p).
    extractPrice(x, p) :- from(x, p), numeric(p) = yes,
                          bold_font(p) = yes.
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  prog->set_query("q");
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  // Each page's p cell narrowed to the single bold price.
  for (const auto& t : result->tuples()) {
    ASSERT_EQ(t.cells[1].assignments.size(), 1u);
    EXPECT_TRUE(t.cells[1].assignments[0].is_exact());
  }
}

TEST_F(ExecutorTest, ComparisonDropsAndNarrows) {
  const char* src = R"(
    q(x, p) :- pages(x), extractPrice(x, p), p > 500000.
    extractPrice(x, p) :- from(x, p), numeric(p) = yes,
                          bold_font(p) = yes.
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok());
  prog->set_query("q");
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_DOUBLE_EQ(
      *result->tuples()[0].cells[1].assignments[0].value.AsNumber(), 619000);
  EXPECT_FALSE(result->tuples()[0].maybe);
}

TEST_F(ExecutorTest, UnconstrainedAttributeComparisonKeepsMaybe) {
  // Without the bold/numeric narrowing, some sub-span satisfies and most
  // do not -> the page-2 tuple survives as a maybe tuple.
  const char* src = R"(
    q(x, p) :- pages(x), extractPrice(x, p), p > 500000.
    extractPrice(x, p) :- from(x, p).
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok());
  prog->set_query("q");
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->tuples()[0].maybe);
}

TEST_F(ExecutorTest, ExistenceAnnotationMarksMaybe) {
  const char* src = R"(
    q(x, p)? :- pages(x), extractPrice(x, p).
    extractPrice(x, p) :- from(x, p), numeric(p) = yes, bold_font(p) = yes.
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok());
  prog->set_query("q");
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok());
  for (const auto& t : result->tuples()) EXPECT_TRUE(t.maybe);
}

TEST_F(ExecutorTest, AttributeAnnotationGroupsPerKey) {
  // numeric alone leaves two candidate numbers per page; the attribute
  // annotation groups them into one tuple per page.
  const char* src = R"(
    q(x, <p>) :- pages(x), extractPrice(x, p).
    extractPrice(x, p) :- from(x, p), numeric(p) = yes.
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok());
  prog->set_query("q");
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  for (const auto& t : result->tuples()) {
    EXPECT_FALSE(t.maybe);
    EXPECT_EQ(t.cells[1].assignments.size(), 2u);  // price and sqft numbers
  }
}

TEST_F(ExecutorTest, PPredicateAppliesPerInputValue) {
  ASSERT_TRUE(catalog_
                  ->DeclarePPredicate(
                      "double_it", 1, 1,
                      [](const Corpus&, const std::vector<Value>& in)
                          -> Result<std::vector<std::vector<Value>>> {
                        auto n = in[0].AsNumber();
                        if (!n.has_value()) return std::vector<std::vector<Value>>{};
                        return std::vector<std::vector<Value>>{
                            {Value::Number(*n * 2)}};
                      })
                  .ok());
  const char* src = R"(
    q(x, p, d) :- pages(x), extractPrice(x, p), double_it(p, d).
    extractPrice(x, p) :- from(x, p), numeric(p) = yes, bold_font(p) = yes.
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  prog->set_query("q");
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  for (const auto& t : result->tuples()) {
    double p = *t.cells[1].assignments[0].value.AsNumber();
    double d = *t.cells[2].assignments[0].value.AsNumber();
    EXPECT_DOUBLE_EQ(d, 2 * p);
    EXPECT_FALSE(t.maybe);  // exactly one input combination
  }
}

TEST_F(ExecutorTest, ReuseCacheHitsOnUnchangedPredicates) {
  const char* src = R"(
    prices(x, p) :- pages(x), extractPrice(x, p).
    q(x, p) :- prices(x, p), p > 500000.
    extractPrice(x, p) :- from(x, p), numeric(p) = yes, bold_font(p) = yes.
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok());
  prog->set_query("q");
  ReuseCache cache;
  Executor exec(*catalog_);
  ASSERT_TRUE(exec.Execute(*prog, &cache).ok());
  EXPECT_EQ(exec.stats().cache_hits, 0u);
  size_t misses = exec.stats().cache_misses;
  EXPECT_GT(misses, 0u);
  ASSERT_TRUE(exec.Execute(*prog, &cache).ok());
  EXPECT_EQ(exec.stats().cache_hits, misses);
}

// Project moves each cell out of the binding on its column's last use in
// the head, so the first of two uses must copy: a moved-from cell would
// come back empty.
TEST_F(ExecutorTest, HeadNamingAVariableTwiceFillsBothColumns) {
  const char* src = R"(
    q(p, x, p) :- pages(x), extractPrice(x, p).
    extractPrice(x, p) :- from(x, p), numeric(p) = yes, bold_font(p) = yes.
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  prog->set_query("q");
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  for (const CompactTuple& t : result->tuples()) {
    ASSERT_EQ(t.cells.size(), 3u);
    ASSERT_EQ(t.cells[0].assignments.size(), 1u);
    EXPECT_EQ(t.cells[0].ToString(&corpus_), t.cells[2].ToString(&corpus_));
    EXPECT_EQ(t.cells[1].assignments.size(), 1u);
  }
}

// The tables Execute computed stay readable after the cache evicts them:
// the executor and the cache share them.
TEST_F(ExecutorTest, LastIdbOutlivesReuseCacheEviction) {
  const char* src = R"(
    prices(x, p) :- pages(x), extractPrice(x, p).
    q(x, p) :- prices(x, p), p > 500000.
    extractPrice(x, p) :- from(x, p), numeric(p) = yes, bold_font(p) = yes.
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok());
  prog->set_query("q");
  ReuseCache cache;
  Executor exec(*catalog_);
  ASSERT_TRUE(exec.Execute(*prog, &cache).ok());
  ASSERT_GT(cache.size(), 0u);
  const SharedTable prices = exec.last_idb().at("prices");
  cache.NewGeneration();
  cache.NewGeneration();
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_EQ(prices->size(), 2u);
  EXPECT_EQ(exec.last_idb().at("prices").get(), prices.get());
  for (const CompactTuple& t : exec.last_idb().at("q")->tuples()) {
    EXPECT_EQ(t.cells[1].assignments.size(), 1u);
  }
}

SharedTable OneValueTable(double v) {
  CompactTable t({"v"});
  CompactTuple tup;
  tup.cells.push_back(Cell::Exact(Num(v)));
  t.Add(std::move(tup));
  return std::make_shared<const CompactTable>(std::move(t));
}

double ValueOf(const CompactTable& t) {
  const Value& v = t.tuples().at(0).cells.at(0).assignments.at(0).value;
  return v.AsNumber().value_or(-1);
}

// ReuseCache aging: an entry stays while an insert or a hit stamped it
// with the current or the previous generation.
TEST(ReuseCacheTest, EntrySurvivesOneGenerationUnlessUsed) {
  ReuseCache cache;
  cache.Insert(1, {OneValueTable(1)});
  cache.Insert(2, {OneValueTable(2)});
  cache.NewGeneration();
  EXPECT_EQ(cache.size(), 2u);  // both survive one new generation
  ASSERT_NE(cache.Lookup(2).table, nullptr);  // the hit refreshes entry 2
  cache.NewGeneration();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(1).table, nullptr);
  SharedTable two = cache.Lookup(2).table;
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(ValueOf(*two), 2);
  cache.NewGeneration();
  cache.NewGeneration();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ReuseCacheTest, DuplicateInsertKeepsTheFirstTableAndRefreshesIt) {
  ReuseCache cache;
  const SharedTable first = OneValueTable(7);
  cache.Insert(7, {first});
  cache.NewGeneration();
  cache.Insert(7, {OneValueTable(7)});  // a concurrent simulation's twin
  cache.NewGeneration();
  // Stamped by the duplicate insert, the entry outlives the generation
  // that would have dropped it.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(7).table.get(), first.get());
}

// A table inserted while a batch scope is open stays a miss until the
// scope closes; a binding is visible at once.
TEST(ReuseCacheTest, BatchScopeHoldsBackTablesNotBindings) {
  ReuseCache cache;
  cache.Insert(1, {OneValueTable(1)});
  {
    ReuseCache::BatchScope batch(&cache);
    cache.Insert(2, {OneValueTable(2)});
    cache.Insert(3, {}, std::make_shared<const RuleBinding>(
                            RuleBinding{*OneValueTable(3), {{"v", 0}}}));
    EXPECT_NE(cache.Lookup(1).table, nullptr);  // from before the batch
    EXPECT_EQ(cache.Lookup(2).table, nullptr);
    EXPECT_NE(cache.LookupBinding(3), nullptr);
  }
  ASSERT_NE(cache.Lookup(2).table, nullptr);
  EXPECT_EQ(ValueOf(*cache.Lookup(2).table), 2);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

// Run under the asan preset: a table taken before eviction or Clear()
// must stay readable.
TEST(ReuseCacheTest, HeldTableOutlivesEvictionAndClear) {
  ReuseCache cache;
  cache.Insert(3, {OneValueTable(3)});
  const SharedTable evicted = cache.Lookup(3).table;
  cache.Insert(4, {OneValueTable(4)});
  cache.NewGeneration();
  cache.Lookup(4).table;
  cache.NewGeneration();
  EXPECT_EQ(cache.Lookup(3).table, nullptr);
  const SharedTable cleared = cache.Lookup(4).table;
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_NE(evicted, nullptr);
  ASSERT_NE(cleared, nullptr);
  EXPECT_EQ(ValueOf(*evicted), 3);
  EXPECT_EQ(ValueOf(*cleared), 4);
}

// A binding (narrowing reuse) lives in the same entry as its predicate's
// table: a binding-only entry is a table miss, and no insert replaces a
// part an entry already holds.
SharedBinding OneValueBinding(double v) {
  return std::make_shared<const RuleBinding>(
      RuleBinding{*OneValueTable(v), {{"v", 0}}});
}

TEST(ReuseCacheTest, BindingEntries) {
  ReuseCache cache;
  const SharedBinding binding = OneValueBinding(5);
  cache.Insert(5, {}, binding);
  EXPECT_EQ(cache.Lookup(5).table, nullptr);
  EXPECT_EQ(cache.LookupBinding(5).get(), binding.get());
  const SharedTable table = OneValueTable(5);
  cache.Insert(5, {table});  // a later table insert keeps the binding
  EXPECT_EQ(cache.Lookup(5).table.get(), table.get());
  EXPECT_EQ(cache.LookupBinding(5).get(), binding.get());
  cache.Insert(5, {OneValueTable(5)}, OneValueBinding(5));  // a duplicate
  EXPECT_EQ(cache.Lookup(5).table.get(), table.get());
  EXPECT_EQ(cache.LookupBinding(5).get(), binding.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ReuseCacheTest, AgingAndClearDropBindings) {
  ReuseCache cache;
  cache.Insert(1, {OneValueTable(1)}, OneValueBinding(1));
  cache.Insert(2, {}, OneValueBinding(2));
  cache.NewGeneration();
  ASSERT_NE(cache.LookupBinding(2), nullptr);  // the hit refreshes entry 2
  cache.NewGeneration();
  EXPECT_EQ(cache.Lookup(1).table, nullptr);
  EXPECT_EQ(cache.LookupBinding(1), nullptr);
  const SharedBinding held = cache.LookupBinding(2);
  ASSERT_NE(held, nullptr);
  cache.Clear();
  EXPECT_EQ(cache.LookupBinding(2), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(ValueOf(held->table), 2);  // a held binding stays readable
}

TEST(ReuseCacheTest, CacheFaultMakesABindingLookupMiss) {
  ReuseCache cache;
  cache.Insert(1, {OneValueTable(1)}, OneValueBinding(1));
  ASSERT_TRUE(
      resilience::FailPoints::Instance().Configure("exec.cache=error").ok());
  EXPECT_EQ(cache.LookupBinding(1), nullptr);
  EXPECT_EQ(cache.Lookup(1).table, nullptr);
  resilience::FailPoints::Instance().Clear();
  EXPECT_NE(cache.LookupBinding(1), nullptr);
}

TEST_F(ExecutorTest, StatsAccumulate) {
  const char* src = R"(
    q(x, p) :- pages(x), extractPrice(x, p).
    extractPrice(x, p) :- from(x, p), numeric(p) = yes.
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok());
  prog->set_query("q");
  Executor exec(*catalog_);
  ASSERT_TRUE(exec.Execute(*prog).ok());
  const ExecStats first = exec.stats();
  EXPECT_GT(first.rules_evaluated, 0u);
  EXPECT_GT(first.constraint_cells, 0u);
  // stats() describes the last Execute only: a second run of the same
  // program reports the same counts, not twice them.
  ASSERT_TRUE(exec.Execute(*prog).ok());
  EXPECT_EQ(exec.stats().rules_evaluated, first.rules_evaluated);
  EXPECT_EQ(exec.stats().constraint_cells, first.constraint_cells);
  EXPECT_EQ(exec.stats().tuples_emitted, first.tuples_emitted);
}

TEST_F(ExecutorTest, RecursionRejected) {
  // Hand-build a recursive program (the parser allows it; the executor
  // must reject it).
  const char* src = R"(
    q(x) :- pages(x).
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok());
  Rule rec;
  rec.head.predicate = "q";
  rec.head.args = {"x"};
  rec.head.annotated = {false};
  Atom self;
  self.predicate = "q";
  self.args = {Term::Var("x")};
  rec.body.push_back(Literal::OfAtom(self));
  prog->AddRule(rec);
  prog->set_query("q");
  Executor exec(*catalog_);
  EXPECT_FALSE(exec.Execute(*prog).ok());
}

// ------------------------------------------------- observability counters

// Catalog with two small extensional tables whose join costs are exactly
// countable: r = {(1,10),(2,20),(3,30)}, s = {(10,100),(20,200)}.
class CounterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_unique<Catalog>(&corpus_);
    CompactTable r({"a", "b"});
    for (auto [a, b] : {std::pair{1, 10}, {2, 20}, {3, 30}}) {
      CompactTuple t;
      t.cells.push_back(Cell::Exact(Num(a)));
      t.cells.push_back(Cell::Exact(Num(b)));
      r.Add(std::move(t));
    }
    ASSERT_TRUE(catalog_->AddTable("r", std::move(r)).ok());
    CompactTable st({"b", "c"});
    for (auto [b, c] : {std::pair{10, 100}, {20, 200}}) {
      CompactTuple t;
      t.cells.push_back(Cell::Exact(Num(b)));
      t.cells.push_back(Cell::Exact(Num(c)));
      st.Add(std::move(t));
    }
    ASSERT_TRUE(catalog_->AddTable("s", std::move(st)).ok());
    catalog_->RegisterBuiltinFunctions();
  }

  Corpus corpus_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(CounterTest, JoinCountersMatchGroundTruth) {
  auto prog = ParseProgram("q(a, c) :- r(a, b), s(b, c).", *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  prog->set_query("q");
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);  // (1,100), (2,200)

  const ExecStats& stats = exec.stats();
  EXPECT_EQ(stats.rules_evaluated, 1u);
  // Seed binding {()} x r -> 3 pairs; 3 bindings x s -> 6 pairs.
  EXPECT_EQ(stats.join_pairs, 9u);
  // Only the q projection emits: 2 result tuples.
  EXPECT_EQ(stats.tuples_emitted, 2u);
  EXPECT_EQ(stats.constraint_cells, 0u);
  EXPECT_EQ(stats.ppred_invocations, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);   // no cache wired in
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_GT(stats.process_assignments, 0u);
}

// Cells equal under Value::Equals but not in text ("92" and 92, "$35"
// and "35") get their own prepared-cell store entries, so a similar()
// join and a pushed-down comparison return the same table whether they
// prepare cells afresh, fill a store, or read one another program filled.
// The key column k keeps rows with equal values apart in the projection.
TEST(PreparedCellStoreJoinTest, SameTableWithAndWithoutStore) {
  Corpus corpus;
  Catalog catalog(&corpus);
  catalog.RegisterBuiltinFunctions();
  CompactTable l({"k", "a"});
  const Value left[] = {Str("92"), Num(92), Str("$35"), Str("35"),
                        Str("abc")};
  for (size_t k = 0; k < std::size(left); ++k) {
    CompactTuple t;
    t.cells.push_back(Cell::Exact(Num(static_cast<double>(k))));
    t.cells.push_back(Cell::Exact(left[k]));
    l.Add(std::move(t));
  }
  CompactTable r({"b"});
  for (const Value& v : {Num(92), Str("92"), Str("35"), Str("$35"),
                         Str("abd")}) {
    CompactTuple t;
    t.cells.push_back(Cell::Exact(v));
    r.Add(std::move(t));
  }
  ASSERT_TRUE(catalog.AddTable("l", std::move(l)).ok());
  ASSERT_TRUE(catalog.AddTable("r", std::move(r)).ok());
  auto run = [&](const std::string& head, ReuseCache* cache) {
    auto prog = ParseProgram(
        head + "(k, a, b) :- l(k, a), r(b), similar(a, b).\n" + head +
            "c(k, a, b) :- l(k, a), r(b), a < b.\n" + head +
            "u(k, a, b) :- " + head + "(k, a, b).\n" + head +
            "u(k, a, b) :- " + head + "c(k, a, b).",
        catalog);
    EXPECT_TRUE(prog.ok()) << prog.status();
    prog->set_query(head + "u");
    Executor exec(catalog);
    Result<CompactTable> out = exec.Execute(*prog, cache);
    EXPECT_TRUE(out.ok()) << out.status();
    return std::make_pair(out.ok() ? out->ToString(&corpus) : "",
                          exec.stats().cell_prep_hits);
  };
  const std::string fresh = run("q", nullptr).first;
  ReuseCache cache;
  EXPECT_EQ(run("q", &cache).first, fresh);
  // A differently named program misses the table cache and reads the
  // cells the first one prepared.
  auto [stored, hits] = run("p", &cache);
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(stored, fresh);
  // "92" < "abd" holds as text; 92 < "abd" never does (a number against
  // text), though 92 and "92" are equal values.
  EXPECT_NE(fresh.find("({exact(0)}, {exact(\"92\")}, {exact(\"abd\")})"),
            std::string::npos)
      << fresh;
  EXPECT_EQ(fresh.find("({exact(1)}, {exact(92)}, {exact(\"abd\")})"),
            std::string::npos)
      << fresh;
}

TEST_F(CounterTest, CountersAliasTheMetricRegistry) {
  auto prog = ParseProgram("q(a, c) :- r(a, b), s(b, c).", *catalog_);
  ASSERT_TRUE(prog.ok());
  prog->set_query("q");
  obs::MetricRegistry registry;
  ExecOptions options;
  options.metrics = &registry;
  Executor exec(*catalog_, options);
  ASSERT_TRUE(exec.Execute(*prog).ok());
  // Execute publishes its ExecStats to the caller's registry.
  EXPECT_EQ(registry.counter("exec.join_pairs")->value(),
            exec.stats().join_pairs);
  EXPECT_EQ(registry.counter("exec.tuples_emitted")->value(), 2u);
}

TEST_F(ExecutorTest, OperatorCountersMatchGroundTruth) {
  ASSERT_TRUE(catalog_
                  ->DeclarePPredicate(
                      "double_it", 1, 1,
                      [](const Corpus&, const std::vector<Value>& in)
                          -> Result<std::vector<std::vector<Value>>> {
                        auto n = in[0].AsNumber();
                        if (!n.has_value()) return std::vector<std::vector<Value>>{};
                        return std::vector<std::vector<Value>>{
                            {Value::Number(*n * 2)}};
                      })
                  .ok());
  const char* src = R"(
    q(x, p, d) :- pages(x), extractPrice(x, p), double_it(p, d).
    extractPrice(x, p) :- from(x, p), numeric(p) = yes, bold_font(p) = yes.
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  prog->set_query("q");
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);

  const ExecStats& stats = exec.stats();
  // extractPrice is an IE predicate, so Unfold inlines it: one rule runs.
  EXPECT_EQ(stats.rules_evaluated, 1u);
  // `from` binds one p cell per page, then each of numeric/bold_font
  // visits both binding tuples.
  EXPECT_EQ(stats.constraint_cells, 4u);
  // One bold price per page after the constraints -> one p-predicate
  // call per page.
  EXPECT_EQ(stats.ppred_invocations, 2u);
  // The only join is seed x pages (1x2); `from` is not a join.
  EXPECT_EQ(stats.join_pairs, 2u);
  // The single unfolded rule emits the 2 result tuples.
  EXPECT_EQ(stats.tuples_emitted, 2u);
}

// ------------------------------------------- stats lifecycle regressions

TEST_F(ExecutorTest, CachedReexecutionDoesNotDoubleCountProcessSize) {
  const char* src = R"(
    q(x, p) :- pages(x), extractPrice(x, p).
    extractPrice(x, p) :- from(x, p), numeric(p) = yes, bold_font(p) = yes.
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok());
  prog->set_query("q");
  ReuseCache cache;
  Executor exec(*catalog_);
  ASSERT_TRUE(exec.Execute(*prog, &cache).ok());
  size_t cold = exec.stats().process_assignments;
  double cold_values = exec.stats().process_values;
  EXPECT_GT(cold, 0u);
  // Second run is served from the cache; the process size of the run is
  // the same, not doubled (and not zero).
  ASSERT_TRUE(exec.Execute(*prog, &cache).ok());
  EXPECT_GT(exec.stats().cache_hits, 0u);
  EXPECT_EQ(exec.stats().process_assignments, cold);
  EXPECT_DOUBLE_EQ(exec.stats().process_values, cold_values);
}

TEST_F(ExecutorTest, FailedExecutionReportsZeroProcessSize) {
  const char* ok_src = R"(
    q(x, p) :- pages(x), extractPrice(x, p).
    extractPrice(x, p) :- from(x, p), numeric(p) = yes.
  )";
  auto ok_prog = ParseProgram(ok_src, *catalog_);
  ASSERT_TRUE(ok_prog.ok());
  ok_prog->set_query("q");
  Executor exec(*catalog_);
  ASSERT_TRUE(exec.Execute(*ok_prog).ok());
  EXPECT_GT(exec.stats().process_assignments, 0u);

  // A failing execution must not leave the previous run's process size
  // behind: the stats reset at Execute start.
  auto bad_prog = ParseProgram("nope(x) :- pages(x).", *catalog_);
  ASSERT_TRUE(bad_prog.ok());
  bad_prog->set_query("q");  // no rule defines q here
  EXPECT_FALSE(exec.Execute(*bad_prog).ok());
  EXPECT_EQ(exec.stats().process_assignments, 0u);
  EXPECT_DOUBLE_EQ(exec.stats().process_values, 0.0);

  // Nor the size of the predicates it finished before failing: p is
  // computed, then q's from() fails because y is already bound.
  auto late_prog = ParseProgram(R"(
    p(x, y) :- pages(x), from(x, y).
    q(x, y) :- p(x, y), from(x, y).
  )",
                                *catalog_);
  ASSERT_TRUE(late_prog.ok()) << late_prog.status();
  late_prog->set_query("q");
  Result<CompactTable> late = exec.Execute(*late_prog);
  ASSERT_FALSE(late.ok());
  EXPECT_NE(late.status().message().find("from() output already bound"),
            std::string::npos)
      << late.status();
  EXPECT_GT(exec.stats().rules_evaluated, 1u);  // p ran, then q failed
  EXPECT_EQ(exec.stats().process_assignments, 0u);
  EXPECT_DOUBLE_EQ(exec.stats().process_values, 0.0);
}

// ------------------------------------------------------- narrowing reuse

// A rule that adds constraints to a cached narrowable rule is evaluated by
// applying just those constraints to the cached binding
// (docs/PERFORMANCE.md, "Narrowing reuse"). Every Execute with the cache
// is compared byte for byte, its result and every last_idb() table, with a
// cache-less Executor.
class NarrowingTest : public ExecutorTest {
 protected:
  void SetUp() override {
    ExecutorTest::SetUp();
    ASSERT_TRUE(catalog_->DeclareIEPredicate("extractPS", 1, 2).ok());
    ASSERT_TRUE(catalog_
                    ->DeclarePPredicate(
                        "tag", 1, 1,
                        [](const Corpus&, const std::vector<Value>& in)
                            -> Result<std::vector<std::vector<Value>>> {
                          return std::vector<std::vector<Value>>{
                              {Value::Number(in[0].doc())}};
                        })
                    .ok());
  }

  void TearDown() override { resilience::FailPoints::Instance().Clear(); }

  Program Parse(const char* src) {
    auto prog = ParseProgram(src, *catalog_);
    EXPECT_TRUE(prog.ok()) << prog.status();
    if (!prog.ok()) return Program();
    prog->set_query("q");
    return *std::move(prog);
  }

  // `prog` with `feature`(output `output_idx` of extractPS) = yes added,
  // as an answer adds it.
  Program With(Program prog, size_t output_idx, const std::string& feature) {
    EXPECT_TRUE(prog.AddConstraint(*catalog_, "extractPS", output_idx,
                                   feature, FeatureParam::None(),
                                   FeatureValue::kYes)
                    .ok());
    return prog;
  }

  // The result, or the error, and every last_idb() table by predicate.
  std::string Dump(const Executor& exec, const Result<CompactTable>& r) {
    if (!r.ok()) return r.status().ToString();
    std::string out = r->ToString(&corpus_);
    std::map<std::string, const CompactTable*> idb;
    for (const auto& [pred, table] : exec.last_idb()) idb[pred] = table.get();
    for (const auto& [pred, table] : idb) {
      out += "\n" + pred + ": " + table->ToString(&corpus_);
    }
    return out;
  }

  // Executes `prog` with cache_ and with no cache, expects the same bytes,
  // and returns what the Execute with the cache did.
  ExecStats Run(const Program& prog, const ExecOptions& options = {}) {
    Executor cached(*catalog_, options);
    Result<CompactTable> r = cached.Execute(prog, &cache_);
    EXPECT_TRUE(r.ok()) << r.status();
    Executor plain(*catalog_, options);
    EXPECT_EQ(Dump(cached, r), Dump(plain, plain.Execute(prog)))
        << prog.ToString();
    return cached.stats();
  }

  ReuseCache cache_;
};

// prices is narrowable and annotates its head; q filters it, so it is not.
constexpr char kTwoAttributes[] = R"(
  prices(x, <p>, <s>) :- pages(x), extractPS(x, p, s).
  q(x, p, s) :- prices(x, p, s), p > 300000.
  extractPS(x, p, s) :- from(x, p), from(x, s).
)";

TEST_F(NarrowingTest, OneNewConstraintNarrowsTheCachedBinding) {
  const Program base = Parse(kTwoAttributes);
  EXPECT_EQ(Run(base).rules_narrowed, 0u);
  const ExecStats refined = Run(With(base, 0, "numeric"));
  EXPECT_EQ(refined.rules_narrowed, 1u);
  EXPECT_EQ(refined.rules_evaluated, 2u);
  EXPECT_EQ(refined.constraint_cells, 2u);  // two pages, one step
}

// Two constraints at once narrow in two steps, and the rule between them
// keeps its binding: a different second constraint on it then narrows in
// one step, as a simulation does once the session adopted the first.
TEST_F(NarrowingTest, MultiStepNarrowingKeepsTheRuleBetween) {
  const Program base = Parse(kTwoAttributes);
  Run(base);
  const Program first = With(base, 0, "numeric");
  const ExecStats two = Run(With(first, 1, "numeric"));
  EXPECT_EQ(two.rules_narrowed, 1u);
  EXPECT_EQ(two.constraint_cells, 4u);  // two pages, two steps
  const ExecStats one = Run(With(first, 0, "bold_font"));
  EXPECT_EQ(one.rules_narrowed, 1u);
  EXPECT_EQ(one.constraint_cells, 2u);  // two pages, one step
  // The narrowed rules keep no binding of their own: a constraint added to
  // one narrows from the rule between again, in two steps.
  const ExecStats three = Run(With(With(first, 0, "bold_font"), 1, "numeric"));
  EXPECT_EQ(three.rules_narrowed, 1u);
  EXPECT_EQ(three.constraint_cells, 4u);
}

// A comparison or a p-predicate after the seed join, or a second rule for
// the predicate: no narrowing, the same tables.
TEST_F(NarrowingTest, OtherRuleShapesAreEvaluatedInFull) {
  const char* kComparison = R"(
    q(x, p, s) :- pages(x), p > 300000, extractPS(x, p, s).
    extractPS(x, p, s) :- from(x, p), from(x, s).
  )";
  const char* kPPredicate = R"(
    q(x, t, p, s) :- pages(x), tag(x, t), extractPS(x, p, s).
    extractPS(x, p, s) :- from(x, p), from(x, s).
  )";
  const char* kTwoRules = R"(
    q(x, p, s) :- pages(x), extractPS(x, p, s).
    q(x, p, s) :- pages(x), extractPS(x, s, p).
    extractPS(x, p, s) :- from(x, p), from(x, s).
  )";
  for (const char* src : {kComparison, kPPredicate, kTwoRules}) {
    cache_.Clear();
    const Program base = Parse(src);
    Run(base);
    const ExecStats refined = Run(With(base, 0, "numeric"));
    EXPECT_EQ(refined.rules_narrowed, 0u) << src;
    EXPECT_GT(refined.constraint_cells, 0u) << src;
  }
}

// A best-effort base that a fail point degraded keeps no binding, so the
// refined rule is evaluated in full.
TEST_F(NarrowingTest, DegradedBaseKeepsNoBinding) {
  const Program base = Parse(kTwoAttributes);
  ExecOptions best_effort;
  best_effort.best_effort = true;
  ASSERT_TRUE(
      resilience::FailPoints::Instance().Configure("exec.shard=error").ok());
  {
    Executor exec(*catalog_, best_effort);
    ASSERT_TRUE(exec.Execute(base, &cache_).ok());
    ASSERT_TRUE(exec.report().degraded);
  }
  resilience::FailPoints::Instance().Clear();
  const ExecStats refined = Run(With(base, 0, "numeric"), best_effort);
  EXPECT_EQ(refined.rules_narrowed, 0u);
  EXPECT_EQ(refined.cache_hits, 0u);
}

}  // namespace
}  // namespace iflex
