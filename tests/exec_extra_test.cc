// Deeper executor coverage: join-filter pushdown, the blocking similarity
// join, p-predicate semantics over expansion cells, and psi edge cases.
#include <gtest/gtest.h>

#include "common/strutil.h"
#include "ctable/worlds.h"
#include "exec/annotate.h"
#include "exec/executor.h"
#include "text/markup_parser.h"

namespace iflex {
namespace {

CompactTable OneColStrings(const std::vector<std::string>& values,
                           const std::string& col) {
  CompactTable t({col});
  for (const std::string& s : values) {
    CompactTuple tup;
    tup.cells.push_back(Cell::Exact(Value::String(s)));
    t.Add(std::move(tup));
  }
  return t;
}

class JoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_unique<Catalog>(&corpus_);
    catalog_->RegisterBuiltinFunctions(0.75);
  }

  Corpus corpus_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(JoinTest, SimilarityJoinWithBlockingIndex) {
  // > 32 right-side tuples with exact cells turns the token index on.
  std::vector<std::string> left = {"Principles of Databases",
                                   "Stream Processing Systems"};
  std::vector<std::string> right;
  for (int i = 0; i < 40; ++i) {
    right.push_back("Filler Title Number " + std::to_string(i));
  }
  right.push_back("Principles of Databases");
  ASSERT_TRUE(catalog_->AddTable("l", OneColStrings(left, "a")).ok());
  ASSERT_TRUE(catalog_->AddTable("r", OneColStrings(right, "b")).ok());

  auto prog = ParseProgram("q(a, b) :- l(a), r(b), similar(a, b).",
                           *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->tuples()[0].cells[0].assignments[0].value.AsText(),
            "Principles of Databases");
  // Blocking means nowhere near 2*41 pairs were scored.
  EXPECT_LT(exec.stats().join_pairs, 30u);
}

TEST_F(JoinTest, BlockingAndFullScanAgree) {
  // "&" has no alphanumeric token and TokenIdJaccard(∅, ∅) = 1, so
  // similar("&", "&") holds: blocking must not drop token-less values.
  std::vector<std::string> left = {"Alpha Beta Gamma", "Delta Epsilon", "&"};
  std::vector<std::string> small_right = {"Alpha Beta Gamma", "Zeta Eta",
                                          "Delta Epsilon", "&"};
  // Small table: index off. Padded table: index on. Same matches.
  std::vector<std::string> big_right = small_right;
  for (int i = 0; i < 40; ++i) {
    big_right.push_back("Pad Pad" + std::to_string(i));
  }
  ASSERT_TRUE(catalog_->AddTable("l", OneColStrings(left, "a")).ok());
  ASSERT_TRUE(catalog_->AddTable("rs", OneColStrings(small_right, "b")).ok());
  ASSERT_TRUE(catalog_->AddTable("rb", OneColStrings(big_right, "b")).ok());

  auto p1 = ParseProgram("q(a, b) :- l(a), rs(b), similar(a, b).", *catalog_);
  auto p2 = ParseProgram("q(a, b) :- l(a), rb(b), similar(a, b).", *catalog_);
  ASSERT_TRUE(p1.ok() && p2.ok());
  Executor exec(*catalog_);
  auto r1 = exec.Execute(*p1);
  auto r2 = exec.Execute(*p2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->size(), 3u);
  EXPECT_EQ(r2->size(), 3u);
  EXPECT_EQ(r1->ToString(&corpus_), r2->ToString(&corpus_));
}

TEST_F(JoinTest, SimilarityFilterOnBoundColumns) {
  // Both arguments come from one table, so similar() runs as a filter
  // over bound columns rather than inside a join.
  CompactTable pairs({"a", "b"});
  auto add = [&](std::vector<std::string> as, std::vector<std::string> bs) {
    CompactTuple t;
    for (auto* vals : {&as, &bs}) {
      Cell c;
      for (const std::string& v : *vals) {
        c.assignments.push_back(Assignment::Exact(Value::String(v)));
      }
      t.cells.push_back(std::move(c));
    }
    pairs.Add(std::move(t));
  };
  add({"Alpha Beta"}, {"beta alpha", "Gamma"});  // some values match
  add({"&"}, {"-"});                             // both token-less
  add({"Alpha"}, {"Gamma", "Delta"});            // no value matches
  ASSERT_TRUE(catalog_->AddTable("p", std::move(pairs)).ok());
  auto prog = ParseProgram("q(a, b) :- p(a, b), similar(a, b).", *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  EXPECT_TRUE(result->tuples()[0].maybe);
  EXPECT_FALSE(result->tuples()[1].maybe);
}

TEST_F(JoinTest, ComparisonPushdownIntoCrossJoin) {
  CompactTable nums({"n"});
  for (int i = 0; i < 10; ++i) {
    CompactTuple t;
    t.cells.push_back(Cell::Exact(Value::Number(i)));
    nums.Add(std::move(t));
  }
  ASSERT_TRUE(catalog_->AddTable("n1", nums).ok());
  ASSERT_TRUE(catalog_->AddTable("n2", std::move(nums)).ok());
  auto prog = ParseProgram("q(a, b) :- n1(a), n2(b), a < b.", *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 45u);  // pairs with a < b
}

TEST_F(JoinTest, SharedVariableJoin) {
  ASSERT_TRUE(catalog_->AddTable("l", OneColStrings({"x", "y"}, "a")).ok());
  CompactTable pairs({"a", "c"});
  for (const auto& [k, v] : std::vector<std::pair<std::string, std::string>>{
           {"x", "1"}, {"x", "2"}, {"z", "3"}}) {
    CompactTuple t;
    t.cells.push_back(Cell::Exact(Value::String(k)));
    t.cells.push_back(Cell::Exact(Value::String(v)));
    pairs.Add(std::move(t));
  }
  ASSERT_TRUE(catalog_->AddTable("p", std::move(pairs)).ok());
  auto prog = ParseProgram("q(a, c) :- l(a), p(a, c).", *catalog_);
  ASSERT_TRUE(prog.ok());
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);  // (x,1), (x,2)
}

TEST_F(JoinTest, ConstantInAtomFilters) {
  CompactTable pairs({"a", "c"});
  for (const auto& [k, v] : std::vector<std::pair<std::string, double>>{
           {"x", 1}, {"y", 2}}) {
    CompactTuple t;
    t.cells.push_back(Cell::Exact(Value::String(k)));
    t.cells.push_back(Cell::Exact(Value::Number(v)));
    pairs.Add(std::move(t));
  }
  ASSERT_TRUE(catalog_->AddTable("p", std::move(pairs)).ok());
  auto prog = ParseProgram("q(a) :- p(a, 2).", *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->tuples()[0].cells[0].assignments[0].value.AsText(), "y");
}

TEST_F(JoinTest, RepeatedVariableInAtom) {
  CompactTable pairs({"a", "b"});
  for (const auto& [k, v] : std::vector<std::pair<std::string, std::string>>{
           {"x", "x"}, {"x", "y"}, {"z", "z"}}) {
    CompactTuple t;
    t.cells.push_back(Cell::Exact(Value::String(k)));
    t.cells.push_back(Cell::Exact(Value::String(v)));
    pairs.Add(std::move(t));
  }
  ASSERT_TRUE(catalog_->AddTable("p", std::move(pairs)).ok());
  auto prog = ParseProgram("q(a) :- p(a, a).", *catalog_);
  ASSERT_TRUE(prog.ok());
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);  // (x,x) and (z,z)
}

// Equi-join over awkward keys: numeric-text "30" joins 30, text keys join
// text, 999 matches nothing, and a multi-assignment key that may equal
// either 10 or 20 joins both probes as maybe.
TEST_F(JoinTest, EquiJoinOverAwkwardKeys) {
  auto num = [](double n) { return Cell::Exact(Value::Number(n)); };
  auto str = [](const std::string& s) {
    return Cell::Exact(Value::String(s));
  };
  auto row = [](Cell a, Cell b) {
    CompactTuple t;
    t.cells.push_back(std::move(a));
    t.cells.push_back(std::move(b));
    return t;
  };
  CompactTable r({"a", "b"});
  r.Add(row(num(1), num(10)));
  r.Add(row(num(2), num(20)));
  r.Add(row(num(3), str("30")));
  r.Add(row(num(4), str("abc")));
  r.Add(row(num(5), num(999)));
  ASSERT_TRUE(catalog_->AddTable("r", std::move(r)).ok());
  CompactTable s({"b", "c"});
  s.Add(row(num(10), num(100)));
  s.Add(row(num(20), num(200)));
  s.Add(row(num(30), num(300)));
  s.Add(row(str("abc"), num(400)));
  Cell multi;
  multi.assignments.push_back(Assignment::Exact(Value::Number(10)));
  multi.assignments.push_back(Assignment::Exact(Value::Number(20)));
  s.Add(row(std::move(multi), num(500)));
  s.Add(row(str("xyz"), num(600)));
  s.Add(row(num(70), num(700)));
  s.Add(row(num(80), num(800)));
  s.Add(row(num(90), num(900)));
  ASSERT_TRUE(catalog_->AddTable("s", std::move(s)).ok());

  auto prog = ParseProgram("q(a, c) :- r(a, b), s(b, c).", *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok()) << result.status();
  struct Expected {
    double a, c;
    bool maybe;
  };
  const std::vector<Expected> expected = {{1, 100, false}, {1, 500, true},
                                          {2, 200, false}, {2, 500, true},
                                          {3, 300, false}, {4, 400, false}};
  ASSERT_EQ(result->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const CompactTuple& t = result->tuples()[i];
    EXPECT_EQ(t.cells[0].assignments[0].value.AsNumber().value_or(-1),
              expected[i].a)
        << "tuple " << i;
    EXPECT_EQ(t.cells[1].assignments[0].value.AsNumber().value_or(-1),
              expected[i].c)
        << "tuple " << i;
    EXPECT_EQ(t.maybe, expected[i].maybe) << "tuple " << i;
  }
}

class PPredExpansionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = ParseMarkup("d", "<b>Alice</b> and <b>Bob</b>");
    ASSERT_TRUE(doc.ok());
    d_ = corpus_.Add(std::move(doc).value());
    catalog_ = std::make_unique<Catalog>(&corpus_);
    CompactTable pages({"x"});
    CompactTuple t;
    t.cells.push_back(Cell::Exact(Value::Doc(d_)));
    pages.Add(std::move(t));
    ASSERT_TRUE(catalog_->AddTable("pages", std::move(pages)).ok());
    ASSERT_TRUE(catalog_->DeclareIEPredicate("names", 1, 1).ok());
    ASSERT_TRUE(catalog_
                    ->DeclarePPredicate(
                        "shout", 1, 1,
                        [](const Corpus&, const std::vector<Value>& in)
                            -> Result<std::vector<std::vector<Value>>> {
                          std::string s(in[0].AsText());
                          for (char& c : s) {
                            c = static_cast<char>(
                                std::toupper(static_cast<unsigned char>(c)));
                          }
                          return std::vector<std::vector<Value>>{
                              {Value::String(s)}};
                        })
                    .ok());
  }

  Corpus corpus_;
  DocId d_ = 0;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(PPredExpansionTest, ExpansionCellInputsAreCertain) {
  // names(x, s) yields an expansion cell of two bold names; feeding it to
  // the p-predicate must yield two *non-maybe* tuples (paper §4.1: only
  // non-expansion multiplicity makes outputs maybe).
  auto prog = ParseProgram(R"(
    q(s, u) :- pages(x), names(x, s), shout(s, u).
    names(x, s) :- from(x, s), bold_font(s) = distinct_yes.
  )", *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  prog->set_query("q");
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  // Non-maybe outputs, and pairs stay correlated: ALICE/Alice, BOB/Bob.
  for (const CompactTuple& t : result->tuples()) {
    EXPECT_FALSE(t.maybe);
    EXPECT_EQ(iflex::ToLower(t.cells[1].assignments[0].value.AsText()),
              iflex::ToLower(t.cells[0].assignments[0].value.AsText()));
  }
}

TEST_F(PPredExpansionTest, UncertainCellInputsBecomeMaybe) {
  // A plain (non-expansion) two-value cell is one tuple with an uncertain
  // value -> p-predicate outputs are maybe.
  CompactTable two({"s"});
  CompactTuple t;
  Cell c;
  c.assignments.push_back(Assignment::Exact(Value::String("a")));
  c.assignments.push_back(Assignment::Exact(Value::String("b")));
  t.cells.push_back(std::move(c));
  two.Add(std::move(t));
  ASSERT_TRUE(catalog_->AddTable("two", std::move(two)).ok());
  auto prog = ParseProgram("q(s, u) :- two(s), shout(s, u).", *catalog_);
  ASSERT_TRUE(prog.ok());
  Executor exec(*catalog_);
  auto result = exec.Execute(*prog);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  for (const CompactTuple& tup : result->tuples()) {
    EXPECT_TRUE(tup.maybe);
  }
}

TEST(AnnotateEdgeTest, EmptySpecIsIdentity) {
  Corpus corpus;
  CompactTable t({"a"});
  CompactTuple tup;
  tup.cells.push_back(Cell::Exact(Value::Number(1)));
  t.Add(std::move(tup));
  AnnotationSpec spec;
  auto out = ApplyAnnotations(corpus, t, spec);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);
  EXPECT_FALSE(out->tuples()[0].maybe);
}

TEST(AnnotateEdgeTest, CompactAndATablePathsAgree) {
  Corpus corpus;
  CompactTable t({"k", "v"});
  for (int k = 0; k < 3; ++k) {
    for (int v = 0; v < 2; ++v) {
      CompactTuple tup;
      tup.maybe = (k == 1);
      tup.cells.push_back(Cell::Exact(Value::Number(k)));
      tup.cells.push_back(Cell::Exact(Value::Number(10 * k + v)));
      t.Add(std::move(tup));
    }
  }
  AnnotationSpec spec;
  spec.annotated = {1};
  auto fast = ApplyAnnotations(corpus, t, spec, /*use_compact=*/true);
  auto slow = ApplyAnnotations(corpus, t, spec, /*use_compact=*/false);
  ASSERT_TRUE(fast.ok() && slow.ok());
  auto wf = WorldSet(*CompactToATable(corpus, *fast));
  auto ws = WorldSet(*CompactToATable(corpus, *slow));
  ASSERT_TRUE(wf.ok() && ws.ok());
  EXPECT_EQ(*wf, *ws);
}

}  // namespace
}  // namespace iflex
