#include <gtest/gtest.h>

#include "alog/catalog.h"
#include "alog/lexer.h"
#include "alog/program.h"
#include "text/markup_parser.h"

namespace iflex {
namespace {

class AlogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d1 = ParseMarkup("h1", "Price: 351000 Sqft: 2750");
    auto d2 = ParseMarkup("s1", "<b>Basktall</b> Cherry Hills");
    ASSERT_TRUE(d1.ok());
    ASSERT_TRUE(d2.ok());
    DocId h = corpus_.Add(std::move(d1).value());
    DocId s = corpus_.Add(std::move(d2).value());

    catalog_ = std::make_unique<Catalog>(&corpus_);
    CompactTable house_pages({"x"});
    CompactTuple ht;
    ht.cells.push_back(Cell::Exact(Value::Doc(h)));
    house_pages.Add(ht);
    ASSERT_TRUE(catalog_->AddTable("housePages", std::move(house_pages)).ok());

    CompactTable school_pages({"y"});
    CompactTuple st;
    st.cells.push_back(Cell::Exact(Value::Doc(s)));
    school_pages.Add(st);
    ASSERT_TRUE(
        catalog_->AddTable("schoolPages", std::move(school_pages)).ok());

    ASSERT_TRUE(catalog_->DeclareIEPredicate("extractHouses", 1, 3).ok());
    ASSERT_TRUE(catalog_->DeclareIEPredicate("extractSchools", 1, 1).ok());
    catalog_->RegisterBuiltinFunctions();
  }

  Corpus corpus_;
  std::unique_ptr<Catalog> catalog_;
};

TEST(LexerTest, BasicTokens) {
  auto toks = Lex("houses(x, <p>)? :- housePages(x), p > 500000.");
  ASSERT_TRUE(toks.ok());
  std::vector<TokKind> kinds;
  for (const auto& t : *toks) kinds.push_back(t.kind);
  EXPECT_EQ(kinds.front(), TokKind::kIdent);
  EXPECT_EQ(kinds.back(), TokKind::kEnd);
  // Contains '?', ':-', '>', '.', number.
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokKind::kQuestion),
            kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokKind::kImplies),
            kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokKind::kGt), kinds.end());
}

TEST(LexerTest, NumbersAndDots) {
  auto toks = Lex("p > 4.5.");
  ASSERT_TRUE(toks.ok());
  // ident, >, number(4.5), dot, end
  ASSERT_EQ(toks->size(), 5u);
  EXPECT_DOUBLE_EQ((*toks)[2].num, 4.5);
  EXPECT_EQ((*toks)[3].kind, TokKind::kDot);
}

TEST(LexerTest, StringsWithEscapes) {
  auto toks = Lex("f(x, \"a\\\"b\") = yes.");
  ASSERT_TRUE(toks.ok());
  bool found = false;
  for (const auto& t : *toks) {
    if (t.kind == TokKind::kString) {
      EXPECT_EQ(t.text, "a\"b");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LexerTest, CommentsIgnored) {
  auto toks = Lex("% a comment\nq(x) :- t(x). # more\n");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "q");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("\"unterminated").ok());
  EXPECT_FALSE(Lex("a : b").ok());
  EXPECT_FALSE(Lex("a ! b").ok());
  EXPECT_FALSE(Lex("a @ b").ok());
}

TEST_F(AlogTest, ParsesPaperProgram) {
  const char* src = R"(
    houses(x, <p>, <a>, <h>) :- housePages(x), extractHouses(x, p, a, h).
    schools(s)? :- schoolPages(y), extractSchools(y, s).
    q(x, p, a, h) :- houses(x, p, a, h), schools(s), p > 500000, a > 4500,
                     approx_match(h, s).
    extractHouses(x, p, a, h) :- from(x, p), from(x, a), from(x, h),
                                 numeric(p) = yes, numeric(a) = yes.
    extractSchools(y, s) :- from(y, s), bold_font(s) = yes.
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  ASSERT_EQ(prog->rules().size(), 5u);
  const Rule& r0 = prog->rules()[0];
  EXPECT_FALSE(r0.head.existence);
  EXPECT_FALSE(r0.head.annotated[0]);
  EXPECT_TRUE(r0.head.annotated[1]);
  EXPECT_TRUE(prog->rules()[1].head.existence);
  EXPECT_TRUE(prog->rules()[3].is_description);
  EXPECT_TRUE(prog->rules()[4].is_description);
  EXPECT_EQ(prog->query(), "houses");
  prog->set_query("q");
  EXPECT_EQ(prog->query(), "q");
}

TEST_F(AlogTest, ParsesParameterizedConstraints) {
  const char* src = R"(
    q(s) :- schoolPages(y), extractSchools(y, s).
    extractSchools(y, s) :- from(y, s), preceded_by(s, "Price:") = yes,
                            max_length(s) = 18, min_value(s) = 500000.
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  const Rule& desc = prog->rules()[1];
  ASSERT_EQ(desc.body.size(), 4u);
  EXPECT_EQ(desc.body[1].constraint.param.str.value(), "Price:");
  EXPECT_EQ(desc.body[2].constraint.param.num.value(), 18);
  EXPECT_EQ(desc.body[3].constraint.param.num.value(), 500000);
}

// A literal beyond the int64 range prints with %g: Term::ToString runs on
// every Execute through the predicate fingerprint, so an undefined
// integer cast here would be reachable from any Alog text.
TEST_F(AlogTest, HugeNumericLiteralPrints) {
  auto prog = ParseProgram(
      "q(x) :- housePages(x), extractHouses(x, p, a, h), "
      "p > 99999999999999999999.\n"
      "extractHouses(x, p, a, h) :- from(x, p), from(x, a), from(x, h).",
      *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  const Literal& cmp = prog->rules()[0].body[2];
  ASSERT_EQ(cmp.kind, Literal::Kind::kComparison);
  EXPECT_EQ(cmp.cmp.rhs.ToString(), "1e+20");
  EXPECT_NE(prog->ToString().find("p > 1e+20"), std::string::npos);
}

TEST_F(AlogTest, RejectsUnsafeRule) {
  // h never bound anywhere.
  const char* src = R"(
    q(h) :- housePages(x).
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_FALSE(prog.ok());
  EXPECT_EQ(prog.status().code(), StatusCode::kUnsafeRule);
}

TEST_F(AlogTest, RejectsUnsafeConstraintVariable) {
  const char* src = R"(
    q(x) :- housePages(x), numeric(p) = yes.
  )";
  EXPECT_FALSE(ParseProgram(src, *catalog_).ok());
}

TEST_F(AlogTest, DescriptionRuleInputVariablesAreBound) {
  // In a description rule the head input x is given; from(x, p) uses it.
  const char* src = R"(
    q(p) :- housePages(x), extractHouses(x, p, a, h).
    extractHouses(x, p, a, h) :- from(x, p), from(x, a), from(x, h).
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
}

TEST_F(AlogTest, RejectsUnknownPredicate) {
  EXPECT_FALSE(ParseProgram("q(x) :- nonesuch(x).", *catalog_).ok());
}

TEST_F(AlogTest, RejectsArityMismatch) {
  EXPECT_FALSE(ParseProgram("q(x) :- housePages(x, y).", *catalog_).ok());
}

TEST_F(AlogTest, RejectsAnnotationsOnDescriptionRules) {
  const char* src = R"(
    q(p) :- housePages(x), extractHouses(x, p, a, h).
    extractHouses(x, <p>, a, h) :- from(x, p), from(x, a), from(x, h).
  )";
  EXPECT_FALSE(ParseProgram(src, *catalog_).ok());
}

TEST_F(AlogTest, UnfoldInlinesDescriptionRules) {
  const char* src = R"(
    q(x, s) :- schoolPages(x), extractSchools(x, s).
    extractSchools(y, s) :- from(y, s), bold_font(s) = yes.
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok()) << prog.status();
  auto unfolded = prog->Unfold(*catalog_);
  ASSERT_TRUE(unfolded.ok()) << unfolded.status();
  ASSERT_EQ(unfolded->rules().size(), 1u);
  const Rule& r = unfolded->rules()[0];
  // schoolPages(x), from(x, s), bold_font(s)=yes.
  ASSERT_EQ(r.body.size(), 3u);
  EXPECT_EQ(r.body[1].atom.predicate, "from");
  EXPECT_EQ(r.body[1].atom.args[0].var, "x");  // unified with the call site
  EXPECT_EQ(r.body[2].constraint.var, "s");
}

TEST_F(AlogTest, UnfoldSupportsMultipleDescriptionRules) {
  const char* src = R"(
    q(x, s) :- schoolPages(x), extractSchools(x, s).
    extractSchools(y, s) :- from(y, s), bold_font(s) = yes.
    extractSchools(y, s) :- from(y, s), italic_font(s) = yes.
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok());
  auto unfolded = prog->Unfold(*catalog_);
  ASSERT_TRUE(unfolded.ok());
  EXPECT_EQ(unfolded->rules().size(), 2u);  // union of the two variants
}

TEST_F(AlogTest, UnfoldFailsWithoutDescriptionRule) {
  const char* src = R"(
    q(x, s) :- schoolPages(x), extractSchools(x, s).
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok());
  EXPECT_FALSE(prog->Unfold(*catalog_).ok());
}

TEST_F(AlogTest, AddConstraintTargetsCorrectVariable) {
  const char* src = R"(
    q(p) :- housePages(x), extractHouses(x, p, a, h).
    extractHouses(x, p, a, h) :- from(x, p), from(x, a), from(x, h).
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok());
  // Attribute index 2 of extractHouses is h (after 1 input).
  ASSERT_TRUE(prog->AddConstraint(*catalog_, "extractHouses", 2, "bold_font",
                                  FeatureParam::None(), FeatureValue::kYes)
                  .ok());
  const Rule& desc = prog->rules()[1];
  const Literal& added = desc.body.back();
  ASSERT_EQ(added.kind, Literal::Kind::kConstraint);
  EXPECT_EQ(added.constraint.var, "h");
  // Idempotent.
  size_t before = desc.body.size();
  ASSERT_TRUE(prog->AddConstraint(*catalog_, "extractHouses", 2, "bold_font",
                                  FeatureParam::None(), FeatureValue::kYes)
                  .ok());
  EXPECT_EQ(prog->rules()[1].body.size(), before);
}

TEST_F(AlogTest, FingerprintChangesWithConstraints) {
  const char* src = R"(
    q(p) :- housePages(x), extractHouses(x, p, a, h).
    extractHouses(x, p, a, h) :- from(x, p), from(x, a), from(x, h).
  )";
  auto prog = ParseProgram(src, *catalog_);
  ASSERT_TRUE(prog.ok());
  uint64_t fp1 = prog->Fingerprint();
  ASSERT_TRUE(prog->AddConstraint(*catalog_, "extractHouses", 0, "numeric",
                                  FeatureParam::None(), FeatureValue::kYes)
                  .ok());
  EXPECT_NE(prog->Fingerprint(), fp1);
}

TEST_F(AlogTest, CatalogLookups) {
  EXPECT_EQ(*catalog_->KindOf("housePages"), PredicateKind::kExtensional);
  EXPECT_EQ(*catalog_->KindOf("extractHouses"), PredicateKind::kIEPredicate);
  EXPECT_EQ(*catalog_->KindOf("from"), PredicateKind::kBuiltinFrom);
  EXPECT_EQ(*catalog_->KindOf("similar"), PredicateKind::kPFunction);
  EXPECT_EQ(*catalog_->ArityOf("extractHouses"), 4u);
  EXPECT_EQ(*catalog_->InputArityOf("extractHouses"), 1u);
  EXPECT_FALSE(catalog_->KindOf("nope").ok());
  EXPECT_FALSE(catalog_->AddTable("housePages", CompactTable({"x"})).ok());
}

TEST_F(AlogTest, TokenJaccard) {
  EXPECT_DOUBLE_EQ(TokenJaccard("The Godfather", "the godfather"), 1.0);
  EXPECT_GT(TokenJaccard("Basktall HS", "Basktall"), 0.4);
  EXPECT_DOUBLE_EQ(TokenJaccard("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("", ""), 1.0);
}

TEST_F(AlogTest, CloneWithSampledTables) {
  Catalog sampled = catalog_->CloneWithSampledTables(0.5, 7);
  // 1-tuple tables sample to at least 1 tuple.
  EXPECT_EQ((*sampled.Table("housePages"))->size(), 1u);
  EXPECT_TRUE(sampled.Has("extractHouses"));
  EXPECT_TRUE(sampled.Has("similar"));
  EXPECT_TRUE(sampled.Has("from"));
}

}  // namespace
}  // namespace iflex
