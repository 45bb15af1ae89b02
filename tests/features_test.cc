#include <gtest/gtest.h>

#include "features/context_features.h"
#include "features/markup_features.h"
#include "features/registry.h"
#include "features/token_features.h"
#include "text/markup_parser.h"

namespace iflex {
namespace {

Document Doc(const std::string& markup) {
  auto r = ParseMarkup("t", markup);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

std::string TextOfRegion(const Document& doc, const RefinedRegion& r) {
  return std::string(doc.TextOf(r.span));
}

TEST(MarkupFeatureTest, VerifyYesDistinctNo) {
  Document doc = Doc("Price: <b>$99</b> rest");
  MarkupFeature bold("bold_font", MarkupKind::kBold);
  Span price(doc.id(), 7, 10);  // "$99"
  Span partial(doc.id(), 5, 10);
  EXPECT_TRUE(bold.Verify(doc, price, {}, FeatureValue::kYes));
  EXPECT_TRUE(bold.Verify(doc, price, {}, FeatureValue::kDistinctYes));
  EXPECT_FALSE(bold.Verify(doc, partial, {}, FeatureValue::kYes));
  EXPECT_TRUE(bold.Verify(doc, Span(doc.id(), 0, 5), {}, FeatureValue::kNo));
  EXPECT_FALSE(bold.Verify(doc, partial, {}, FeatureValue::kNo));
}

TEST(MarkupFeatureTest, DistinctYesRequiresUncoveredNeighbours) {
  Document doc = Doc("<b>one two</b>");
  MarkupFeature bold("bold_font", MarkupKind::kBold);
  // "one" is bold but its right neighbour is also bold -> not distinct.
  EXPECT_TRUE(bold.Verify(doc, Span(doc.id(), 0, 3), {}, FeatureValue::kYes));
  EXPECT_FALSE(
      bold.Verify(doc, Span(doc.id(), 0, 3), {}, FeatureValue::kDistinctYes));
  EXPECT_TRUE(
      bold.Verify(doc, Span(doc.id(), 0, 7), {}, FeatureValue::kDistinctYes));
}

TEST(MarkupFeatureTest, RefineYesGivesContainRuns) {
  Document doc = Doc("a <b>b c</b> d <b>e</b>");
  MarkupFeature bold("bold_font", MarkupKind::kBold);
  auto runs = bold.Refine(doc, doc.FullSpan(), {}, FeatureValue::kYes);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(TextOfRegion(doc, runs[0]), "b c");
  EXPECT_FALSE(runs[0].exact);
  EXPECT_EQ(TextOfRegion(doc, runs[1]), "e");
}

TEST(MarkupFeatureTest, RefineDistinctYesGivesExactRuns) {
  Document doc = Doc("a <b>b c</b> d");
  MarkupFeature bold("bold_font", MarkupKind::kBold);
  auto runs = bold.Refine(doc, doc.FullSpan(), {}, FeatureValue::kDistinctYes);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].exact);
  EXPECT_EQ(TextOfRegion(doc, runs[0]), "b c");
}

TEST(MarkupFeatureTest, RefineNoGivesGaps) {
  Document doc = Doc("aa <b>bb</b> cc");
  MarkupFeature bold("bold_font", MarkupKind::kBold);
  auto runs = bold.Refine(doc, doc.FullSpan(), {}, FeatureValue::kNo);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(TextOfRegion(doc, runs[0]), "aa ");
  EXPECT_EQ(TextOfRegion(doc, runs[1]), " cc");
}

TEST(NumericFeatureTest, VerifyAndRefine) {
  Document doc = Doc("Price: $351,000 area 2750 school Lincoln");
  NumericFeature numeric;
  auto runs = numeric.Refine(doc, doc.FullSpan(), {}, FeatureValue::kYes);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(TextOfRegion(doc, runs[0]), "$351,000");
  EXPECT_TRUE(runs[0].exact);
  EXPECT_EQ(TextOfRegion(doc, runs[1]), "2750");
  EXPECT_TRUE(numeric.Verify(doc, runs[0].span, {}, FeatureValue::kYes));
  EXPECT_TRUE(
      numeric.Verify(doc, Span(doc.id(), 0, 5), {}, FeatureValue::kNo));
}

TEST(NumericFeatureTest, VerifyText) {
  NumericFeature numeric;
  EXPECT_TRUE(*numeric.VerifyText("$42", {}, FeatureValue::kYes));
  EXPECT_FALSE(*numeric.VerifyText("fortytwo", {}, FeatureValue::kYes));
  EXPECT_TRUE(*numeric.VerifyText("fortytwo", {}, FeatureValue::kNo));
}

TEST(CapitalizedFeatureTest, RefineRuns) {
  Document doc = Doc("the Big Apple fell on New York today");
  CapitalizedFeature cap;
  auto runs = cap.Refine(doc, doc.FullSpan(), {}, FeatureValue::kYes);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(TextOfRegion(doc, runs[0]), "Big Apple");
  EXPECT_EQ(TextOfRegion(doc, runs[1]), "New York");
  EXPECT_TRUE(cap.Verify(doc, runs[0].span, {}, FeatureValue::kYes));
}

TEST(PersonNameFeatureTest, VerifyShapes) {
  Document doc = Doc("speaker Jane A. Smith and DBMS 2007 panel");
  PersonNameFeature person;
  auto runs = person.Refine(doc, doc.FullSpan(), {}, FeatureValue::kYes);
  bool found = false;
  for (const auto& r : runs) {
    if (TextOfRegion(doc, r) == "Jane A. Smith") found = true;
    // No candidate may contain a number.
    EXPECT_EQ(TextOfRegion(doc, r).find("2007"), std::string::npos);
  }
  EXPECT_TRUE(found);
}

TEST(ValueBoundFeatureTest, MinValue) {
  Document doc = Doc("votes 24567 year 1972 rank 12");
  ValueBoundFeature min_value(/*is_min=*/true);
  FeatureParam p = FeatureParam::Num(5000);
  auto runs = min_value.Refine(doc, doc.FullSpan(), p, FeatureValue::kYes);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(TextOfRegion(doc, runs[0]), "24567");
  EXPECT_TRUE(min_value.Verify(doc, runs[0].span, p, FeatureValue::kYes));
  EXPECT_FALSE(
      min_value.Verify(doc, Span(doc.id(), 12, 16), p, FeatureValue::kYes));
}

TEST(ValueBoundFeatureTest, MaxValueVerifyText) {
  ValueBoundFeature max_value(/*is_min=*/false);
  FeatureParam p = FeatureParam::Num(100);
  EXPECT_TRUE(*max_value.VerifyText("$99.50", p, FeatureValue::kYes));
  EXPECT_FALSE(*max_value.VerifyText("101", p, FeatureValue::kYes));
  EXPECT_FALSE(*max_value.VerifyText("text", p, FeatureValue::kYes));
}

TEST(MaxLengthFeatureTest, VerifyAndWindows) {
  Document doc = Doc("one two three four");
  MaxLengthFeature max_len;
  FeatureParam p = FeatureParam::Num(7);
  EXPECT_TRUE(max_len.Verify(doc, Span(doc.id(), 0, 7), p, FeatureValue::kYes));
  EXPECT_FALSE(
      max_len.Verify(doc, Span(doc.id(), 0, 13), p, FeatureValue::kYes));
  auto runs = max_len.Refine(doc, doc.FullSpan(), p, FeatureValue::kYes);
  // Every token-aligned sub-span of length <= 7 must fall in some window.
  for (const auto& r : runs) {
    EXPECT_LE(r.span.length(), 7u);
  }
  ASSERT_FALSE(runs.empty());
  EXPECT_EQ(TextOfRegion(doc, runs[0]), "one two");
}

// A negative bound admits no text, and a bound past any integer type
// admits all, without an out-of-range float-to-integer cast.
TEST(MaxLengthFeatureTest, OutOfRangeParameters) {
  Document doc = Doc("one two three four");
  MaxLengthFeature max_len;
  const FeatureParam negative = FeatureParam::Num(-1);
  EXPECT_FALSE(max_len.Verify(doc, Span(doc.id(), 0, 3), negative,
                              FeatureValue::kYes));
  EXPECT_EQ(max_len.VerifyText("one", negative, FeatureValue::kYes), false);
  EXPECT_EQ(max_len.VerifyText("", negative, FeatureValue::kYes), false);
  EXPECT_EQ(max_len.VerifyText("one", negative, FeatureValue::kNo), true);
  EXPECT_TRUE(
      max_len.Refine(doc, doc.FullSpan(), negative, FeatureValue::kYes)
          .empty());
  const FeatureParam huge = FeatureParam::Num(1e30);
  EXPECT_TRUE(max_len.Verify(doc, doc.FullSpan(), huge, FeatureValue::kYes));
  EXPECT_EQ(max_len.VerifyText("one two", huge, FeatureValue::kYes), true);
  auto runs = max_len.Refine(doc, doc.FullSpan(), huge, FeatureValue::kYes);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(TextOfRegion(doc, runs[0]), "one two three four");
}

TEST(InFirstHalfFeatureTest, Basics) {
  Document doc = Doc("aaaa bbbb cccc dddd");  // 19 chars, half = 9
  InFirstHalfFeature f;
  EXPECT_TRUE(f.Verify(doc, Span(doc.id(), 0, 4), {}, FeatureValue::kYes));
  EXPECT_FALSE(f.Verify(doc, Span(doc.id(), 10, 14), {}, FeatureValue::kYes));
  auto yes_runs = f.Refine(doc, doc.FullSpan(), {}, FeatureValue::kYes);
  ASSERT_EQ(yes_runs.size(), 1u);
  EXPECT_EQ(yes_runs[0].span.end, 9u);
}

TEST(AdjacencyFeatureTest, PrecededBy) {
  Document doc = Doc("Price: $35.99. Only two left.");
  AdjacencyFeature preceded(/*before=*/true);
  FeatureParam p = FeatureParam::Str("Price:");
  Span price(doc.id(), 7, 13);  // "$35.99"
  EXPECT_TRUE(preceded.Verify(doc, price, p, FeatureValue::kYes));
  EXPECT_FALSE(
      preceded.Verify(doc, Span(doc.id(), 15, 19), p, FeatureValue::kYes));
  auto runs = preceded.Refine(doc, doc.FullSpan(), p, FeatureValue::kYes);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].span.begin, 6u);  // right after "Price:"
}

TEST(AdjacencyFeatureTest, PrecededByStopsAtLineBreak) {
  Document doc = Doc("Price:\n$35.99");
  AdjacencyFeature preceded(/*before=*/true);
  FeatureParam p = FeatureParam::Str("Price:");
  // The label is on the previous line; our preceded_by is line-local.
  EXPECT_FALSE(
      preceded.Verify(doc, Span(doc.id(), 7, 13), p, FeatureValue::kYes));
}

TEST(AdjacencyFeatureTest, FollowedBy) {
  Document doc = Doc("123 - 135 pages");
  AdjacencyFeature followed(/*before=*/false);
  FeatureParam p = FeatureParam::Str("-");
  EXPECT_TRUE(
      followed.Verify(doc, Span(doc.id(), 0, 3), p, FeatureValue::kYes));
  EXPECT_FALSE(
      followed.Verify(doc, Span(doc.id(), 6, 9), p, FeatureValue::kYes));
}

TEST(EdgeRegexFeatureTest, StartsAndEndsWith) {
  Document doc = Doc("SIGMOD 2007 Conference");
  EdgeRegexFeature starts(/*at_start=*/true);
  EdgeRegexFeature ends(/*at_start=*/false);
  Span conf(doc.id(), 0, 11);  // "SIGMOD 2007"
  EXPECT_TRUE(starts.Verify(doc, conf, FeatureParam::Str("[A-Z][A-Z]+"),
                            FeatureValue::kYes));
  EXPECT_TRUE(ends.Verify(doc, conf, FeatureParam::Str("19\\d\\d|20\\d\\d"),
                          FeatureValue::kYes));
  EXPECT_FALSE(ends.Verify(doc, doc.FullSpan(),
                           FeatureParam::Str("19\\d\\d|20\\d\\d"),
                           FeatureValue::kYes));
  // Invalid regex matches nothing rather than crashing.
  EXPECT_FALSE(starts.Verify(doc, conf, FeatureParam::Str("[unclosed"),
                             FeatureValue::kYes));
}

TEST(ContainsFeatureTest, Basics) {
  Document doc = Doc("The SIGMOD panel on IE");
  ContainsFeature contains;
  EXPECT_TRUE(contains.Verify(doc, doc.FullSpan(), FeatureParam::Str("panel"),
                              FeatureValue::kYes));
  EXPECT_TRUE(contains.Verify(doc, Span(doc.id(), 0, 3),
                              FeatureParam::Str("panel"), FeatureValue::kNo));
}

TEST(PrecLabelFeaturesTest, ContainsAndDistance) {
  Document doc =
      Doc("<label>Panelists:</label> Jane Smith\n<label>Chairs:</label> Bob");
  PrecLabelContainsFeature plc;
  PrecLabelMaxDistFeature pld;
  Span jane(doc.id(), 11, 21);
  EXPECT_TRUE(plc.Verify(doc, jane, FeatureParam::Str("panel"),
                         FeatureValue::kYes));
  EXPECT_FALSE(plc.Verify(doc, jane, FeatureParam::Str("chair"),
                          FeatureValue::kYes));
  EXPECT_TRUE(
      pld.Verify(doc, jane, FeatureParam::Num(5), FeatureValue::kYes));
  EXPECT_FALSE(
      pld.Verify(doc, jane, FeatureParam::Num(0), FeatureValue::kYes));

  // Refine for "panel" must not cross into the Chairs region.
  auto runs = plc.Refine(doc, doc.FullSpan(), FeatureParam::Str("panel"),
                         FeatureValue::kYes);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_LE(runs[0].span.end, 38u);
}

TEST(RegistryTest, DefaultRegistryHasCoreFeatures) {
  auto reg = CreateDefaultRegistry();
  for (const char* name :
       {"numeric", "bold_font", "italic_font", "underlined", "hyperlinked",
        "capitalized", "in_list", "in_title", "in_first_half",
        "prec_label_contains", "prec_label_max_dist", "preceded_by",
        "followed_by", "starts_with", "ends_with", "contains_str",
        "min_value", "max_value", "max_length", "person_name"}) {
    EXPECT_TRUE(reg->Has(name)) << name;
  }
  EXPECT_FALSE(reg->Has("no_such_feature"));
  EXPECT_FALSE(reg->Get("no_such_feature").ok());
}

TEST(RegistryTest, RejectsDuplicates) {
  FeatureRegistry reg;
  EXPECT_TRUE(reg.Register(std::make_unique<NumericFeature>()).ok());
  EXPECT_FALSE(reg.Register(std::make_unique<NumericFeature>()).ok());
}

// Property: for every built-in paramless feature and every refined region
// with exact=false, Verify must accept the region itself (the region is a
// *satisfying* maximal sub-span).
TEST(FeaturePropertyTest, RefinedRegionsSatisfyVerify) {
  Document doc = Doc(
      "<title>B&N Books</title>\n<b>Database Systems</b>\n"
      "Our Price: <i>$123.45</i>\nISBN: 0131873253\n<li>item one</li>");
  auto reg = CreateDefaultRegistry();
  for (const std::string& name : reg->names()) {
    const Feature* f = *reg->Get(name);
    if (f->param_kind() != ParamKind::kNone) continue;
    for (FeatureValue v : f->AnswerSpace()) {
      for (const RefinedRegion& r :
           f->Refine(doc, doc.FullSpan(), {}, v)) {
        if (r.span.empty()) continue;
        EXPECT_TRUE(f->Verify(doc, r.span, {}, v))
            << name << " " << FeatureValueToString(v) << " region '"
            << std::string(doc.TextOf(r.span)) << "'";
      }
    }
  }
}

}  // namespace
}  // namespace iflex
