#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <iterator>
#include <string>
#include <vector>

#include "text/corpus.h"
#include "text/document.h"
#include "text/markup.h"
#include "text/markup_parser.h"
#include "text/span.h"

namespace iflex {
namespace {

TEST(SpanTest, ContainsAndOverlaps) {
  Span a(0, 10, 20);
  Span b(0, 12, 18);
  Span c(0, 18, 25);
  Span d(1, 12, 18);
  EXPECT_TRUE(a.Contains(b));
  EXPECT_FALSE(b.Contains(a));
  EXPECT_TRUE(a.Overlaps(c));
  EXPECT_FALSE(a.Contains(c));
  EXPECT_FALSE(a.Contains(d));  // different document
  EXPECT_FALSE(a.Overlaps(d));
}

TEST(SpanTest, OrderingAndEquality) {
  EXPECT_EQ(Span(0, 1, 2), Span(0, 1, 2));
  EXPECT_LT(Span(0, 1, 2), Span(0, 1, 3));
  EXPECT_LT(Span(0, 1, 9), Span(0, 2, 3));
  EXPECT_LT(Span(0, 9, 9), Span(1, 0, 1));
}

TEST(MarkupLayerTest, CoalescesOverlaps) {
  MarkupLayer layer;
  layer.Add(5, 10);
  layer.Add(8, 15);
  layer.Add(20, 25);
  ASSERT_EQ(layer.ranges().size(), 2u);
  EXPECT_TRUE(layer.Covers(5, 15));
  EXPECT_FALSE(layer.Covers(5, 16));
  EXPECT_TRUE(layer.Covers(20, 25));
}

TEST(MarkupLayerTest, CoversDistinctly) {
  MarkupLayer layer;
  layer.Add(5, 10);
  EXPECT_TRUE(layer.CoversDistinctly(5, 10));
  EXPECT_FALSE(layer.CoversDistinctly(6, 10));  // extendable to the left
  EXPECT_FALSE(layer.CoversDistinctly(5, 9));
}

TEST(MarkupLayerTest, MaximalRunsWithinClipsToWindow) {
  MarkupLayer layer;
  layer.Add(5, 10);
  layer.Add(12, 20);
  auto runs = layer.MaximalRunsWithin(7, 15);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], std::make_pair(7u, 10u));
  EXPECT_EQ(runs[1], std::make_pair(12u, 15u));
}

TEST(MarkupLayerTest, DistinctRunsRequireFullContainment) {
  MarkupLayer layer;
  layer.Add(5, 10);
  layer.Add(12, 20);
  auto runs = layer.DistinctRunsWithin(4, 15);
  ASSERT_EQ(runs.size(), 1u);  // [12,20) sticks out of the window
  EXPECT_EQ(runs[0], std::make_pair(5u, 10u));
}

TEST(MarkupLayerTest, IntersectsEdges) {
  MarkupLayer layer;
  layer.Add(5, 10);
  EXPECT_TRUE(layer.Intersects(9, 12));
  EXPECT_FALSE(layer.Intersects(10, 12));  // half-open
  EXPECT_FALSE(layer.Intersects(0, 5));
}

TEST(DocumentTest, TokenizeStripsPunctuation) {
  Document doc("d", "Price: $351,000. Only (two) left!");
  ASSERT_EQ(doc.tokens().size(), 5u);
  auto tok = [&](size_t i) {
    return std::string(
        doc.TextOf(Span(doc.id(), doc.tokens()[i].begin, doc.tokens()[i].end)));
  };
  EXPECT_EQ(tok(0), "Price");
  EXPECT_EQ(tok(1), "$351,000");
  EXPECT_EQ(tok(2), "Only");
  EXPECT_EQ(tok(3), "two");
  EXPECT_EQ(tok(4), "left");
}

// The invariant PrepareSimCell rests on: no alphanumeric character lies
// between adjacent tokens, so TokensOf over any run of tokens equals the
// union of its tokens' sets. A change to token stripping that breaks it
// must fail here rather than silently change similar() verdicts.
TEST(DocumentTest, TokenRunSetsAreUnionsOfTokenSets) {
  const std::string texts[] = {
      "Price: (4700), \"quoted\" -- ... rock&roll O'Brien U.S.A. end.",
      "caf\xc3\xa9 na\xc3\xafve \xe2\x80\x94 'single' [x]y (a)b \xc2\xa0z",
      "tab\tsep\nnew\r\nline\vv\ff...(x)...\"\" -- & 3.5% $1,234.",
      "...(4700),\"quoted\"... (x)",
  };
  for (const std::string& text : texts) {
    Corpus corpus;
    const Document& doc = corpus.Get(corpus.Add(Document("d", text)));
    const std::vector<Token>& tokens = doc.tokens();
    ASSERT_GE(tokens.size(), 2u) << text;
    auto token_text = [&](size_t i) {
      return doc.TextOf(Span(doc.id(), tokens[i].begin, tokens[i].end));
    };
    for (size_t k = 0; k + 1 < tokens.size(); ++k) {
      for (uint32_t p = tokens[k].end; p < tokens[k + 1].begin; ++p) {
        EXPECT_FALSE(std::isalnum(static_cast<unsigned char>(text[p])))
            << "between '" << token_text(k) << "' and '" << token_text(k + 1)
            << "' in: " << text;
      }
    }
    TokenCache& cache = corpus.tokens();
    for (size_t i = 0; i < tokens.size(); ++i) {
      std::vector<ValueId> want;
      for (size_t j = i; j < tokens.size(); ++j) {
        const std::vector<ValueId>& set = cache.TokensOf(token_text(j));
        std::vector<ValueId> merged;
        std::set_union(want.begin(), want.end(), set.begin(), set.end(),
                       std::back_inserter(merged));
        want = std::move(merged);
        EXPECT_EQ(cache.TokensOf(doc.TextOf(
                      Span(doc.id(), tokens[i].begin, tokens[j].end))),
                  want)
            << "tokens " << i << ".." << j << " of: " << text;
      }
    }
  }
  // The hostile tokens themselves: edges stripped, inner punctuation and
  // non-ASCII bytes kept, "--" a token without alphanumerics, "..." none.
  Corpus corpus;
  const Document& doc = corpus.Get(
      corpus.Add(Document("d", "(4700), -- ... rock&roll O'Brien U.S.A.")));
  std::vector<std::string> got;
  for (const Token& t : doc.tokens()) {
    got.emplace_back(doc.TextOf(Span(doc.id(), t.begin, t.end)));
  }
  EXPECT_EQ(got, (std::vector<std::string>{"4700", "--", "rock&roll",
                                           "O'Brien", "U.S.A"}));
  EXPECT_TRUE(corpus.tokens().TokensOf("--").empty());
  EXPECT_EQ(corpus.tokens().TokensOf("rock&roll").size(), 2u);
}

TEST(DocumentTest, SubSpanEnumerationCount) {
  Document doc("d", "a b c");
  std::vector<Span> spans;
  EXPECT_TRUE(doc.EnumerateSubSpans(doc.FullSpan(), 100, &spans));
  // 3 tokens -> 3 + 2 + 1 = 6 token-aligned sub-spans.
  EXPECT_EQ(spans.size(), 6u);
  EXPECT_EQ(doc.CountSubSpans(doc.FullSpan()), 6u);
}

TEST(DocumentTest, SubSpanEnumerationRespectsCap) {
  Document doc("d", "a b c d e f g h");
  std::vector<Span> spans;
  EXPECT_FALSE(doc.EnumerateSubSpans(doc.FullSpan(), 5, &spans));
  EXPECT_EQ(spans.size(), 5u);
}

TEST(DocumentTest, AlignToTokens) {
  Document doc("d", "  hello world  ");
  Span aligned = doc.AlignToTokens(doc.FullSpan());
  EXPECT_EQ(doc.TextOf(aligned), "hello world");
  Span none = doc.AlignToTokens(Span(doc.id(), 0, 2));
  EXPECT_TRUE(none.empty());
}

TEST(DocumentTest, PrecedingLabel) {
  Document doc("d", "Panelists: Jane Smith\nChairs: Bob Jones");
  doc.mutable_layer(MarkupKind::kLabel).Add(0, 10);   // "Panelists:"
  doc.mutable_layer(MarkupKind::kLabel).Add(22, 29);  // "Chairs:"
  auto l1 = doc.PrecedingLabel(15);
  ASSERT_TRUE(l1.has_value());
  EXPECT_EQ(doc.TextOf(*l1), "Panelists:");
  auto l2 = doc.PrecedingLabel(35);
  ASSERT_TRUE(l2.has_value());
  EXPECT_EQ(doc.TextOf(*l2), "Chairs:");
  EXPECT_FALSE(doc.PrecedingLabel(0).has_value());
}

TEST(MarkupParserTest, ParsesTagsIntoLayers) {
  auto doc = ParseMarkup("d", "Price: <b>$351,000</b> and <i>Lincoln</i>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->text(), "Price: $351,000 and Lincoln");
  EXPECT_TRUE(doc->layer(MarkupKind::kBold).Covers(7, 15));
  EXPECT_TRUE(doc->layer(MarkupKind::kItalic).Covers(20, 27));
  EXPECT_FALSE(doc->layer(MarkupKind::kBold).Intersects(16, 27));
}

TEST(MarkupParserTest, NestedTags) {
  auto doc = ParseMarkup("d", "<li><b>X</b> rest</li>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->text(), "X rest");
  EXPECT_TRUE(doc->layer(MarkupKind::kListItem).Covers(0, 6));
  EXPECT_TRUE(doc->layer(MarkupKind::kBold).CoversDistinctly(0, 1));
}

TEST(MarkupParserTest, RejectsMismatchedTags) {
  EXPECT_FALSE(ParseMarkup("d", "<b>x</i>").ok());
  EXPECT_FALSE(ParseMarkup("d", "<b>x").ok());
  EXPECT_FALSE(ParseMarkup("d", "a <foo> b").ok());
  EXPECT_FALSE(ParseMarkup("d", "a < b").ok());
}

TEST(MarkupParserTest, MalformedMarkupReportsParseErrorWithPosition) {
  // Every rejection is a kParseError naming the document and the offset
  // of the offending construct — the load path surfaces these verbatim.
  auto mismatched = ParseMarkup("doc.html", "ab<b>x</i>");
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kParseError);
  EXPECT_NE(mismatched.status().message().find("offset 6"),
            std::string::npos)
      << mismatched.status().message();
  EXPECT_NE(mismatched.status().message().find("doc.html"),
            std::string::npos);

  auto unterminated = ParseMarkup("doc.html", "abc<b unterminated");
  ASSERT_FALSE(unterminated.ok());
  EXPECT_EQ(unterminated.status().code(), StatusCode::kParseError);
  EXPECT_NE(unterminated.status().message().find("offset 3"),
            std::string::npos)
      << unterminated.status().message();

  auto unclosed = ParseMarkup("doc.html", "xy<b>bold text");
  ASSERT_FALSE(unclosed.ok());
  EXPECT_EQ(unclosed.status().code(), StatusCode::kParseError);
  EXPECT_NE(unclosed.status().message().find("offset 2"), std::string::npos)
      << unclosed.status().message();
}

TEST(MarkupParserTest, RejectsPathologicalNesting) {
  // Depth cap: 64 is far above real documents, far below a stack bomb.
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "<b>";
  deep += "x";
  for (int i = 0; i < 100; ++i) deep += "</b>";
  auto doc = ParseMarkup("d", deep);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
  EXPECT_NE(doc.status().message().find("nesting"), std::string::npos);

  // At the cap itself parsing still succeeds.
  std::string ok_deep;
  for (int i = 0; i < 64; ++i) ok_deep += "<b>";
  ok_deep += "x";
  for (int i = 0; i < 64; ++i) ok_deep += "</b>";
  EXPECT_TRUE(ParseMarkup("d", ok_deep).ok());
}

TEST(MarkupParserTest, RenderRoundTrip) {
  std::string src = "<title>IMDB</title>\n<b>#1</b> <i>The Movie</i>";
  auto doc = ParseMarkup("d", src);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(RenderMarkup(*doc), src);
}

TEST(CorpusTest, AddAndLookup) {
  Corpus corpus;
  DocId a = corpus.Add(Document("a", "first doc"));
  DocId b = corpus.Add(Document("b", "second doc"));
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.Get(a).text(), "first doc");
  EXPECT_EQ(*corpus.Find("b"), b);
  EXPECT_FALSE(corpus.Find("zzz").ok());
  EXPECT_EQ(corpus.TextOf(Span(b, 0, 6)), "second");
}

}  // namespace
}  // namespace iflex
