#include "xlog/precise.h"

#include <cctype>
#include <optional>

#include "common/strutil.h"

namespace iflex {

namespace {

using Row = std::vector<Value>;
using Rows = std::vector<Row>;

// First markup run of `kind`, as a value.
std::optional<Value> FirstRun(const Corpus& corpus, const Document& doc,
                              MarkupKind kind) {
  const auto& ranges = doc.layer(kind).ranges();
  if (ranges.empty()) return std::nullopt;
  return Value::OfSpan(corpus,
                       Span(doc.id(), ranges[0].first, ranges[0].second));
}

// The first token after an occurrence of `marker`, starting the search at
// `*pos`; advances `*pos` past the match.
std::optional<Value> TokenAfter(const Corpus& corpus, const Document& doc,
                                std::string_view marker, size_t* pos) {
  size_t at = doc.text().find(marker, *pos);
  if (at == std::string::npos) return std::nullopt;
  *pos = at + marker.size();
  size_t tok = doc.FirstTokenAtOrAfter(static_cast<uint32_t>(*pos));
  if (tok >= doc.tokens().size()) return std::nullopt;
  const Token& t = doc.tokens()[tok];
  return Value::OfSpan(corpus, Span(doc.id(), t.begin, t.end));
}

std::optional<Value> TokenAfter(const Corpus& corpus, const Document& doc,
                                std::string_view marker) {
  size_t pos = 0;
  return TokenAfter(corpus, doc, marker, &pos);
}

const Document& DocOf(const Corpus& corpus, const Value& v) {
  return corpus.Get(v.doc());
}

// Runs of `kind` lying after a label containing `label_word` and before
// the next label.
std::vector<Value> RunsUnderLabel(const Corpus& corpus, const Document& doc,
                                  MarkupKind kind,
                                  std::string_view label_word) {
  std::vector<Value> out;
  const auto& labels = doc.layer(MarkupKind::kLabel).ranges();
  for (size_t i = 0; i < labels.size(); ++i) {
    Span label(doc.id(), labels[i].first, labels[i].second);
    if (!ContainsIgnoreCase(doc.TextOf(label), label_word)) continue;
    uint32_t begin = labels[i].second;
    uint32_t end = i + 1 < labels.size() ? labels[i + 1].first : doc.size();
    for (const auto& [b, e] : doc.layer(kind).MaximalRunsWithin(begin, end)) {
      out.push_back(Value::OfSpan(corpus, Span(doc.id(), b, e)));
    }
  }
  return out;
}

Status Declare(Catalog* catalog, const std::string& name, size_t n_in,
               size_t n_out, PPredicateFn fn) {
  // Idempotent: tasks sharing extractors may install twice.
  if (catalog->Has(name)) return Status::OK();
  return catalog->DeclarePPredicate(name, n_in, n_out, std::move(fn));
}

// ---------------------------------------------------------------- Movies

Rows ImdbRows(const Corpus& corpus, const std::vector<Value>& in) {
  Rows rows;
  const Document& doc = DocOf(corpus, in[0]);
  auto title = FirstRun(corpus, doc, MarkupKind::kItalic);
  auto votes = TokenAfter(corpus, doc, "Votes: ");
  if (title && votes) rows.push_back({*title, *votes});
  return rows;
}

Rows EbertRows(const Corpus& corpus, const std::vector<Value>& in) {
  Rows rows;
  const Document& doc = DocOf(corpus, in[0]);
  auto title = FirstRun(corpus, doc, MarkupKind::kBold);
  auto year = TokenAfter(corpus, doc, " (");
  if (title && year) rows.push_back({*title, *year});
  return rows;
}

// --------------------------------------------------------------- DBLP

Rows GarciaRows(const Corpus& corpus, const std::vector<Value>& in) {
  Rows rows;
  const Document& doc = DocOf(corpus, in[0]);
  auto title = FirstRun(corpus, doc, MarkupKind::kItalic);
  auto year = TokenAfter(corpus, doc, "Journal Year: ");
  if (title) {
    rows.push_back({*title, year ? *year : Value::Null()});
  }
  return rows;
}

Rows VldbRows(const Corpus& corpus, const std::vector<Value>& in) {
  Rows rows;
  const Document& doc = DocOf(corpus, in[0]);
  auto title = FirstRun(corpus, doc, MarkupKind::kItalic);
  size_t pos = 0;
  auto first = TokenAfter(corpus, doc, "pp. ", &pos);
  auto last = TokenAfter(corpus, doc, "- ", &pos);
  if (title && first && last) rows.push_back({*title, *first, *last});
  return rows;
}

Rows VenueRows(const Corpus& corpus, const std::vector<Value>& in) {
  Rows rows;
  const Document& doc = DocOf(corpus, in[0]);
  auto title = FirstRun(corpus, doc, MarkupKind::kItalic);
  auto authors = FirstRun(corpus, doc, MarkupKind::kUnderline);
  if (title && authors) rows.push_back({*title, *authors});
  return rows;
}

// --------------------------------------------------------------- Books

Rows BarnesRows(const Corpus& corpus, const std::vector<Value>& in) {
  Rows rows;
  const Document& doc = DocOf(corpus, in[0]);
  auto title = FirstRun(corpus, doc, MarkupKind::kBold);
  auto price = FirstRun(corpus, doc, MarkupKind::kItalic);
  if (title && price) rows.push_back({*title, *price});
  return rows;
}

Rows AmazonRows(const Corpus& corpus, const std::vector<Value>& in) {
  Rows rows;
  const Document& doc = DocOf(corpus, in[0]);
  auto title = FirstRun(corpus, doc, MarkupKind::kBold);
  auto list = TokenAfter(corpus, doc, "List Price: ");
  auto newp = TokenAfter(corpus, doc, "New: ");
  auto used = TokenAfter(corpus, doc, "Used: ");
  if (title && list && newp && used) {
    rows.push_back({*title, *list, *newp, *used});
  }
  return rows;
}

Rows AmazonTNRows(const Corpus& corpus, const std::vector<Value>& in) {
  Rows rows;
  for (Row& r : AmazonRows(corpus, in)) {
    rows.push_back({r[0], r[2]});
  }
  return rows;
}

// --------------------------------------------------------------- DBLife

bool LooksLikePersonLine(std::string_view s) {
  // At least two capitalized words.
  int caps = 0;
  bool at_word_start = true;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      at_word_start = true;
    } else {
      if (at_word_start && std::isupper(static_cast<unsigned char>(c))) {
        ++caps;
      }
      at_word_start = false;
    }
  }
  return caps >= 2;
}

Rows PanelistRows(const Corpus& corpus, const std::vector<Value>& in) {
  Rows rows;
  const Document& doc = DocOf(corpus, in[0]);
  for (Value& v : RunsUnderLabel(corpus, doc, MarkupKind::kListItem,
                                 "panelists")) {
    if (LooksLikePersonLine(v.AsText())) rows.push_back({std::move(v)});
  }
  return rows;
}

Rows ConfRows(const Corpus& corpus, const std::vector<Value>& in) {
  Rows rows;
  const Document& doc = DocOf(corpus, in[0]);
  // Conference name: the styled (bold) part of the page title that ends
  // with a year.
  const auto& titles = doc.layer(MarkupKind::kTitle).ranges();
  if (titles.empty()) return rows;
  for (const auto& [b, e] : doc.layer(MarkupKind::kBold)
                                .MaximalRunsWithin(titles[0].first,
                                                   titles[0].second)) {
    Value v = Value::OfSpan(corpus, Span(doc.id(), b, e));
    std::string_view s = v.AsText();
    if (s.size() >= 4 &&
        std::isdigit(static_cast<unsigned char>(s[s.size() - 1]))) {
      rows.push_back({std::move(v)});
    }
  }
  return rows;
}

Rows OwnerRows(const Corpus& corpus, const std::vector<Value>& in) {
  Rows rows;
  const Document& doc = DocOf(corpus, in[0]);
  auto title = FirstRun(corpus, doc, MarkupKind::kTitle);
  if (title && LooksLikePersonLine(title->AsText())) {
    rows.push_back({*title});
  }
  return rows;
}

Rows ProjectRows(const Corpus& corpus, const std::vector<Value>& in) {
  Rows rows;
  const Document& doc = DocOf(corpus, in[0]);
  for (Value& v :
       RunsUnderLabel(corpus, doc, MarkupKind::kListItem, "projects")) {
    rows.push_back({std::move(v)});
  }
  return rows;
}

Rows ChairRows(const Corpus& corpus, const std::vector<Value>& in) {
  Rows rows;
  const Document& doc = DocOf(corpus, in[0]);
  const std::string& text = doc.text();
  size_t pos = 0;
  while (true) {
    size_t at = text.find(" chair: ", pos);
    if (at == std::string::npos) break;
    pos = at + 8;
    size_t line_end = text.find('\n', pos);
    if (line_end == std::string::npos) line_end = text.size();
    Span name = doc.AlignToTokens(Span(
        doc.id(), static_cast<uint32_t>(pos), static_cast<uint32_t>(line_end)));
    if (!name.empty()) rows.push_back({Value::OfSpan(corpus, name)});
  }
  return rows;
}

}  // namespace

Status AddPreciseBaseline(TaskInstance* task) {
  Catalog* catalog = task->catalog.get();
  const std::string& id = task->id;
  std::string src;

  if (id == "T1") {
    IFLEX_RETURN_NOT_OK(Declare(catalog, "px_extractIMDB", 1, 2, ImdbRows));
    src = R"(
      t1p(title) :- imdbPages(x), px_extractIMDB(x, title, votes),
                    votes < 25000.
    )";
  } else if (id == "T2") {
    IFLEX_RETURN_NOT_OK(Declare(catalog, "px_extractEbert", 1, 2, EbertRows));
    src = R"(
      t2p(title) :- ebertPages(y), px_extractEbert(y, title, yr),
                    yr >= 1950, yr < 1970.
    )";
  } else if (id == "T3") {
    IFLEX_RETURN_NOT_OK(Declare(catalog, "px_extractIMDB", 1, 2, ImdbRows));
    IFLEX_RETURN_NOT_OK(Declare(catalog, "px_extractEbert", 1, 2, EbertRows));
    IFLEX_RETURN_NOT_OK(Declare(catalog, "px_extractPrasanna", 1, 1,
                                [](const Corpus& corpus,
                                   const std::vector<Value>& in) -> Result<Rows> {
                                  Rows rows;
                                  const Document& doc = DocOf(corpus, in[0]);
                                  auto t = FirstRun(corpus, doc,
                                                    MarkupKind::kHyperlink);
                                  if (t) rows.push_back({*t});
                                  return rows;
                                }));
    src = R"(
      itp(x, t1) :- imdbPages(x), px_extractIMDB(x, t1, votes).
      etp(y, t2) :- ebertPages(y), px_extractEbert(y, t2, yr).
      ptp(z, t3) :- prasannaPages(z), px_extractPrasanna(z, t3).
      t3p(t1) :- itp(x, t1), etp(y, t2), similar(t1, t2),
                 ptp(z, t3), similar(t2, t3).
    )";
  } else if (id == "T4") {
    IFLEX_RETURN_NOT_OK(
        Declare(catalog, "px_extractGarcia", 1, 2, GarciaRows));
    src = R"(
      t4p(title) :- garciaPages(x), px_extractGarcia(x, title, jy),
                    jy != null.
    )";
  } else if (id == "T5") {
    IFLEX_RETURN_NOT_OK(Declare(catalog, "px_extractVLDB", 1, 3, VldbRows));
    src = R"(
      t5p(title) :- vldbPages(x), px_extractVLDB(x, title, fp, lp),
                    lp < fp + 5.
    )";
  } else if (id == "T6") {
    IFLEX_RETURN_NOT_OK(Declare(catalog, "px_extractSIGMOD", 1, 2, VenueRows));
    IFLEX_RETURN_NOT_OK(Declare(catalog, "px_extractICDE", 1, 2, VenueRows));
    src = R"(
      sigp(x, title, a1) :- sigmodPages(x), px_extractSIGMOD(x, title, a1).
      icp(y, a2) :- icdePages(y), px_extractICDE(y, t2, a2).
      t6p(title) :- sigp(x, title, a1), icp(y, a2), similar(a1, a2).
    )";
  } else if (id == "T7") {
    IFLEX_RETURN_NOT_OK(
        Declare(catalog, "px_extractBarnes", 1, 2, BarnesRows));
    src = R"(
      t7p(title) :- barnesPages(x), px_extractBarnes(x, title, price),
                    price > 100.
    )";
  } else if (id == "T8") {
    IFLEX_RETURN_NOT_OK(
        Declare(catalog, "px_extractAmazon", 1, 4, AmazonRows));
    src = R"(
      t8p(t) :- amazonPages(x), px_extractAmazon(x, t, lp, np, up),
                lp = np, up < np.
    )";
  } else if (id == "T9") {
    IFLEX_RETURN_NOT_OK(
        Declare(catalog, "px_extractAmazonTN", 1, 2, AmazonTNRows));
    IFLEX_RETURN_NOT_OK(
        Declare(catalog, "px_extractBarnes", 1, 2, BarnesRows));
    src = R"(
      anp(x, t1, np) :- amazonPages(x), px_extractAmazonTN(x, t1, np).
      bnp(y, t2, bp) :- barnesPages(y), px_extractBarnes(y, t2, bp).
      t9p(t1) :- anp(x, t1, np), bnp(y, t2, bp), similar(t1, t2), np < bp.
    )";
  } else if (id == "Panel") {
    IFLEX_RETURN_NOT_OK(
        Declare(catalog, "px_extractPanelist", 1, 1, PanelistRows));
    IFLEX_RETURN_NOT_OK(Declare(catalog, "px_extractConf", 1, 1, ConfRows));
    src = R"(
      onPanelP(x, y, d) :- docs(d), px_extractPanelist(d, x),
                           px_extractConf(d, y).
    )";
  } else if (id == "Project") {
    IFLEX_RETURN_NOT_OK(Declare(catalog, "px_extractOwner", 1, 1, OwnerRows));
    IFLEX_RETURN_NOT_OK(
        Declare(catalog, "px_extractProject", 1, 1, ProjectRows));
    src = R"(
      worksOnP(x, y, d) :- docs(d), px_extractOwner(d, x),
                           px_extractProject(d, y).
    )";
  } else if (id == "Chair") {
    IFLEX_RETURN_NOT_OK(Declare(catalog, "px_extractChair", 1, 1, ChairRows));
    IFLEX_RETURN_NOT_OK(Declare(catalog, "px_extractConf", 1, 1, ConfRows));
    if (!catalog->Has("chairType")) {
      return Status::Internal("Chair task must declare chairType");
    }
    src = R"(
      chairP(x, z, y, d) :- docs(d), px_extractChair(d, x),
                            chairType(x, z), px_extractConf(d, y).
    )";
  } else {
    return Status::NotFound("no precise baseline for task " + id);
  }

  IFLEX_ASSIGN_OR_RETURN(task->precise_program, ParseProgram(src, *catalog));
  // The query is the last rule's head (the join rule in multi-rule tasks).
  task->precise_program.set_query(
      task->precise_program.rules().back().head.predicate);
  return Status::OK();
}

}  // namespace iflex
