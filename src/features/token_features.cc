#include "features/token_features.h"

#include <cctype>

#include "common/strutil.h"

namespace iflex {

namespace {

bool IsCapitalizedWord(std::string_view w) {
  return !w.empty() && std::isupper(static_cast<unsigned char>(w.front()));
}

// "J." or "J" style middle initial.
bool IsInitial(std::string_view w) {
  if (w.empty() || w.size() > 2) return false;
  if (!std::isupper(static_cast<unsigned char>(w[0]))) return false;
  return w.size() == 1 || w[1] == '.';
}

// A full name word: capitalized, alphabetic, at least two letters — the
// shape required at the start and end of a person name ("M. Wu" is not a
// name, "Jane A. Smith" is).
bool IsFullNameWord(std::string_view w) {
  if (w.size() < 2 || !std::isupper(static_cast<unsigned char>(w[0]))) {
    return false;
  }
  for (char c : w) {
    if (!std::isalpha(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

std::vector<RefinedRegion> RefineTokenRuns(
    const Document& doc, const Span& span,
    const std::function<bool(std::string_view)>& pred, bool exact_per_token) {
  std::vector<RefinedRegion> out;
  const auto& tokens = doc.tokens();
  size_t first = doc.FirstTokenAtOrAfter(span.begin);
  size_t last = doc.TokensEndingBy(span.end);
  size_t i = first;
  while (i < last) {
    std::string_view w = doc.TextOf(Span(span.doc, tokens[i].begin, tokens[i].end));
    if (!pred(w)) {
      ++i;
      continue;
    }
    if (exact_per_token) {
      out.push_back(RefinedRegion{Span(span.doc, tokens[i].begin, tokens[i].end),
                                  /*exact=*/true});
      ++i;
      continue;
    }
    size_t j = i;
    while (j + 1 < last) {
      std::string_view next = doc.TextOf(
          Span(span.doc, tokens[j + 1].begin, tokens[j + 1].end));
      if (!pred(next)) break;
      ++j;
    }
    out.push_back(RefinedRegion{
        Span(span.doc, tokens[i].begin, tokens[j].end), /*exact=*/false});
    i = j + 1;
  }
  return out;
}

// ---------------------------------------------------------------- numeric

bool NumericFeature::Verify(const Document& doc, const Span& span,
                            const FeatureParam& /*param*/,
                            FeatureValue v) const {
  bool numeric = IsLooseNumber(doc.TextOf(span));
  switch (v) {
    case FeatureValue::kYes:
    case FeatureValue::kDistinctYes:
      return numeric;
    case FeatureValue::kNo:
    case FeatureValue::kDistinctNo:
      return !numeric;
    case FeatureValue::kUnknown:
      return true;
  }
  return false;
}

std::vector<RefinedRegion> NumericFeature::Refine(const Document& doc,
                                                  const Span& span,
                                                  const FeatureParam& /*param*/,
                                                  FeatureValue v) const {
  if (v == FeatureValue::kNo || v == FeatureValue::kDistinctNo ||
      v == FeatureValue::kUnknown) {
    // Non-numeric sub-spans are nearly everything; no narrowing possible.
    return {RefinedRegion{span, /*exact=*/false}};
  }
  // A numeric value is a single numeric token ("$351,000"); multi-token
  // spans never parse as one number.
  return RefineTokenRuns(doc, span, [](std::string_view w) {
    return IsLooseNumber(w);
  }, /*exact_per_token=*/true);
}

std::optional<bool> NumericFeature::VerifyText(std::string_view text,
                                               const FeatureParam& /*param*/,
                                               FeatureValue v) const {
  bool numeric = IsLooseNumber(text);
  switch (v) {
    case FeatureValue::kYes:
    case FeatureValue::kDistinctYes:
      return numeric;
    case FeatureValue::kNo:
    case FeatureValue::kDistinctNo:
      return !numeric;
    case FeatureValue::kUnknown:
      return true;
  }
  return std::nullopt;
}

std::string NumericFeature::QuestionText(const std::string& attr) const {
  return StringPrintf("is %s numeric?", attr.c_str());
}

// ------------------------------------------------------------ capitalized

bool CapitalizedFeature::Verify(const Document& doc, const Span& span,
                                const FeatureParam& /*param*/,
                                FeatureValue v) const {
  const auto& tokens = doc.tokens();
  size_t first = doc.FirstTokenAtOrAfter(span.begin);
  size_t last = doc.TokensEndingBy(span.end);
  bool all_cap = first < last;
  for (size_t i = first; i < last && all_cap; ++i) {
    all_cap = IsCapitalizedWord(
        doc.TextOf(Span(span.doc, tokens[i].begin, tokens[i].end)));
  }
  switch (v) {
    case FeatureValue::kYes:
    case FeatureValue::kDistinctYes:
      return all_cap;
    case FeatureValue::kNo:
    case FeatureValue::kDistinctNo:
      return !all_cap;
    case FeatureValue::kUnknown:
      return true;
  }
  return false;
}

std::vector<RefinedRegion> CapitalizedFeature::Refine(
    const Document& doc, const Span& span, const FeatureParam& /*param*/,
    FeatureValue v) const {
  if (v != FeatureValue::kYes && v != FeatureValue::kDistinctYes) {
    return {RefinedRegion{span, /*exact=*/false}};
  }
  return RefineTokenRuns(doc, span, IsCapitalizedWord,
                         /*exact_per_token=*/false);
}

std::string CapitalizedFeature::QuestionText(const std::string& attr) const {
  return StringPrintf("is %s capitalized?", attr.c_str());
}

// ------------------------------------------------------------ person_name

bool PersonNameFeature::Verify(const Document& doc, const Span& span,
                               const FeatureParam& /*param*/,
                               FeatureValue v) const {
  const auto& tokens = doc.tokens();
  size_t first = doc.FirstTokenAtOrAfter(span.begin);
  size_t last = doc.TokensEndingBy(span.end);
  size_t n = last > first ? last - first : 0;
  bool looks = false;
  if (n >= 2 && n <= 4) {
    looks = true;
    for (size_t i = first; i < last; ++i) {
      std::string_view w =
          doc.TextOf(Span(span.doc, tokens[i].begin, tokens[i].end));
      bool inner = i > first && i + 1 < last;
      bool edge_ok = IsFullNameWord(w);
      if (!(edge_ok || (inner && IsInitial(w)))) {
        looks = false;
        break;
      }
      if (IsLooseNumber(w)) {
        looks = false;
        break;
      }
    }
    // The span must cover those tokens exactly (no stray leading text).
    if (looks) {
      Span aligned = doc.AlignToTokens(span);
      looks = aligned.begin == tokens[first].begin &&
              aligned.end == tokens[last - 1].end;
    }
  }
  switch (v) {
    case FeatureValue::kYes:
    case FeatureValue::kDistinctYes:
      return looks;
    case FeatureValue::kNo:
    case FeatureValue::kDistinctNo:
      return !looks;
    case FeatureValue::kUnknown:
      return true;
  }
  return false;
}

std::vector<RefinedRegion> PersonNameFeature::Refine(
    const Document& doc, const Span& span, const FeatureParam& param,
    FeatureValue v) const {
  if (v != FeatureValue::kYes && v != FeatureValue::kDistinctYes) {
    return {RefinedRegion{span, /*exact=*/false}};
  }
  // Slide over capitalized runs and emit every 2..4-token window as an
  // exact candidate; windows are re-verified by Verify so initials work.
  std::vector<RefinedRegion> out;
  const auto& tokens = doc.tokens();
  size_t first = doc.FirstTokenAtOrAfter(span.begin);
  size_t last = doc.TokensEndingBy(span.end);
  for (size_t i = first; i < last; ++i) {
    for (size_t n = 2; n <= 4 && i + n <= last; ++n) {
      Span cand(span.doc, tokens[i].begin, tokens[i + n - 1].end);
      if (Verify(doc, cand, param, FeatureValue::kYes)) {
        out.push_back(RefinedRegion{cand, /*exact=*/true});
      }
    }
  }
  return out;
}

std::string PersonNameFeature::QuestionText(const std::string& attr) const {
  return StringPrintf("does %s look like a person name?", attr.c_str());
}

// ---------------------------------------------------------- min/max value

bool ValueBoundFeature::Verify(const Document& doc, const Span& span,
                               const FeatureParam& param,
                               FeatureValue v) const {
  auto parsed = ParseLooseNumber(doc.TextOf(span));
  bool holds = parsed.has_value() && param.num.has_value() &&
               (is_min_ ? *parsed >= *param.num : *parsed <= *param.num);
  switch (v) {
    case FeatureValue::kYes:
    case FeatureValue::kDistinctYes:
      return holds;
    case FeatureValue::kNo:
    case FeatureValue::kDistinctNo:
      return !holds;
    case FeatureValue::kUnknown:
      return true;
  }
  return false;
}

std::optional<bool> ValueBoundFeature::VerifyText(std::string_view text,
                                                  const FeatureParam& param,
                                                  FeatureValue v) const {
  auto parsed = ParseLooseNumber(text);
  bool holds = parsed.has_value() && param.num.has_value() &&
               (is_min_ ? *parsed >= *param.num : *parsed <= *param.num);
  switch (v) {
    case FeatureValue::kYes:
    case FeatureValue::kDistinctYes:
      return holds;
    case FeatureValue::kNo:
    case FeatureValue::kDistinctNo:
      return !holds;
    case FeatureValue::kUnknown:
      return true;
  }
  return std::nullopt;
}

std::vector<RefinedRegion> ValueBoundFeature::Refine(
    const Document& doc, const Span& span, const FeatureParam& param,
    FeatureValue v) const {
  if (v != FeatureValue::kYes && v != FeatureValue::kDistinctYes) {
    return {RefinedRegion{span, /*exact=*/false}};
  }
  bool is_min = is_min_;
  double bound = param.num.value_or(is_min_ ? -1e300 : 1e300);
  return RefineTokenRuns(
      doc, span,
      [is_min, bound](std::string_view w) {
        auto p = ParseLooseNumber(w);
        return p.has_value() && (is_min ? *p >= bound : *p <= bound);
      },
      /*exact_per_token=*/true);
}

std::string ValueBoundFeature::QuestionText(const std::string& attr) const {
  return StringPrintf("what is a %s value for %s?",
                      is_min_ ? "minimal" : "maximal", attr.c_str());
}

// ------------------------------------------------------------- max_length

bool MaxLengthFeature::Verify(const Document& doc, const Span& span,
                              const FeatureParam& param,
                              FeatureValue v) const {
  (void)doc;
  const std::optional<uint64_t> bound = param.LengthBound();
  bool holds = bound.has_value() && span.length() <= *bound;
  switch (v) {
    case FeatureValue::kYes:
    case FeatureValue::kDistinctYes:
      return holds;
    case FeatureValue::kNo:
    case FeatureValue::kDistinctNo:
      return !holds;
    case FeatureValue::kUnknown:
      return true;
  }
  return false;
}

std::optional<bool> MaxLengthFeature::VerifyText(std::string_view text,
                                                 const FeatureParam& param,
                                                 FeatureValue v) const {
  const std::optional<uint64_t> bound = param.LengthBound();
  bool holds = bound.has_value() && text.size() <= *bound;
  switch (v) {
    case FeatureValue::kYes:
    case FeatureValue::kDistinctYes:
      return holds;
    case FeatureValue::kNo:
    case FeatureValue::kDistinctNo:
      return !holds;
    case FeatureValue::kUnknown:
      return true;
  }
  return std::nullopt;
}

std::vector<RefinedRegion> MaxLengthFeature::Refine(const Document& doc,
                                                    const Span& span,
                                                    const FeatureParam& param,
                                                    FeatureValue v) const {
  if (v != FeatureValue::kYes && v != FeatureValue::kDistinctYes) {
    return {RefinedRegion{span, /*exact=*/false}};
  }
  uint64_t limit = span.length();
  if (param.num.has_value()) {
    const std::optional<uint64_t> bound = param.LengthBound();
    if (!bound.has_value()) return {};  // a negative bound admits no text
    limit = *bound;
  }
  // For each start token, the longest window of length <= limit. Windows
  // overlap, but V(cell) is a union so superset semantics is preserved and
  // the result is in fact exact: every sub-span of length <= limit lies in
  // the window anchored at its start token.
  std::vector<RefinedRegion> out;
  const auto& tokens = doc.tokens();
  size_t first = doc.FirstTokenAtOrAfter(span.begin);
  size_t last = doc.TokensEndingBy(span.end);
  size_t prev_end_tok = SIZE_MAX;
  for (size_t i = first; i < last; ++i) {
    if (tokens[i].end - tokens[i].begin > limit) continue;
    size_t j = i;
    while (j + 1 < last && tokens[j + 1].end - tokens[i].begin <= limit) ++j;
    if (j == prev_end_tok && !out.empty() &&
        out.back().span.begin <= tokens[i].begin) {
      // The window [i..j] is a sub-span of the previous window; skip it.
      continue;
    }
    prev_end_tok = j;
    out.push_back(RefinedRegion{Span(span.doc, tokens[i].begin, tokens[j].end),
                                /*exact=*/false});
  }
  return out;
}

std::string MaxLengthFeature::QuestionText(const std::string& attr) const {
  return StringPrintf("what is the maximal length (chars) of %s?",
                      attr.c_str());
}

// ---------------------------------------------------------- in_first_half

bool InFirstHalfFeature::Verify(const Document& doc, const Span& span,
                                const FeatureParam& /*param*/,
                                FeatureValue v) const {
  bool holds = span.end <= doc.size() / 2;
  switch (v) {
    case FeatureValue::kYes:
    case FeatureValue::kDistinctYes:
      return holds;
    case FeatureValue::kNo:
    case FeatureValue::kDistinctNo:
      return !holds;
    case FeatureValue::kUnknown:
      return true;
  }
  return false;
}

std::vector<RefinedRegion> InFirstHalfFeature::Refine(
    const Document& doc, const Span& span, const FeatureParam& /*param*/,
    FeatureValue v) const {
  uint32_t half = doc.size() / 2;
  std::vector<RefinedRegion> out;
  if (v == FeatureValue::kYes || v == FeatureValue::kDistinctYes) {
    if (span.begin < half) {
      out.push_back(RefinedRegion{
          Span(span.doc, span.begin, std::min(span.end, half)),
          /*exact=*/false});
    }
  } else if (v == FeatureValue::kNo || v == FeatureValue::kDistinctNo) {
    // A span fails in_first_half as soon as it *ends* past the midpoint,
    // so we can only prune spans entirely inside the first half; keep the
    // whole span when it straddles the midpoint (superset semantics).
    if (span.end > half) {
      out.push_back(RefinedRegion{span, /*exact=*/false});
    }
  } else {
    out.push_back(RefinedRegion{span, /*exact=*/false});
  }
  return out;
}

std::string InFirstHalfFeature::QuestionText(const std::string& attr) const {
  return StringPrintf("does %s lie entirely in the first half of the page?",
                      attr.c_str());
}

}  // namespace iflex
