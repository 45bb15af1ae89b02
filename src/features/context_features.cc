#include "features/context_features.h"

#include <cctype>
#include <regex>

#include "common/strutil.h"

namespace iflex {

namespace {

// Positive polarity for a boolean-style verdict under a FeatureValue.
bool Polarity(bool holds, FeatureValue v) {
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

bool NegativeOrUnknown(FeatureValue v) {
  return v == FeatureValue::kNo || v == FeatureValue::kDistinctNo ||
         v == FeatureValue::kUnknown;
}

// End of the line containing `pos` (position of '\n' or doc end).
uint32_t LineEnd(const Document& doc, uint32_t pos) {
  size_t nl = doc.text().find('\n', pos);
  return nl == std::string::npos ? doc.size() : static_cast<uint32_t>(nl);
}

// Begin of the line containing `pos`.
uint32_t LineBegin(const Document& doc, uint32_t pos) {
  if (pos == 0) return 0;
  size_t nl = doc.text().rfind('\n', pos - 1);
  return nl == std::string::npos ? 0 : static_cast<uint32_t>(nl) + 1;
}

}  // namespace

// -------------------------------------------------- preceded_by/followed_by

namespace {

// Does the text just before `pos` (skipping spaces, same line) end with
// `needle`? The anchored-adjacency core of preceded_by, independent of
// any value span's extent.
bool AnchoredBefore(const Document& doc, uint32_t pos,
                    const std::string& needle) {
  const std::string& text = doc.text();
  uint32_t line_begin = LineBegin(doc, pos);
  uint32_t p = pos;
  while (p > line_begin && std::isspace(static_cast<unsigned char>(text[p - 1]))) {
    --p;
  }
  return p >= line_begin + needle.size() &&
         text.compare(p - needle.size(), needle.size(), needle) == 0;
}

// Does the text just after `pos` (skipping spaces, same line) start with
// `needle`?
bool AnchoredAfter(const Document& doc, uint32_t pos,
                   const std::string& needle) {
  const std::string& text = doc.text();
  uint32_t line_end = LineEnd(doc, pos);
  uint32_t p = pos;
  while (p < line_end && std::isspace(static_cast<unsigned char>(text[p]))) {
    ++p;
  }
  return p + needle.size() <= line_end &&
         text.compare(p, needle.size(), needle) == 0;
}

}  // namespace

bool AdjacencyFeature::Verify(const Document& doc, const Span& span,
                              const FeatureParam& param,
                              FeatureValue v) const {
  if (!param.str.has_value()) return NegativeOrUnknown(v);
  const std::string& needle = *param.str;
  // Adjacency features qualify single-line values only.
  bool single_line =
      doc.TextOf(span).find('\n') == std::string_view::npos;
  if (!single_line) {
    return Polarity(false, v);
  }
  bool holds = before_ ? AnchoredBefore(doc, span.begin, needle)
                       : AnchoredAfter(doc, span.end, needle);
  return Polarity(holds, v);
}

std::vector<RefinedRegion> AdjacencyFeature::Refine(const Document& doc,
                                                    const Span& span,
                                                    const FeatureParam& param,
                                                    FeatureValue v) const {
  if (NegativeOrUnknown(v) || !param.str.has_value()) {
    return {RefinedRegion{span, /*exact=*/false}};
  }
  const std::string& needle = *param.str;
  const std::string& text = doc.text();
  std::vector<RefinedRegion> out;
  // The marker may sit just *outside* the input span (a previous
  // constraint narrowed the cell to e.g. the capitalized run after
  // "chair:"): sub-spans anchored at the span edge still satisfy the
  // constraint. Probe the anchored condition at the boundary — the input
  // span itself may cross lines; the emitted region is line-clamped.
  if (before_) {
    if (AnchoredBefore(doc, span.begin, needle)) {
      uint32_t e = std::min(LineEnd(doc, span.begin), span.end);
      if (span.begin < e) {
        out.push_back(RefinedRegion{Span(span.doc, span.begin, e), false});
      }
    }
  } else {
    if (AnchoredAfter(doc, span.end, needle)) {
      uint32_t b = std::max(LineBegin(doc, span.end == 0 ? 0 : span.end - 1),
                            span.begin);
      if (b < span.end) {
        out.push_back(RefinedRegion{Span(span.doc, b, span.end), false});
      }
    }
  }
  size_t pos = text.find(needle, span.begin);
  while (pos != std::string::npos && pos < span.end) {
    if (before_) {
      // Values preceded by the needle live between the needle and the end
      // of its line. contain() over-approximates (sub-spans not anchored
      // right after the needle are re-checked by Verify later); this is
      // the superset-safe direction.
      uint32_t b = static_cast<uint32_t>(pos + needle.size());
      uint32_t e = std::min(LineEnd(doc, b), span.end);
      if (b < e) out.push_back(RefinedRegion{Span(span.doc, b, e), false});
    } else {
      uint32_t e = static_cast<uint32_t>(pos);
      uint32_t b = std::max(LineBegin(doc, e), span.begin);
      if (b < e) out.push_back(RefinedRegion{Span(span.doc, b, e), false});
    }
    pos = text.find(needle, pos + 1);
  }
  return out;
}

std::string AdjacencyFeature::QuestionText(const std::string& attr) const {
  return StringPrintf("what text immediately %s %s?",
                      before_ ? "precedes" : "follows", attr.c_str());
}

// ----------------------------------------------------- starts/ends_with

bool EdgeRegexFeature::Verify(const Document& doc, const Span& span,
                              const FeatureParam& param,
                              FeatureValue v) const {
  if (!param.str.has_value()) return NegativeOrUnknown(v);
  std::string s(doc.TextOf(span));
  // Like the adjacency features, edge-regex features qualify single-line
  // values (their Refine regions are line-clamped).
  if (s.find('\n') != std::string::npos) return Polarity(false, v);
  bool holds = false;
  try {
    std::regex re(*param.str);
    std::smatch m;
    if (at_start_) {
      holds = std::regex_search(s, m, re,
                                std::regex_constants::match_continuous);
    } else {
      // Any match that ends exactly at the span end.
      auto begin = std::sregex_iterator(s.begin(), s.end(), re);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        if (static_cast<size_t>(it->position() + it->length()) == s.size()) {
          holds = true;
          break;
        }
      }
    }
  } catch (const std::regex_error&) {
    holds = false;
  }
  return Polarity(holds, v);
}

std::vector<RefinedRegion> EdgeRegexFeature::Refine(const Document& doc,
                                                    const Span& span,
                                                    const FeatureParam& param,
                                                    FeatureValue v) const {
  if (NegativeOrUnknown(v) || !param.str.has_value()) {
    return {RefinedRegion{span, /*exact=*/false}};
  }
  std::string s(doc.TextOf(span));
  std::vector<RefinedRegion> out;
  try {
    std::regex re(*param.str);
    for (auto it = std::sregex_iterator(s.begin(), s.end(), re);
         it != std::sregex_iterator(); ++it) {
      if (at_start_) {
        // Satisfying values begin at a match start; they extend at most to
        // the end of that line.
        uint32_t b = span.begin + static_cast<uint32_t>(it->position());
        uint32_t e = std::min(LineEnd(doc, b), span.end);
        if (b < e) out.push_back(RefinedRegion{Span(span.doc, b, e), false});
      } else {
        uint32_t e = span.begin +
                     static_cast<uint32_t>(it->position() + it->length());
        uint32_t b = std::max(LineBegin(doc, e == 0 ? 0 : e - 1), span.begin);
        if (b < e) out.push_back(RefinedRegion{Span(span.doc, b, e), false});
      }
    }
  } catch (const std::regex_error&) {
    // An invalid pattern matches nothing.
  }
  return out;
}

std::string EdgeRegexFeature::QuestionText(const std::string& attr) const {
  return StringPrintf("what pattern does %s %s with?", attr.c_str(),
                      at_start_ ? "start" : "end");
}

// ----------------------------------------------------------- contains_str

bool ContainsFeature::Verify(const Document& doc, const Span& span,
                             const FeatureParam& param, FeatureValue v) const {
  if (!param.str.has_value()) return NegativeOrUnknown(v);
  return Polarity(ContainsIgnoreCase(doc.TextOf(span), *param.str), v);
}

std::vector<RefinedRegion> ContainsFeature::Refine(const Document& doc,
                                                   const Span& span,
                                                   const FeatureParam& param,
                                                   FeatureValue v) const {
  if (NegativeOrUnknown(v) || !param.str.has_value()) {
    return {RefinedRegion{span, /*exact=*/false}};
  }
  // Every satisfying sub-span surrounds some occurrence; the maximal such
  // sub-span is the whole input whenever an occurrence exists.
  if (ContainsIgnoreCase(doc.TextOf(span), *param.str)) {
    return {RefinedRegion{span, /*exact=*/false}};
  }
  return {};
}

std::string ContainsFeature::QuestionText(const std::string& attr) const {
  return StringPrintf("what string does %s contain?", attr.c_str());
}

// --------------------------------------------------- prec_label_contains

bool PrecLabelContainsFeature::Verify(const Document& doc, const Span& span,
                                      const FeatureParam& param,
                                      FeatureValue v) const {
  if (!param.str.has_value()) return NegativeOrUnknown(v);
  auto label = doc.PrecedingLabel(span.begin);
  bool holds = label.has_value() &&
               ContainsIgnoreCase(doc.TextOf(*label), *param.str);
  return Polarity(holds, v);
}

std::vector<RefinedRegion> PrecLabelContainsFeature::Refine(
    const Document& doc, const Span& span, const FeatureParam& param,
    FeatureValue v) const {
  if (NegativeOrUnknown(v) || !param.str.has_value()) {
    return {RefinedRegion{span, /*exact=*/false}};
  }
  // For each matching label, the satisfying region runs from the label end
  // to the next label (no other label may intervene, or it would become
  // the preceding label).
  const auto& labels = doc.layer(MarkupKind::kLabel).ranges();
  std::vector<RefinedRegion> out;
  for (size_t i = 0; i < labels.size(); ++i) {
    Span label(span.doc, labels[i].first, labels[i].second);
    if (!ContainsIgnoreCase(doc.TextOf(label), *param.str)) continue;
    uint32_t region_begin = std::max(labels[i].second, span.begin);
    uint32_t region_end =
        i + 1 < labels.size() ? labels[i + 1].first : doc.size();
    region_end = std::min(region_end, span.end);
    if (region_begin < region_end) {
      out.push_back(
          RefinedRegion{Span(span.doc, region_begin, region_end), false});
    }
  }
  return out;
}

std::string PrecLabelContainsFeature::QuestionText(
    const std::string& attr) const {
  return StringPrintf("what does the label preceding %s contain?",
                      attr.c_str());
}

// --------------------------------------------------- prec_label_max_dist

bool PrecLabelMaxDistFeature::Verify(const Document& doc, const Span& span,
                                     const FeatureParam& param,
                                     FeatureValue v) const {
  if (!param.num.has_value()) return NegativeOrUnknown(v);
  auto label = doc.PrecedingLabel(span.begin);
  const std::optional<uint64_t> bound = param.LengthBound();
  bool holds = label.has_value() && bound.has_value() &&
               span.begin - label->end <= *bound;
  return Polarity(holds, v);
}

std::vector<RefinedRegion> PrecLabelMaxDistFeature::Refine(
    const Document& doc, const Span& span, const FeatureParam& param,
    FeatureValue v) const {
  if (NegativeOrUnknown(v) || !param.num.has_value()) {
    return {RefinedRegion{span, /*exact=*/false}};
  }
  // Satisfying sub-spans *begin* within `dist` of a label end. A region
  // keyed on begin-position cannot be expressed exactly with contain();
  // we keep the whole stretch from each label to the next label as a
  // superset and let Verify prune exact values downstream.
  const auto& labels = doc.layer(MarkupKind::kLabel).ranges();
  std::vector<RefinedRegion> out;
  for (size_t i = 0; i < labels.size(); ++i) {
    uint32_t region_begin = std::max(labels[i].second, span.begin);
    uint32_t region_end =
        i + 1 < labels.size() ? labels[i + 1].first : doc.size();
    region_end = std::min(region_end, span.end);
    if (region_begin < region_end) {
      out.push_back(
          RefinedRegion{Span(span.doc, region_begin, region_end), false});
    }
  }
  return out;
}

std::string PrecLabelMaxDistFeature::QuestionText(
    const std::string& attr) const {
  return StringPrintf(
      "at most how many characters can separate %s from its label?",
      attr.c_str());
}

}  // namespace iflex
