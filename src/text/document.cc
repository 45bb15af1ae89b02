#include "text/document.h"

#include <algorithm>
#include <cctype>

namespace iflex {

namespace {

bool IsTokenChar(char c) {
  return !std::isspace(static_cast<unsigned char>(c));
}

// Punctuation stripped from token edges. '$' is kept (prices), digits and
// inner punctuation are untouched.
bool IsStrippablePunct(char c) {
  switch (c) {
    case '.':
    case ',':
    case ';':
    case ':':
    case '!':
    case '?':
    case ')':
    case '(':
    case '[':
    case ']':
    case '"':
    case '\'':
      return true;
    default:
      return false;
  }
}

}  // namespace

Document::Document(std::string name, std::string text)
    : name_(std::move(name)), text_(std::move(text)) {
  Tokenize();
}

// Invariant: no alphanumeric character lies between two adjacent tokens —
// only whitespace and the strippable punctuation above do. TokenCache
// splits text at every non-alphanumeric character, so the token-id set of
// a run of tokens is the union of its tokens' sets; PrepareSimCell
// (exec/cell_ops.cc) builds every contain's sub-span sets that way, and
// text_test pins the invariant. Stripping an alphanumeric character would
// silently change similar() verdicts.
void Document::Tokenize() {
  tokens_.clear();
  uint32_t n = size();
  uint32_t i = 0;
  while (i < n) {
    while (i < n && !IsTokenChar(text_[i])) ++i;
    if (i >= n) break;
    uint32_t b = i;
    while (i < n && IsTokenChar(text_[i])) ++i;
    uint32_t e = i;
    // Strip edge punctuation, e.g. "(4700)," -> "4700".
    while (b < e && IsStrippablePunct(text_[b])) ++b;
    while (e > b && IsStrippablePunct(text_[e - 1])) --e;
    if (b < e) tokens_.push_back(Token{b, e});
  }
}

std::string_view Document::TextOf(const Span& span) const {
  if (span.begin >= text_.size()) return {};
  uint32_t end = std::min<uint32_t>(span.end, size());
  if (span.begin >= end) return {};
  return std::string_view(text_).substr(span.begin, end - span.begin);
}

size_t Document::FirstTokenAtOrAfter(uint32_t pos) const {
  return static_cast<size_t>(
      std::lower_bound(tokens_.begin(), tokens_.end(), pos,
                       [](const Token& t, uint32_t p) { return t.begin < p; }) -
      tokens_.begin());
}

size_t Document::TokensEndingBy(uint32_t pos) const {
  return static_cast<size_t>(
      std::upper_bound(tokens_.begin(), tokens_.end(), pos,
                       [](uint32_t p, const Token& t) { return p < t.end; }) -
      tokens_.begin());
}

bool Document::EnumerateSubSpans(const Span& span, size_t max_spans,
                                 std::vector<Span>* out) const {
  size_t first = FirstTokenAtOrAfter(span.begin);
  size_t last = TokensEndingBy(span.end);  // one past
  for (size_t i = first; i < last; ++i) {
    for (size_t j = i; j < last; ++j) {
      if (out->size() >= max_spans) return false;
      out->push_back(Span(id_, tokens_[i].begin, tokens_[j].end));
    }
  }
  return true;
}

size_t Document::CountSubSpans(const Span& span) const {
  size_t first = FirstTokenAtOrAfter(span.begin);
  size_t last = TokensEndingBy(span.end);
  size_t k = last > first ? last - first : 0;
  return k * (k + 1) / 2;
}

Span Document::AlignToTokens(const Span& span) const {
  size_t first = FirstTokenAtOrAfter(span.begin);
  size_t last = TokensEndingBy(span.end);
  if (first >= last) return Span(id_, span.begin, span.begin);
  return Span(id_, tokens_[first].begin, tokens_[last - 1].end);
}

std::optional<Span> Document::PrecedingLabel(uint32_t pos) const {
  const auto& ranges = layer(MarkupKind::kLabel).ranges();
  // Last label range whose end <= pos.
  auto it = std::upper_bound(
      ranges.begin(), ranges.end(), pos,
      [](uint32_t p, const std::pair<uint32_t, uint32_t>& r) {
        return p < r.second;
      });
  if (it == ranges.begin()) return std::nullopt;
  --it;
  return Span(id_, it->first, it->second);
}

}  // namespace iflex
