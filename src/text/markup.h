#ifndef IFLEX_TEXT_MARKUP_H_
#define IFLEX_TEXT_MARKUP_H_

#include <cstdint>
#include <vector>

namespace iflex {

/// Presentation/structure annotations a document carries alongside its
/// text. These drive the "syntactic" text features of the paper
/// (bold-font, italic-font, hyperlinked, ...) plus the structural ones
/// (in-list, in-title) and the label-based ones (prec-label-*).
enum class MarkupKind : uint8_t {
  kBold = 0,
  kItalic,
  kUnderline,
  kHyperlink,
  kListItem,
  kTitle,
  kLabel,  // section headers such as "Panelists:" used by prec-label-*
};

inline constexpr int kNumMarkupKinds = 7;

/// A sorted set of non-overlapping [begin, end) ranges for one markup kind
/// within one document.
class MarkupLayer {
 public:
  /// Adds a range; ranges may be added out of order. Overlapping or
  /// touching ranges are coalesced lazily on first query.
  void Add(uint32_t begin, uint32_t end);

  /// True if [begin, end) is fully covered by one range.
  bool Covers(uint32_t begin, uint32_t end) const;

  /// True if [begin, end) is covered and the characters immediately
  /// adjacent on both sides are *not* covered (the paper's
  /// "distinct-yes": the span has the property but its surroundings do
  /// not). A range that abuts the document edge counts as distinct there.
  bool CoversDistinctly(uint32_t begin, uint32_t end) const;

  /// True if any range intersects [begin, end).
  bool Intersects(uint32_t begin, uint32_t end) const;

  /// Maximal covered sub-ranges of [begin, end): each returned range is the
  /// intersection of one stored range with [begin, end).
  std::vector<std::pair<uint32_t, uint32_t>> MaximalRunsWithin(
      uint32_t begin, uint32_t end) const;

  /// All ranges fully inside [begin, end) whose neighbours are uncovered
  /// (i.e. candidates for distinct-yes values).
  std::vector<std::pair<uint32_t, uint32_t>> DistinctRunsWithin(
      uint32_t begin, uint32_t end) const;

  /// All stored ranges, coalesced and sorted.
  const std::vector<std::pair<uint32_t, uint32_t>>& ranges() const {
    Normalize();
    return ranges_;
  }

  /// Coalesces any pending ranges now. Queries are `const` but lazily
  /// normalize on first use, which is a data race when several pool
  /// threads read one document concurrently; Corpus::Add freezes every
  /// layer up front so reads after registration are genuinely read-only.
  void Freeze() { Normalize(); }

  bool empty() const { return ranges_.empty() && unsorted_.empty(); }

 private:
  void Normalize() const;

  mutable std::vector<std::pair<uint32_t, uint32_t>> ranges_;
  mutable std::vector<std::pair<uint32_t, uint32_t>> unsorted_;
};

}  // namespace iflex

#endif  // IFLEX_TEXT_MARKUP_H_
