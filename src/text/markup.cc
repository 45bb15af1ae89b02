#include "text/markup.h"

#include <algorithm>

namespace iflex {

void MarkupLayer::Add(uint32_t begin, uint32_t end) {
  if (begin >= end) return;
  unsorted_.emplace_back(begin, end);
}

void MarkupLayer::Normalize() const {
  if (unsorted_.empty()) return;
  ranges_.insert(ranges_.end(), unsorted_.begin(), unsorted_.end());
  unsorted_.clear();
  std::sort(ranges_.begin(), ranges_.end());
  std::vector<std::pair<uint32_t, uint32_t>> merged;
  for (const auto& r : ranges_) {
    if (!merged.empty() && r.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, r.second);
    } else {
      merged.push_back(r);
    }
  }
  ranges_ = std::move(merged);
}

namespace {
// Index of the first range whose end is > pos, in a normalized vector.
size_t LowerBoundRange(
    const std::vector<std::pair<uint32_t, uint32_t>>& ranges, uint32_t pos) {
  return static_cast<size_t>(
      std::lower_bound(ranges.begin(), ranges.end(), pos,
                       [](const std::pair<uint32_t, uint32_t>& r,
                          uint32_t p) { return r.second <= p; }) -
      ranges.begin());
}
}  // namespace

bool MarkupLayer::Covers(uint32_t begin, uint32_t end) const {
  Normalize();
  if (begin >= end) return false;
  size_t i = LowerBoundRange(ranges_, begin);
  return i < ranges_.size() && ranges_[i].first <= begin &&
         end <= ranges_[i].second;
}

bool MarkupLayer::CoversDistinctly(uint32_t begin, uint32_t end) const {
  Normalize();
  if (begin >= end) return false;
  size_t i = LowerBoundRange(ranges_, begin);
  if (i >= ranges_.size()) return false;
  const auto& r = ranges_[i];
  // The covering range must not extend beyond the span on either side,
  // because coalesced ranges are maximal.
  return r.first == begin && r.second == end;
}

bool MarkupLayer::Intersects(uint32_t begin, uint32_t end) const {
  Normalize();
  if (begin >= end) return false;
  size_t i = LowerBoundRange(ranges_, begin);
  return i < ranges_.size() && ranges_[i].first < end;
}

std::vector<std::pair<uint32_t, uint32_t>> MarkupLayer::MaximalRunsWithin(
    uint32_t begin, uint32_t end) const {
  Normalize();
  std::vector<std::pair<uint32_t, uint32_t>> out;
  for (size_t i = LowerBoundRange(ranges_, begin);
       i < ranges_.size() && ranges_[i].first < end; ++i) {
    uint32_t b = std::max(ranges_[i].first, begin);
    uint32_t e = std::min(ranges_[i].second, end);
    if (b < e) out.emplace_back(b, e);
  }
  return out;
}

std::vector<std::pair<uint32_t, uint32_t>> MarkupLayer::DistinctRunsWithin(
    uint32_t begin, uint32_t end) const {
  Normalize();
  std::vector<std::pair<uint32_t, uint32_t>> out;
  for (size_t i = LowerBoundRange(ranges_, begin);
       i < ranges_.size() && ranges_[i].first < end; ++i) {
    // A stored (coalesced) range is maximal, so its neighbours are
    // uncovered by construction; it only qualifies if it lies fully inside
    // the query window.
    if (ranges_[i].first >= begin && ranges_[i].second <= end) {
      out.push_back(ranges_[i]);
    }
  }
  return out;
}

}  // namespace iflex
