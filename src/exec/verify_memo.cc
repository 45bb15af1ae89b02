#include "exec/verify_memo.h"

#include "resilience/failpoint.h"

namespace iflex {

std::optional<int8_t> VerifyMemo::Lookup(const Key& k) const {
  const Stripe& s = stripe(k);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(k);
  if (it == s.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void VerifyMemo::Insert(const Key& k, int8_t verdict) {
  if (resilience::FailPoints::Active()) return;
  Stripe& s = stripe(k);
  std::lock_guard<std::mutex> lock(s.mu);
  s.map.emplace(k, verdict);
}

void VerifyMemo::Clear() {
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.map.clear();
  }
}

size_t VerifyMemo::size() const {
  size_t n = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.map.size();
  }
  return n;
}

}  // namespace iflex
