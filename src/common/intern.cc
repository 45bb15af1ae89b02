#include "common/intern.h"

#include <algorithm>
#include <cctype>
#include <mutex>

namespace iflex {

ValueId StringInterner::Intern(std::string_view s) {
  {
    std::shared_lock lock(mu_);
    auto it = ids_.find(s);
    if (it != ids_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  if (frozen()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return kInvalidValueId;
  }
  std::unique_lock lock(mu_);
  auto it = ids_.find(s);
  if (it != ids_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  arena_.emplace_back(s);
  arena_bytes_.fetch_add(s.size(), std::memory_order_relaxed);
  ValueId id = static_cast<ValueId>(arena_.size() - 1);
  ids_.emplace(std::string_view(arena_.back()), id);
  return id;
}

ValueId StringInterner::Find(std::string_view s) const {
  if (frozen()) {
    auto it = ids_.find(s);
    if (it != ids_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return kInvalidValueId;
  }
  std::shared_lock lock(mu_);
  auto it = ids_.find(s);
  if (it != ids_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return kInvalidValueId;
}

std::string_view StringInterner::TextOf(ValueId id) const {
  if (frozen()) return arena_[id];
  std::shared_lock lock(mu_);
  return arena_[id];
}

size_t StringInterner::size() const {
  if (frozen()) return arena_.size();
  std::shared_lock lock(mu_);
  return arena_.size();
}

const std::vector<ValueId>& TokenCache::TokensOf(std::string_view text) {
  {
    std::shared_lock lock(mu_);
    auto it = tokens_.find(text);
    if (it != tokens_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *it->second;
    }
  }
  // Tokenize outside the lock: lowercased alphanumeric runs, deduplicated
  // (set semantics, as in TokenJaccard).
  auto ids = std::make_unique<std::vector<ValueId>>();
  std::string tok;
  auto flush = [&] {
    if (tok.empty()) return;
    ids->push_back(interner_->Intern(tok));
    tok.clear();
  };
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      tok.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else {
      flush();
    }
  }
  flush();
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());

  std::unique_lock lock(mu_);
  auto it = tokens_.find(text);
  if (it != tokens_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return *it->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  keys_.emplace_back(text);
  auto [pos, inserted] =
      tokens_.emplace(std::string_view(keys_.back()), std::move(ids));
  return *pos->second;
}

double TokenIdJaccard(std::span<const ValueId> a,
                      std::span<const ValueId> b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = 0, i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace iflex
