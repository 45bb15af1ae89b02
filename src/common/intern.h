#ifndef IFLEX_COMMON_INTERN_H_
#define IFLEX_COMMON_INTERN_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace iflex {

/// Identity of an interned string. Ids are dense, stable for the lifetime
/// of the interner, and 32-bit so join keys and token postings stay small.
using ValueId = uint32_t;
inline constexpr ValueId kInvalidValueId = 0xFFFFFFFFu;

/// Append-only string pool: each distinct string gets one ValueId and one
/// arena copy, so equality is an integer compare and callers can hold
/// string_views without owning storage.
///
/// Thread safety mirrors Corpus::Add: concurrent Intern/Find/TextOf are
/// safe (shared_mutex; lookups take the shared side). Freeze() makes the
/// pool read-only, after which TextOf/Find are lock-free; Intern of a
/// *new* string after Freeze returns kInvalidValueId rather than mutating.
class StringInterner {
 public:
  StringInterner() = default;
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;

  /// Id for `s`, inserting it if absent. After Freeze(), behaves like
  /// Find(): unseen strings yield kInvalidValueId.
  ValueId Intern(std::string_view s);

  /// Id for `s` if already interned, else kInvalidValueId. Never inserts.
  ValueId Find(std::string_view s) const;

  /// Text of an interned id; the view stays valid for the interner's
  /// lifetime (deque arena — no reallocation moves).
  std::string_view TextOf(ValueId id) const;

  size_t size() const;

  /// Makes the pool read-only; lookups become lock-free.
  void Freeze() { frozen_.store(true, std::memory_order_release); }
  bool frozen() const { return frozen_.load(std::memory_order_acquire); }

  /// Lookup traffic, for the obs layer: a hit is an Intern/Find that found
  /// an existing entry, a miss is an insertion (or a failed Find).
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  /// Total bytes of interned text held in the arena (payload only, not
  /// map overhead). The attribution profiler charges deltas of this.
  uint64_t arena_bytes() const {
    return arena_bytes_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::shared_mutex mu_;
  std::atomic<bool> frozen_{false};
  std::deque<std::string> arena_;
  std::unordered_map<std::string_view, ValueId> ids_;  // keys view arena_
  // Every frozen-interner lookup still bumps a stat counter, so these
  // atomics are the hottest shared writes in the whole pipeline. Each one
  // gets its own cache line: packed next to mu_/ids_ they false-share with
  // the lock words and with each other, and 8 readers ping-pong the line
  // on every Find (measured by bench_scaling's intern contention rows).
  alignas(64) mutable std::atomic<uint64_t> hits_{0};
  alignas(64) mutable std::atomic<uint64_t> misses_{0};
  alignas(64) std::atomic<uint64_t> arena_bytes_{0};
};

/// Memoized tokenizer over an interner: text -> sorted unique ids of its
/// lowercased alphanumeric tokens. Backs token-similarity predicates and
/// prepared similarity cells, so each distinct exact-value text and
/// document token is tokenized once per corpus instead of once per probe
/// (sub-span sets are unions of token sets, built by PrepareSimCell and
/// never cached here). Thread-safe; the returned reference is stable for
/// the cache's lifetime.
class TokenCache {
 public:
  explicit TokenCache(StringInterner* interner) : interner_(interner) {}
  TokenCache(const TokenCache&) = delete;
  TokenCache& operator=(const TokenCache&) = delete;

  const std::vector<ValueId>& TokensOf(std::string_view text);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  StringInterner* interner_;
  mutable std::shared_mutex mu_;
  std::deque<std::string> keys_;  // owns the map's key storage
  std::unordered_map<std::string_view, std::unique_ptr<std::vector<ValueId>>>
      tokens_;
  // Cache-line-isolated for the same reason as StringInterner's counters:
  // cache hits bump these under the shared lock from every worker.
  alignas(64) std::atomic<uint64_t> hits_{0};
  alignas(64) std::atomic<uint64_t> misses_{0};
};

/// Jaccard similarity of two token-id sets (sorted unique), matching
/// TokenJaccard's set semantics: both empty -> 1.0.
double TokenIdJaccard(std::span<const ValueId> a,
                      std::span<const ValueId> b);

}  // namespace iflex

#endif  // IFLEX_COMMON_INTERN_H_
