#ifndef IFLEX_EXEC_VERIFY_MEMO_H_
#define IFLEX_EXEC_VERIFY_MEMO_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/intern.h"
#include "text/span.h"

namespace iflex {

/// Memoization cache for Feature::Verify / Feature::VerifyText (paper
/// §4.2). Both procedures are pure functions of (feature, target, param,
/// value) over a frozen corpus, and the refinement loop re-checks the
/// same spans against the same constraints across iterations and
/// candidate simulations — so one session-scoped memo turns the repeated
/// work into hash lookups.
///
/// Keys use interned ids (feature name, scalar text, string param) from
/// the corpus interner, which are stable for the corpus lifetime; subset
/// catalogs share the corpus, so entries carry across iterations.
///
/// Thread-safety: Lookup/Insert lock one stripe of the key space, so
/// concurrent morsels and simulation executors call the memo directly.
/// The owner (RefinementSession or a standalone Executor) clears it with
/// the caches it lives next to, and Insert is suppressed while any fail
/// point is armed so degraded / fault-injected runs never populate it
/// (the analog of keeping degraded tables out of the reuse cache).
class VerifyMemo {
 public:
  struct Key {
    ValueId feature = kInvalidValueId;  // interned feature name
    uint8_t value = 0;                  // FeatureValue
    uint8_t target_kind = 0;            // 0 = span, 1 = scalar text
    uint8_t param_kind = 0;             // 0 = none, 1 = str, 2 = num
    DocId doc = kInvalidDocId;          // span target
    uint32_t begin = 0;
    uint32_t end = 0;
    ValueId text = kInvalidValueId;      // scalar-text target
    ValueId param_str = kInvalidValueId; // interned string param
    uint64_t param_num = 0;              // bit pattern of numeric param
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = 0xcbf29ce484222325ULL;
      auto mix = [&h](uint64_t x) {
        h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      };
      mix(k.feature);
      mix((uint64_t(k.value) << 16) | (uint64_t(k.target_kind) << 8) |
          k.param_kind);
      mix((uint64_t(k.doc) << 32) | k.begin);
      mix((uint64_t(k.end) << 32) | k.text);
      mix(k.param_str);
      mix(k.param_num);
      return static_cast<size_t>(h);
    }
  };

  /// Memoized verdict: 1 = holds, 0 = does not, -1 = VerifyText returned
  /// nullopt (feature needs document context). nullopt = not cached.
  std::optional<int8_t> Lookup(const Key& k) const;

  /// Caches a verdict. No-op while any fail point is armed (degraded runs
  /// must not populate the memo).
  void Insert(const Key& k, int8_t verdict);

  void Clear();
  size_t size() const;

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  // Every constraint check of every morsel goes through here, so unlike
  // ReuseCache (one mutex) the memo keeps 64 stripes, each padded to its
  // own cache line so adjacent stripe mutexes do not false-share: a
  // single-mutex memo lost on the pooled full-data pass
  // (docs/PERFORMANCE.md, "Verify memo").
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::unordered_map<Key, int8_t, KeyHash> map;
  };
  static constexpr size_t kStripes = 64;

  Stripe& stripe(const Key& k) { return stripes_[KeyHash{}(k) % kStripes]; }
  const Stripe& stripe(const Key& k) const {
    return stripes_[KeyHash{}(k) % kStripes];
  }

  std::array<Stripe, kStripes> stripes_;
  alignas(64) mutable std::atomic<uint64_t> hits_{0};
  alignas(64) mutable std::atomic<uint64_t> misses_{0};
};

}  // namespace iflex

#endif  // IFLEX_EXEC_VERIFY_MEMO_H_
