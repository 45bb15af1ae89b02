#ifndef IFLEX_EXEC_CELL_STORE_H_
#define IFLEX_EXEC_CELL_STORE_H_

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "ctable/compact_table.h"
#include "exec/cell_ops.h"

namespace iflex {

/// Prepared cells kept across Executes (docs/PERFORMANCE.md, "Prepared
/// cells"). A refinement session evaluates the same cells again and again:
/// each candidate simulation re-runs a program that differs from the last
/// in one constraint, so most probe rows, table sides and comparison
/// operands repeat. The store prepares each distinct cell once.
///
/// An entry is keyed by exactly what preparation reads: per assignment, a
/// contain's span, or an exact value's kind, text and parsed number; plus
/// the limits and, for comparison forms, the operator's need for sorted
/// values and the offset. Value::Equals is not the key: "92" and 92 are
/// equal there, yet tokenize and compare against text differently.
/// Entries are pure functions of their key over the frozen corpus, so a
/// store must serve one corpus only.
///
/// Thread-safety: lookups lock one of 64 stripes (one lookup per row, like
/// VerifyMemo's per-check lookups), and preparation on a miss runs outside
/// the lock; when two threads race on one key, the first to publish wins
/// and both return its entry. Entries are immutable once published, and
/// references to them stay valid until Clear(), which must not race with
/// readers. ReuseCache owns one and clears it with its tables.
class PreparedCellStore {
 public:
  /// The similarity form of `cell` (PrepareSimCell); *hit says whether it
  /// was already stored.
  const PreparedSimCell& Sim(const Corpus& corpus, const Cell& cell,
                             const CellOpLimits& limits, bool* hit);

  /// The comparison form of `cell` for `op` under `offset`
  /// (PrepareCmpCell); *hit says whether it was already stored.
  const PreparedCmpCell& Cmp(const Corpus& corpus, const Cell& cell,
                             CmpOp op, const CellOpLimits& limits,
                             double offset, bool* hit);

  void Clear();
  size_t size() const;

 private:
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };

  // One kind of prepared form, striped by key hash. Each stripe sits on
  // its own cache line so adjacent stripe mutexes do not false-share.
  template <typename T>
  class Stripes {
   public:
    template <typename PrepareFn>
    const T& GetOrPrepare(std::string_view key, bool* hit,
                          PrepareFn&& prepare);
    void Clear();
    size_t size() const;

   private:
    struct alignas(64) Stripe {
      mutable std::mutex mu;
      std::unordered_map<std::string, std::unique_ptr<const T>, KeyHash,
                         std::equal_to<>>
          map;
    };
    static constexpr size_t kStripes = 64;
    std::array<Stripe, kStripes> stripes_;
  };

  Stripes<PreparedSimCell> sim_;
  Stripes<PreparedCmpCell> cmp_;
};

}  // namespace iflex

#endif  // IFLEX_EXEC_CELL_STORE_H_
