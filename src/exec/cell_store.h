#ifndef IFLEX_EXEC_CELL_STORE_H_
#define IFLEX_EXEC_CELL_STORE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "ctable/compact_table.h"
#include "exec/cell_ops.h"
#include "resilience/deadline.h"

namespace iflex {

/// One prepared form per tuple of a join table's column: pointers into a
/// PreparedCellStore, or into `owned` when the forms are prepared for one
/// rule evaluation. Read-only once built.
template <typename Form>
struct PreparedColumn {
  std::vector<const Form*> cells;  // by table tuple
  std::vector<Form> owned;

  /// prepare(cell, scratch) returns the tuple's form; `keeps` says whether
  /// it outlives the build (a store's), so that no scratch is needed.
  template <typename PrepareFn>
  void Build(const CompactTable& table, size_t col, bool keeps,
             PrepareFn&& prepare) {
    cells.reserve(table.size());
    // Reserved up front, so the pointers into it stay valid.
    if (!keeps) owned.reserve(table.size());
    for (const CompactTuple& t : table.tuples()) {
      cells.push_back(
          &prepare(t.cells[col], keeps ? nullptr : &owned.emplace_back()));
    }
  }
};

using PreparedCmpColumn = PreparedColumn<PreparedCmpCell>;

/// One probe's verdict row over a similarity side (docs/PERFORMANCE.md,
/// "Content-keyed reuse"): the ascending indices of the table tuples whose
/// SimilarityVerdict against the probe is not kNone, each with its
/// verdict, and how many candidates the row tried (exec.join_pairs).
struct SimRow {
  std::vector<uint32_t> tuples;
  std::vector<SatResult> verdicts;  // parallel to tuples
  size_t tried = 0;
};

/// The table side of a token-similarity join (docs/PERFORMANCE.md,
/// "Prepared similarity join"): the join-column cell of every tuple,
/// prepared, and — when the join may block and every cell has at most
/// kSimIndexMaxValues values — an inverted token index over them. A side
/// interned in a PreparedCellStore also keeps the verdict row of every
/// probe form the store owns, so each (probe, table) pair is decided once
/// per store. Read-only once built, except for the rows, which any thread
/// may add.
class PreparedSimTable {
 public:
  /// Prepares column `col` of `table` through `prepare` (as
  /// PreparedColumn::Build) and indexes it when `index_eligible` and every
  /// cell is narrow enough.
  template <typename PrepareFn>
  void Build(const CompactTable& table, size_t col, bool index_eligible,
             bool keeps, PrepareFn&& prepare) {
    column_.Build(table, col, keeps, prepare);
    IndexColumn(index_eligible);
  }

  const PreparedSimCell& cell(size_t ti) const { return *column_.cells[ti]; }
  size_t size() const { return column_.cells.size(); }
  bool indexed() const { return indexed_; }

  /// Ascending, distinct indices of the tuples that share a token with
  /// some value of `probe`, or a token-less value with a token-less one:
  /// the only tuples a threshold > 0 can match.
  void Candidates(const PreparedSimCell& probe,
                  std::vector<size_t>* out) const;

  /// Decides `probe` against its candidates — the index's when the side is
  /// indexed and the probe has at most kSimIndexMaxValues values, else
  /// every tuple — into *row, polling `stop` once per pair.
  Status BuildRow(const PreparedSimCell& probe, double threshold,
                  const CellOpLimits& limits, resilience::StopPoller* stop,
                  SimRow* row) const;

  /// The row kept for `probe`, or null. Rows are keyed by the probe form's
  /// address, so only an interned side, whose probes are forms of the same
  /// store, keeps them.
  const SimRow* FindRow(const PreparedSimCell* probe) const;
  /// Keeps `row` for `probe` unless a racing thread kept one first, and
  /// returns the kept row; it stays valid as long as the side.
  const SimRow& KeepRow(const PreparedSimCell* probe, SimRow row) const;

 private:
  void IndexColumn(bool index_eligible);

  PreparedColumn<PreparedSimCell> column_;
  bool indexed_ = false;
  // Token id -> ascending indices of the tuples with a value holding it.
  std::unordered_map<ValueId, std::vector<size_t>> postings_;
  // Ascending indices of the tuples with a token-less value ("&", "-"):
  // those match token-less probe values, as TokenIdJaccard(∅, ∅) = 1.
  std::vector<size_t> tokenless_;
  mutable std::mutex rows_mu_;
  mutable std::unordered_map<const PreparedSimCell*,
                             std::unique_ptr<const SimRow>>
      rows_;
};

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
/// One level up it interns join table sides (docs/PERFORMANCE.md,
/// "Content-keyed reuse"): the similarity side and the comparison columns
/// of an intensional join table, keyed by the table's content digest
/// (CompactTable::Digest) and what the side's build reads of the join, so
/// each distinct table builds them once per store. A side's cells are the
/// store's own forms.
///
/// Thread-safety: cell lookups lock one of 64 stripes (one lookup per row,
/// like VerifyMemo's per-check lookups), side lookups one mutex (one per
/// join per rule evaluation), and preparation on a miss runs outside the
/// lock; when two threads race on one key, the first to publish wins and
/// both return its entry. Entries are immutable once published (a side's
/// rows excepted, which lock their own mutex), and references to them
/// stay valid until Clear(), which must not race with readers. ReuseCache
/// owns one and clears it with its tables.
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

  /// The similarity side of column `col` of a join table whose digest is
  /// `digest`, for threshold `threshold` and index eligibility
  /// `index_eligible`; on a miss `build` fills a fresh side. *hit says
  /// whether it was already stored.
  std::shared_ptr<const PreparedSimTable> SimSide(
      uint64_t digest, size_t col, double threshold, bool index_eligible,
      const CellOpLimits& limits, bool* hit,
      const std::function<void(PreparedSimTable*)>& build);

  /// The comparison column `col` of a join table whose digest is `digest`,
  /// for `op` under `offset`; on a miss `build` fills a fresh column.
  std::shared_ptr<const PreparedCmpColumn> CmpSide(
      uint64_t digest, size_t col, CmpOp op, double offset,
      const CellOpLimits& limits, bool* hit,
      const std::function<void(PreparedCmpColumn*)>& build);

  void Clear();
  /// Number of prepared cells.
  size_t size() const;
  /// Number of interned join table sides.
  size_t sides() const;

 private:
  template <typename Side>
  std::shared_ptr<const Side> GetOrBuildSide(
      const std::string& key, bool* hit,
      const std::function<void(Side*)>& build,
      std::unordered_map<std::string, std::shared_ptr<const Side>>* map);

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
  mutable std::mutex sides_mu_;
  std::unordered_map<std::string, std::shared_ptr<const PreparedSimTable>>
      sim_sides_;
  std::unordered_map<std::string, std::shared_ptr<const PreparedCmpColumn>>
      cmp_sides_;
};

}  // namespace iflex

#endif  // IFLEX_EXEC_CELL_STORE_H_
