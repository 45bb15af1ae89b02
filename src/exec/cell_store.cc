#include "exec/cell_store.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace iflex {

namespace {

template <typename T>
void Append(std::string* key, T x) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &x, sizeof(T));
  key->append(bytes, sizeof(T));
}

// Everything preparation reads of `cell`, and nothing else: a contain's
// span, an exact value's kind, parsed number and text. Equal keys
// prepare equal forms.
void AppendCell(const Cell& cell, std::string* key) {
  for (const Assignment& a : cell.assignments) {
    if (a.is_contain()) {
      key->push_back('c');
      Append(key, a.span.doc);
      Append(key, a.span.begin);
      Append(key, a.span.end);
      continue;
    }
    const Value& v = a.value;
    const std::optional<double> num = v.AsNumber();
    key->push_back('e');
    key->push_back(static_cast<char>(v.kind()));
    key->push_back(num.has_value() ? 1 : 0);
    Append(key, num.value_or(0));
    Append(key, static_cast<uint64_t>(v.AsText().size()));
    key->append(v.AsText());
  }
}

void AppendLimits(const CellOpLimits& limits, std::string* key) {
  Append(key, static_cast<uint64_t>(limits.max_cell_enum));
  Append(key, static_cast<uint64_t>(limits.max_filter_combos));
}

// One key buffer per thread: lookups build a key per row, and hits must
// not allocate.
std::string& KeyBuffer() {
  thread_local std::string key;
  key.clear();
  return key;
}

}  // namespace

// ---------------------------------------------------------- PreparedSimTable

void PreparedSimTable::IndexColumn(bool index_eligible) {
  bool indexable = index_eligible;
  for (const PreparedSimCell* c : column_.cells) {
    indexable = indexable && c->values <= kSimIndexMaxValues;
  }
  if (!indexable) return;  // too wide to index: every probe scans
  for (size_t ti = 0; ti < column_.cells.size(); ++ti) {
    for (ValueId tok : cell(ti).tokens) postings_[tok].push_back(ti);
    if (cell(ti).tokenless) tokenless_.push_back(ti);
  }
  indexed_ = true;
}

void PreparedSimTable::Candidates(const PreparedSimCell& probe,
                                  std::vector<size_t>* out) const {
  out->clear();
  for (ValueId tok : probe.tokens) {
    auto it = postings_.find(tok);
    if (it != postings_.end()) {
      out->insert(out->end(), it->second.begin(), it->second.end());
    }
  }
  if (probe.tokenless) {
    out->insert(out->end(), tokenless_.begin(), tokenless_.end());
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

Status PreparedSimTable::BuildRow(const PreparedSimCell& probe,
                                  double threshold, const CellOpLimits& limits,
                                  resilience::StopPoller* stop,
                                  SimRow* row) const {
  row->tuples.clear();
  row->verdicts.clear();
  thread_local std::vector<size_t> candidates;
  const bool indexed_probe = indexed_ && probe.values <= kSimIndexMaxValues;
  if (indexed_probe) Candidates(probe, &candidates);
  row->tried = indexed_probe ? candidates.size() : size();
  for (size_t ci = 0; ci < row->tried; ++ci) {
    const size_t ti = indexed_probe ? candidates[ci] : ci;
    IFLEX_RETURN_NOT_OK(stop->Poll("Execute"));
    const SatResult r = SimilarityVerdict(probe, cell(ti), limits, threshold);
    if (r == SatResult::kNone) continue;
    row->tuples.push_back(static_cast<uint32_t>(ti));
    row->verdicts.push_back(r);
  }
  return Status::OK();
}

const SimRow* PreparedSimTable::FindRow(const PreparedSimCell* probe) const {
  std::lock_guard<std::mutex> lock(rows_mu_);
  auto it = rows_.find(probe);
  return it != rows_.end() ? it->second.get() : nullptr;
}

const SimRow& PreparedSimTable::KeepRow(const PreparedSimCell* probe,
                                        SimRow row) const {
  auto fresh = std::make_unique<const SimRow>(std::move(row));
  std::lock_guard<std::mutex> lock(rows_mu_);
  return *rows_.try_emplace(probe, std::move(fresh)).first->second;
}

// ------------------------------------------------------------ PreparedCellStore

template <typename T>
template <typename PrepareFn>
const T& PreparedCellStore::Stripes<T>::GetOrPrepare(std::string_view key,
                                                     bool* hit,
                                                     PrepareFn&& prepare) {
  Stripe& s = stripes_[KeyHash{}(key) % kStripes];
  {
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(key);
    if (it != s.map.end()) {
      *hit = true;
      return *it->second;
    }
  }
  *hit = false;
  // Prepared outside the lock; a racing thread's entry, if published
  // first, wins and this one is dropped.
  auto fresh = std::make_unique<const T>(prepare());
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.try_emplace(std::string(key), std::move(fresh)).first;
  return *it->second;
}

template <typename T>
void PreparedCellStore::Stripes<T>::Clear() {
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.map.clear();
  }
}

template <typename T>
size_t PreparedCellStore::Stripes<T>::size() const {
  size_t n = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.map.size();
  }
  return n;
}

const PreparedSimCell& PreparedCellStore::Sim(const Corpus& corpus,
                                              const Cell& cell,
                                              const CellOpLimits& limits,
                                              bool* hit) {
  std::string& key = KeyBuffer();
  key.push_back('s');
  AppendLimits(limits, &key);
  AppendCell(cell, &key);
  return sim_.GetOrPrepare(key, hit, [&] {
    return PrepareSimCell(corpus, cell, limits);
  });
}

const PreparedCmpCell& PreparedCellStore::Cmp(const Corpus& corpus,
                                              const Cell& cell, CmpOp op,
                                              const CellOpLimits& limits,
                                              double offset, bool* hit) {
  std::string& key = KeyBuffer();
  key.push_back('p');
  // Only `=` and `≠` build sorted values, and -0.0 shifts like 0.
  key.push_back(op == CmpOp::kEq || op == CmpOp::kNe ? 1 : 0);
  Append(&key, offset == 0 ? 0.0 : offset);
  AppendLimits(limits, &key);
  AppendCell(cell, &key);
  return cmp_.GetOrPrepare(key, hit, [&] {
    return PrepareCmpCell(corpus, cell, op, limits, offset);
  });
}

template <typename Side>
std::shared_ptr<const Side> PreparedCellStore::GetOrBuildSide(
    const std::string& key, bool* hit,
    const std::function<void(Side*)>& build,
    std::unordered_map<std::string, std::shared_ptr<const Side>>* map) {
  {
    std::lock_guard<std::mutex> lock(sides_mu_);
    auto it = map->find(key);
    if (it != map->end()) {
      *hit = true;
      return it->second;
    }
  }
  *hit = false;
  // Built outside the lock; a racing thread's side, if published first,
  // wins and this one is dropped.
  auto fresh = std::make_shared<Side>();
  build(fresh.get());
  std::lock_guard<std::mutex> lock(sides_mu_);
  return map->try_emplace(key, std::move(fresh)).first->second;
}

std::shared_ptr<const PreparedSimTable> PreparedCellStore::SimSide(
    uint64_t digest, size_t col, double threshold, bool index_eligible,
    const CellOpLimits& limits, bool* hit,
    const std::function<void(PreparedSimTable*)>& build) {
  // Not the thread's key buffer: the build prepares cells, which reuse it.
  std::string key;
  Append(&key, digest);
  Append(&key, static_cast<uint64_t>(col));
  Append(&key, threshold);
  key.push_back(index_eligible ? 1 : 0);
  AppendLimits(limits, &key);
  return GetOrBuildSide<PreparedSimTable>(key, hit, build, &sim_sides_);
}

std::shared_ptr<const PreparedCmpColumn> PreparedCellStore::CmpSide(
    uint64_t digest, size_t col, CmpOp op, double offset,
    const CellOpLimits& limits, bool* hit,
    const std::function<void(PreparedCmpColumn*)>& build) {
  std::string key;
  Append(&key, digest);
  Append(&key, static_cast<uint64_t>(col));
  key.push_back(static_cast<char>(op));
  Append(&key, offset == 0 ? 0.0 : offset);
  AppendLimits(limits, &key);
  return GetOrBuildSide<PreparedCmpColumn>(key, hit, build, &cmp_sides_);
}

void PreparedCellStore::Clear() {
  {
    std::lock_guard<std::mutex> lock(sides_mu_);
    sim_sides_.clear();
    cmp_sides_.clear();
  }
  sim_.Clear();
  cmp_.Clear();
}

size_t PreparedCellStore::size() const { return sim_.size() + cmp_.size(); }

size_t PreparedCellStore::sides() const {
  std::lock_guard<std::mutex> lock(sides_mu_);
  return sim_sides_.size() + cmp_sides_.size();
}

}  // namespace iflex
