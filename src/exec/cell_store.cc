#include "exec/cell_store.h"

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

void PreparedCellStore::Clear() {
  sim_.Clear();
  cmp_.Clear();
}

size_t PreparedCellStore::size() const { return sim_.size() + cmp_.size(); }

}  // namespace iflex
