#include "ctable/compact_table.h"

#include <algorithm>
#include <cstring>

#include "common/strutil.h"

namespace iflex {

namespace {

// Folds 64-bit words into a digest. For a fixed state each step is a
// bijection of the word (xor, then the invertible splitmix64 finalizer),
// so two streams of one length that differ in a single word never
// collide; every variable-length part is prefixed by its length.
class Digester {
 public:
  void Add(uint64_t w) {
    uint64_t x = h_ ^ w;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h_ = x ^ (x >> 31);
  }
  void AddText(std::string_view s) {
    Add(s.size());
    size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      uint64_t w;
      std::memcpy(&w, s.data() + i, 8);
      Add(w);
    }
    if (i < s.size()) {
      uint64_t w = 0;
      std::memcpy(&w, s.data() + i, s.size() - i);
      Add(w);
    }
  }
  void AddSpan(const Span& s) {
    Add(s.doc);
    Add((static_cast<uint64_t>(s.begin) << 32) | s.end);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x6a09e667f3bcc908ULL;
};

}  // namespace

// ------------------------------------------------------------- Assignment

size_t Assignment::ValueCount(const Corpus& corpus) const {
  if (is_exact()) return 1;
  return corpus.Get(span.doc).CountSubSpans(span);
}

bool Assignment::EnumerateValues(const Corpus& corpus, size_t max_values,
                                 std::vector<Value>* out) const {
  if (is_exact()) {
    if (out->size() >= max_values) return false;
    out->push_back(value);
    return true;
  }
  std::vector<Span> spans;
  size_t budget = max_values > out->size() ? max_values - out->size() : 0;
  bool complete =
      corpus.Get(span.doc).EnumerateSubSpans(span, budget, &spans);
  for (const Span& s : spans) out->push_back(Value::OfSpan(corpus, s));
  return complete;
}

std::string Assignment::ToString(const Corpus* corpus) const {
  if (is_exact()) return "exact(" + value.ToString() + ")";
  if (corpus != nullptr) {
    return "contain(\"" + std::string(corpus->TextOf(span)) + "\")";
  }
  return "contain(" + span.ToString() + ")";
}

// ------------------------------------------------------------------- Cell

size_t Cell::ValueCount(const Corpus& corpus) const {
  size_t n = 0;
  for (const auto& a : assignments) n += a.ValueCount(corpus);
  return n;
}

bool Cell::EnumerateValues(const Corpus& corpus, size_t max_values,
                           std::vector<Value>* out) const {
  for (const auto& a : assignments) {
    if (!a.EnumerateValues(corpus, max_values, out)) return false;
  }
  return true;
}

bool Cell::IsSingleton(const Corpus& corpus) const {
  if (assignments.size() == 1 && assignments[0].is_exact()) return true;
  return ValueCount(corpus) == 1;
}

std::string Cell::ToString(const Corpus* corpus) const {
  std::string out = is_expansion ? "expand({" : "{";
  for (size_t i = 0; i < assignments.size(); ++i) {
    if (i > 0) out += ", ";
    out += assignments[i].ToString(corpus);
  }
  out += is_expansion ? "})" : "}";
  return out;
}

// ----------------------------------------------------------- CompactTuple

std::string CompactTuple::ToString(const Corpus* corpus) const {
  std::string out = "(";
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ", ";
    out += cells[i].ToString(corpus);
  }
  out += ")";
  if (maybe) out += "?";
  return out;
}

// ----------------------------------------------------------- CompactTable

Result<size_t> CompactTable::AttrIndex(const std::string& name) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i] == name) return i;
  }
  return Status::NotFound("no attribute named " + name);
}

size_t CompactTable::AssignmentCount() const {
  size_t n = 0;
  for (const auto& t : tuples_) {
    for (const auto& c : t.cells) n += c.assignments.size();
  }
  return n;
}

double CompactTable::PossibleTupleCount(const Corpus& corpus,
                                        double cap) const {
  double total = 0;
  for (const auto& t : tuples_) {
    double prod = 1;
    for (const auto& c : t.cells) {
      prod *= static_cast<double>(c.ValueCount(corpus));
      if (prod > cap) {
        prod = cap;
        break;
      }
    }
    total += prod;
    if (total > cap) return cap;
  }
  return total;
}

double CompactTable::ExpandedTupleCount(const Corpus& corpus,
                                        double cap) const {
  double total = 0;
  for (const auto& t : tuples_) {
    double prod = 1;
    for (const auto& c : t.cells) {
      if (!c.is_expansion) continue;
      prod *= static_cast<double>(c.ValueCount(corpus));
      if (prod > cap) {
        prod = cap;
        break;
      }
    }
    total += prod;
    if (total > cap) return cap;
  }
  return total;
}

double CompactTable::CertainTupleCount(const Corpus& corpus,
                                       double cap) const {
  double total = 0;
  for (const auto& t : tuples_) {
    if (t.maybe) continue;
    double prod = 1;
    for (const auto& c : t.cells) {
      if (!c.is_expansion) continue;
      prod *= static_cast<double>(c.ValueCount(corpus));
      if (prod > cap) {
        prod = cap;
        break;
      }
    }
    total += prod;
    if (total > cap) return cap;
  }
  return total;
}

double CompactTable::TotalValueCount(const Corpus& corpus, double cap) const {
  double total = 0;
  for (const auto& t : tuples_) {
    for (const auto& c : t.cells) {
      total += static_cast<double>(c.ValueCount(corpus));
      if (total > cap) return cap;
    }
  }
  return total;
}

uint64_t CompactTable::Digest() const {
  Digester d;
  d.Add(schema_.size());
  for (const std::string& name : schema_) d.AddText(name);
  d.Add(tuples_.size());
  for (const CompactTuple& t : tuples_) {
    d.Add((static_cast<uint64_t>(t.cells.size()) << 1) | (t.maybe ? 1 : 0));
    for (const Cell& c : t.cells) {
      d.Add((static_cast<uint64_t>(c.assignments.size()) << 1) |
            (c.is_expansion ? 1 : 0));
      for (const Assignment& a : c.assignments) {
        if (a.is_contain()) {
          d.Add(0);
          d.AddSpan(a.span);
          continue;
        }
        const Value& v = a.value;
        const std::optional<double> num = v.AsNumber();
        d.Add(1 | (static_cast<uint64_t>(v.kind()) << 1) |
              (num.has_value() ? 1u << 9 : 0u) |
              (static_cast<uint64_t>(v.doc()) << 32));
        d.AddSpan(v.span());
        d.AddText(v.AsText());
        if (num.has_value()) {
          uint64_t bits;
          std::memcpy(&bits, &*num, sizeof(bits));
          d.Add(bits);
        }
      }
    }
  }
  return d.value();
}

Result<CompactTable> CompactTable::ExpandExpansionCells(
    const Corpus& corpus, size_t max_tuples) const {
  CompactTable out(schema_);
  // Worklist expansion: each tuple may have several expansion cells.
  std::vector<CompactTuple> work(tuples_.begin(), tuples_.end());
  while (!work.empty()) {
    CompactTuple t = std::move(work.back());
    work.pop_back();
    size_t exp_idx = SIZE_MAX;
    for (size_t i = 0; i < t.cells.size(); ++i) {
      if (t.cells[i].is_expansion) {
        exp_idx = i;
        break;
      }
    }
    if (exp_idx == SIZE_MAX) {
      out.Add(std::move(t));
      if (out.size() > max_tuples) {
        return Status::ExecutionError(StringPrintf(
            "expansion exceeds %zu tuples", max_tuples));
      }
      continue;
    }
    std::vector<Value> values;
    if (!t.cells[exp_idx].EnumerateValues(corpus, max_tuples + 1, &values) ||
        values.size() + out.size() > max_tuples) {
      return Status::ExecutionError(
          StringPrintf("expansion exceeds %zu tuples", max_tuples));
    }
    for (Value& v : values) {
      CompactTuple u = t;
      u.cells[exp_idx] = Cell::Exact(std::move(v));
      work.push_back(std::move(u));
    }
  }
  return out;
}

std::string CompactTable::ToString(const Corpus* corpus) const {
  std::string out = "[" + Join(schema_, ", ") + "]\n";
  for (const auto& t : tuples_) {
    out += "  " + t.ToString(corpus) + "\n";
  }
  return out;
}

}  // namespace iflex
