#include "exec/annotate.h"

#include <map>
#include <string>

#include "common/strutil.h"
#include "resilience/failpoint.h"

namespace iflex {

namespace {

// Canonical string key for a tuple of values, consistent with
// Value::Equals (numeric-aware).
std::string KeyString(const std::vector<Value>& values) {
  std::string out;
  for (const Value& v : values) {
    auto n = v.AsNumber();
    if (n.has_value() && v.kind() != Value::Kind::kDoc) {
      out += StringPrintf("#%.17g|", *n);
    } else {
      out += v.ToString() + "|";
    }
  }
  return out;
}

void AddUnique(std::vector<Value>* values, const Value& v) {
  for (const Value& u : *values) {
    if (u.Equals(v)) return;
  }
  values->push_back(v);
}

struct Group {
  std::vector<Value> key;                        // non-annotated values
  std::vector<std::vector<Value>> annotated;     // U_i per annotated attr
  bool pinned = false;                           // non-maybe in output
};

}  // namespace

Result<ATable> BAnnotate(const ATable& input, const AnnotationSpec& spec,
                         size_t max_combos_per_tuple, obs::Tracer* tracer) {
  obs::TraceSpan span(tracer, "exec.bannotate");
  size_t arity = input.arity();
  std::vector<bool> is_annotated(arity, false);
  for (size_t i : spec.annotated) {
    if (i >= arity) {
      return Status::InvalidArgument("annotated attribute index out of range");
    }
    is_annotated[i] = true;
  }
  std::vector<size_t> key_cols;
  for (size_t i = 0; i < arity; ++i) {
    if (!is_annotated[i]) key_cols.push_back(i);
  }

  std::map<std::string, Group> groups;
  std::vector<std::string> order;  // deterministic output order

  for (const ATuple& t : input.tuples()) {
    // Count key combinations.
    size_t combos = 1;
    bool dead = false;
    for (size_t c : key_cols) {
      if (t.cells[c].empty()) {
        dead = true;
        break;
      }
      combos *= t.cells[c].size();
      if (combos > max_combos_per_tuple) {
        return Status::ExecutionError(
            "BAnnotate: too many key combinations in one a-tuple");
      }
    }
    for (size_t i : spec.annotated) {
      if (t.cells[i].empty()) dead = true;
    }
    if (dead) continue;

    bool singleton_key = true;
    for (size_t c : key_cols) singleton_key = singleton_key && t.cells[c].size() == 1;

    // Enumerate key combinations (odometer).
    std::vector<size_t> idx(key_cols.size(), 0);
    while (true) {
      std::vector<Value> key;
      key.reserve(key_cols.size());
      for (size_t k = 0; k < key_cols.size(); ++k) {
        key.push_back(t.cells[key_cols[k]][idx[k]]);
      }
      std::string ks = KeyString(key);
      auto it = groups.find(ks);
      if (it == groups.end()) {
        Group g;
        g.key = key;
        g.annotated.resize(spec.annotated.size());
        it = groups.emplace(ks, std::move(g)).first;
        order.push_back(ks);
      }
      Group& g = it->second;
      for (size_t a = 0; a < spec.annotated.size(); ++a) {
        for (const Value& v : t.cells[spec.annotated[a]]) {
          AddUnique(&g.annotated[a], v);
        }
      }
      // Paper: the output a-tuple for key n is non-maybe iff the input has
      // an a-tuple ({v1},...,{v_{n-1}}, U) — singleton key cells — that is
      // itself non-maybe.
      if (!t.maybe && singleton_key) g.pinned = true;

      // Advance odometer.
      size_t k = 0;
      for (; k < key_cols.size(); ++k) {
        if (++idx[k] < t.cells[key_cols[k]].size()) break;
        idx[k] = 0;
      }
      if (k == key_cols.size()) break;
      if (key_cols.empty()) break;
    }
  }

  ATable out(input.schema());
  for (const std::string& ks : order) {
    const Group& g = groups[ks];
    ATuple t;
    t.maybe = !g.pinned;
    t.cells.resize(arity);
    size_t ki = 0;
    size_t ai = 0;
    for (size_t i = 0; i < arity; ++i) {
      if (is_annotated[i]) {
        t.cells[i] = g.annotated[ai++];
      } else {
        t.cells[i] = {g.key[ki++]};
      }
    }
    out.Add(std::move(t));
  }
  return out;
}

namespace {

// Direct compact-table grouping, applicable when every key cell is a
// single exact assignment (the overwhelmingly common case: keys are
// documents). Mirrors BAnnotate without enumerating contain assignments
// in the annotated columns.
Result<CompactTable> CompactAnnotate(const CompactTable& input,
                                     const AnnotationSpec& spec) {
  size_t arity = input.arity();
  std::vector<bool> is_annotated(arity, false);
  for (size_t i : spec.annotated) is_annotated[i] = true;
  std::vector<size_t> key_cols;
  for (size_t i = 0; i < arity; ++i) {
    if (!is_annotated[i]) key_cols.push_back(i);
  }

  struct CGroup {
    std::vector<Cell> key_cells;
    std::vector<std::vector<Assignment>> annotated;
    bool pinned = false;
  };
  std::map<std::string, CGroup> groups;
  std::vector<std::string> order;

  for (const CompactTuple& t : input.tuples()) {
    std::vector<Value> key;
    for (size_t c : key_cols) {
      // Caller guarantees singleton exact key cells.
      key.push_back(t.cells[c].assignments[0].value);
    }
    std::string ks = KeyString(key);
    auto it = groups.find(ks);
    if (it == groups.end()) {
      CGroup g;
      for (size_t c : key_cols) g.key_cells.push_back(t.cells[c]);
      g.annotated.resize(spec.annotated.size());
      it = groups.emplace(ks, std::move(g)).first;
      order.push_back(ks);
    }
    CGroup& g = it->second;
    for (size_t a = 0; a < spec.annotated.size(); ++a) {
      const Cell& cell = t.cells[spec.annotated[a]];
      for (const Assignment& as : cell.assignments) {
        bool dup = false;
        for (const Assignment& prev : g.annotated[a]) {
          if (prev.kind == as.kind &&
              ((as.is_contain() && prev.span == as.span) ||
               (as.is_exact() && prev.value.Equals(as.value)))) {
            dup = true;
            break;
          }
        }
        if (!dup) g.annotated[a].push_back(as);
      }
    }
    if (!t.maybe) g.pinned = true;
  }

  CompactTable out(input.schema());
  for (const std::string& ks : order) {
    CGroup& g = groups[ks];
    CompactTuple t;
    t.maybe = !g.pinned;
    t.cells.resize(arity);
    size_t ki = 0;
    size_t ai = 0;
    for (size_t i = 0; i < arity; ++i) {
      if (is_annotated[i]) {
        Cell c;
        c.assignments = std::move(g.annotated[ai++]);
        t.cells[i] = std::move(c);
      } else {
        t.cells[i] = g.key_cells[ki++];
      }
    }
    out.Add(std::move(t));
  }
  return out;
}

bool KeysAreSingletonExact(const CompactTable& input,
                           const AnnotationSpec& spec) {
  size_t arity = input.arity();
  std::vector<bool> is_annotated(arity, false);
  for (size_t i : spec.annotated) is_annotated[i] = true;
  for (const CompactTuple& t : input.tuples()) {
    for (size_t i = 0; i < arity; ++i) {
      if (is_annotated[i]) continue;
      const Cell& c = t.cells[i];
      if (c.is_expansion || c.assignments.size() != 1 ||
          !c.assignments[0].is_exact()) {
        return false;
      }
    }
    // Annotated expansion cells are fine (each value its own tuple, all
    // landing in the same group), but an annotated *empty* cell kills the
    // tuple; handle it on the slow path.
    for (size_t i : spec.annotated) {
      if (t.cells[i].assignments.empty()) return false;
    }
  }
  return true;
}

}  // namespace

Result<CompactTable> ApplyAnnotations(const Corpus& corpus,
                                      CompactTable input,
                                      const AnnotationSpec& spec,
                                      bool use_compact, size_t max_tuples,
                                      obs::Tracer* tracer) {
  IFLEX_FAIL_POINT("exec.annotate");
  if (!spec.annotated.empty()) {
    if (use_compact && KeysAreSingletonExact(input, spec)) {
      obs::TraceSpan span(tracer, "exec.annotate", "compact");
      IFLEX_ASSIGN_OR_RETURN(input, CompactAnnotate(input, spec));
    } else {
      // Default strategy (paper §4.3): via a-tables.
      obs::TraceSpan span(tracer, "exec.annotate", "atable");
      IFLEX_ASSIGN_OR_RETURN(ATable at,
                             CompactToATable(corpus, input, max_tuples));
      IFLEX_ASSIGN_OR_RETURN(ATable annotated,
                             BAnnotate(at, spec, 100000, tracer));
      input = ATableToCompact(annotated, input.schema());
    }
  }
  if (spec.existence) {
    for (CompactTuple& t : input.tuples()) t.maybe = true;
  }
  return input;
}

}  // namespace iflex
