#include "alog/catalog.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "common/rng.h"
#include "common/strutil.h"

namespace iflex {

Catalog::Catalog(const Corpus* corpus, const FeatureRegistry* features)
    : corpus_(corpus), features_(features) {
  if (features_ == nullptr) {
    owned_features_ = CreateDefaultRegistry();
    features_ = owned_features_.get();
  }
  // The built-in from(x, y): conceptually all sub-spans y of x (§2.2.2);
  // the executor evaluates it lazily as expand({contain(x)}).
  Entry from_entry;
  from_entry.kind = PredicateKind::kBuiltinFrom;
  from_entry.n_inputs = 1;
  from_entry.arity = 2;
  entries_.emplace("from", std::move(from_entry));
}

Status Catalog::Declare(const std::string& name, Entry entry) {
  auto [it, inserted] = entries_.emplace(name, std::move(entry));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("predicate already declared: " + name);
  }
  return Status::OK();
}

Status Catalog::AddTable(const std::string& name, CompactTable table) {
  Entry e;
  e.kind = PredicateKind::kExtensional;
  e.arity = table.arity();
  e.table = std::move(table);
  IFLEX_RETURN_NOT_OK(Declare(name, std::move(e)));
  table_order_.push_back(name);
  return Status::OK();
}

Status Catalog::ReplaceTable(const std::string& name, CompactTable table) {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != PredicateKind::kExtensional) {
    return Status::NotFound("no extensional table named " + name);
  }
  it->second.arity = table.arity();
  it->second.table = std::move(table);
  return Status::OK();
}

Status Catalog::DeclareIEPredicate(const std::string& name, size_t n_inputs,
                                   size_t n_outputs) {
  Entry e;
  e.kind = PredicateKind::kIEPredicate;
  e.n_inputs = n_inputs;
  e.arity = n_inputs + n_outputs;
  return Declare(name, std::move(e));
}

Status Catalog::DeclarePPredicate(const std::string& name, size_t n_inputs,
                                  size_t n_outputs, PPredicateFn fn) {
  Entry e;
  e.kind = PredicateKind::kPPredicate;
  e.n_inputs = n_inputs;
  e.arity = n_inputs + n_outputs;
  e.ppred = std::move(fn);
  return Declare(name, std::move(e));
}

Status Catalog::DeclarePFunction(const std::string& name, size_t n_args,
                                 PFunctionFn fn) {
  Entry e;
  e.kind = PredicateKind::kPFunction;
  e.arity = n_args;
  e.pfn = std::move(fn);
  return Declare(name, std::move(e));
}

bool Catalog::Has(const std::string& name) const {
  return entries_.count(name) > 0;
}

Result<PredicateKind> Catalog::KindOf(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("unknown predicate: " + name);
  }
  return it->second.kind;
}

Result<size_t> Catalog::ArityOf(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("unknown predicate: " + name);
  }
  return it->second.arity;
}

Result<size_t> Catalog::InputArityOf(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("unknown predicate: " + name);
  }
  return it->second.n_inputs;
}

Result<const CompactTable*> Catalog::Table(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != PredicateKind::kExtensional) {
    return Status::NotFound("no extensional table named " + name);
  }
  return &it->second.table;
}

Result<const PPredicateFn*> Catalog::PPredicate(
    const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != PredicateKind::kPPredicate) {
    return Status::NotFound("no p-predicate named " + name);
  }
  return &it->second.ppred;
}

Result<const PFunctionFn*> Catalog::PFunction(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != PredicateKind::kPFunction) {
    return Status::NotFound("no p-function named " + name);
  }
  return &it->second.pfn;
}

std::vector<std::string> Catalog::TableNames() const { return table_order_; }

Status Catalog::MarkTokenSimilarity(const std::string& name,
                                    double threshold) {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != PredicateKind::kPFunction) {
    return Status::NotFound("no p-function named " + name);
  }
  token_similarity_[name] = threshold;
  return Status::OK();
}

Catalog Catalog::CloneWithSampledTables(double fraction, uint64_t seed) const {
  Catalog clone(corpus_, features_);
  for (const auto& [name, entry] : entries_) {
    if (name == "from") continue;  // installed by the constructor
    Entry copy = entry;
    if (entry.kind == PredicateKind::kExtensional) {
      // Bottom-k-by-hash sampling: keep the k indices with the smallest
      // hash(seed, i). The ranking depends only on (seed, i), so
      // equal-sized tables keep *identical* index sets and different-sized
      // tables keep highly overlapping ones — join partners that the
      // generators align by index stay paired in the sample (the
      // cross-table correlation a per-page human sampler would exhibit),
      // while the sample size stays exactly k.
      size_t n = entry.table.size();
      size_t k = std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(n) * fraction + 0.5));
      k = std::min(k, n);
      std::vector<std::pair<uint64_t, size_t>> ranked;
      ranked.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        ranked.emplace_back(
            Fingerprint64(StringPrintf(
                "%llu|%zu", static_cast<unsigned long long>(seed), i)),
            i);
      }
      std::partial_sort(ranked.begin(), ranked.begin() + static_cast<ptrdiff_t>(k),
                        ranked.end());
      std::vector<size_t> keep;
      keep.reserve(k);
      for (size_t j = 0; j < k; ++j) keep.push_back(ranked[j].second);
      std::sort(keep.begin(), keep.end());
      CompactTable sampled(entry.table.schema());
      for (size_t i : keep) sampled.Add(entry.table.tuples()[i]);
      copy.table = std::move(sampled);
    }
    clone.entries_.emplace(name, std::move(copy));
  }
  clone.table_order_ = table_order_;
  clone.token_similarity_ = token_similarity_;
  return clone;
}

double TokenJaccard(const std::string& a, const std::string& b) {
  auto tokenize = [](const std::string& s) {
    std::set<std::string> out;
    std::string cur;
    for (char c : s) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        cur.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      } else if (!cur.empty()) {
        out.insert(cur);
        cur.clear();
      }
    }
    if (!cur.empty()) out.insert(cur);
    return out;
  };
  std::set<std::string> ta = tokenize(a);
  std::set<std::string> tb = tokenize(b);
  if (ta.empty() && tb.empty()) return 1.0;
  size_t inter = 0;
  for (const auto& t : ta) inter += tb.count(t);
  size_t uni = ta.size() + tb.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

void Catalog::RegisterBuiltinFunctions(double similarity_threshold) {
  auto similar = [similarity_threshold](
                     const Corpus& corpus,
                     const std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 2) {
      return Status::InvalidArgument("similar() expects 2 arguments");
    }
    // Token sets are memoized per distinct text in the corpus-scoped
    // cache, so the quadratic filter loop does sorted-id intersections
    // instead of re-tokenizing (and re-allocating) per pair.
    TokenCache& cache = corpus.tokens();
    const std::vector<ValueId>& ta = cache.TokensOf(args[0].AsText());
    const std::vector<ValueId>& tb = cache.TokensOf(args[1].AsText());
    return Value::Bool(TokenIdJaccard(ta, tb) >= similarity_threshold);
  };
  // Only a name that now holds this function may be marked: the executor
  // answers marked predicates with the same Jaccard test itself.
  for (const char* name : {"similar", "approx_match"}) {
    if (DeclarePFunction(name, 2, similar).ok()) {
      (void)MarkTokenSimilarity(name, similarity_threshold);
    }
  }
  (void)DeclarePFunction(
      "contains_tokens", 2,
      [](const Corpus&, const std::vector<Value>& args) -> Result<Value> {
        if (args.size() != 2) {
          return Status::InvalidArgument(
              "contains_tokens() expects 2 arguments");
        }
        return Value::Bool(
            ContainsIgnoreCase(args[0].AsText(), args[1].AsText()));
      });
}

}  // namespace iflex
