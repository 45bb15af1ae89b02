#ifndef IFLEX_ALOG_CATALOG_H_
#define IFLEX_ALOG_CATALOG_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "ctable/compact_table.h"
#include "features/registry.h"
#include "text/corpus.h"

namespace iflex {

/// A p-predicate procedure (paper §2.1): given bound input values, returns
/// output tuples (each sized to the number of output arguments). Stands in
/// for the Perl/Java procedures of Xlog; cleanup procedures (§2.2.4) are
/// registered the same way.
using PPredicateFn = std::function<Result<std::vector<std::vector<Value>>>(
    const Corpus&, const std::vector<Value>&)>;

/// A p-function: scalar function over bound values (e.g. approxMatch).
using PFunctionFn =
    std::function<Result<Value>(const Corpus&, const std::vector<Value>&)>;

/// The roles a predicate can play in a program.
enum class PredicateKind : uint8_t {
  kExtensional,  // a stored table
  kIntensional,  // defined by ordinary rules (never stored in the catalog)
  kIEPredicate,  // declared extractor, implemented by description rules
  kPPredicate,   // procedural predicate with an attached function
  kPFunction,    // boolean/scalar function used as a filter
  kBuiltinFrom,  // the built-in from(x, y) span extractor
};

/// Declares everything a program can reference: extensional tables,
/// IE predicates (with input/output arity), p-predicates/functions, and
/// the feature registry used by domain constraints.
class Catalog {
 public:
  explicit Catalog(const Corpus* corpus,
                   const FeatureRegistry* features = nullptr);

  const Corpus& corpus() const { return *corpus_; }
  const FeatureRegistry& features() const { return *features_; }

  /// Registers a stored table. Schema size gives the predicate's arity.
  Status AddTable(const std::string& name, CompactTable table);
  /// Replaces an existing table (used by iteration drivers).
  Status ReplaceTable(const std::string& name, CompactTable table);

  /// Declares an IE predicate: first `n_inputs` arguments are inputs
  /// (the paper's overlined variables), the rest outputs.
  Status DeclareIEPredicate(const std::string& name, size_t n_inputs,
                            size_t n_outputs);

  /// Declares a p-predicate backed by `fn` (also used for cleanup
  /// procedures).
  Status DeclarePPredicate(const std::string& name, size_t n_inputs,
                           size_t n_outputs, PPredicateFn fn);

  /// Declares a scalar p-function of `n_args` arguments.
  Status DeclarePFunction(const std::string& name, size_t n_args,
                          PFunctionFn fn);

  /// Registers the built-in text p-functions: similar(a,b) /
  /// approx_match(a,b) (token-Jaccard >= threshold) and exact token
  /// containment contains_tokens(a,b).
  void RegisterBuiltinFunctions(double similarity_threshold = 0.6);

  bool Has(const std::string& name) const;
  Result<PredicateKind> KindOf(const std::string& name) const;

  /// Full arity of a declared predicate (inputs + outputs for IE/p-preds).
  Result<size_t> ArityOf(const std::string& name) const;
  /// Input arity for IE predicates / p-predicates; 0 otherwise.
  Result<size_t> InputArityOf(const std::string& name) const;

  Result<const CompactTable*> Table(const std::string& name) const;
  Result<const PPredicateFn*> PPredicate(const std::string& name) const;
  Result<const PFunctionFn*> PFunction(const std::string& name) const;

  /// Marks a registered p-function as a token-similarity predicate: it
  /// must return TokenIdJaccard(tokens(a), tokens(b)) >= `threshold` over
  /// its two arguments' texts. The executor then evaluates it from
  /// prepared token-id sets without calling the function, and for
  /// threshold > 0 blocks joins on an inverted token index (the
  /// approximate string join of the paper's technical report [20]): two
  /// values can only be similar when they share an alphanumeric token or
  /// both have none (the Jaccard of two empty sets is 1).
  Status MarkTokenSimilarity(const std::string& name, double threshold);
  /// The threshold recorded by MarkTokenSimilarity; nullopt for any
  /// other predicate.
  std::optional<double> TokenSimilarityThreshold(
      const std::string& name) const {
    auto it = token_similarity_.find(name);
    if (it == token_similarity_.end()) return std::nullopt;
    return it->second;
  }

  /// Names of all extensional tables (deterministic order).
  std::vector<std::string> TableNames() const;

  /// Clone of this catalog whose extensional tables are replaced by a
  /// random sample of `fraction` of their tuples (at least one tuple).
  /// Powers subset evaluation (paper §5.2). The clone shares this
  /// catalog's corpus and feature registry, which must outlive it.
  Catalog CloneWithSampledTables(double fraction, uint64_t seed) const;

 private:
  struct Entry {
    PredicateKind kind;
    size_t n_inputs = 0;
    size_t arity = 0;
    CompactTable table;
    PPredicateFn ppred;
    PFunctionFn pfn;
  };

  Status Declare(const std::string& name, Entry entry);

  const Corpus* corpus_;
  const FeatureRegistry* features_;
  std::unique_ptr<FeatureRegistry> owned_features_;
  std::unordered_map<std::string, Entry> entries_;
  std::vector<std::string> table_order_;
  std::map<std::string, double> token_similarity_;
};

/// Token-set Jaccard similarity of two strings (lowercased). Exposed for
/// tests and for the similar-join operator.
double TokenJaccard(const std::string& a, const std::string& b);

}  // namespace iflex

#endif  // IFLEX_ALOG_CATALOG_H_
