#ifndef IFLEX_FEATURES_FEATURE_H_
#define IFLEX_FEATURES_FEATURE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "text/document.h"

namespace iflex {

/// The value domain of text features (paper §2.2.2): a span can have a
/// feature, have it *distinctly* (the span has it but its immediate
/// surroundings do not), lack it, or the developer may not know.
enum class FeatureValue : uint8_t {
  kYes,
  kDistinctYes,
  kNo,
  kDistinctNo,
  kUnknown,
};

const char* FeatureValueToString(FeatureValue v);
/// Underscored form ("distinct_yes") that the Alog lexer round-trips.
const char* FeatureValueToToken(FeatureValue v);
Result<FeatureValue> FeatureValueFromString(const std::string& s);

/// Parameter of a parameterized feature, e.g. the "500000" in
/// min_value(p)=500000 or the "Price:" in preceded_by(p,"Price:")=yes.
struct FeatureParam {
  std::optional<std::string> str;
  std::optional<double> num;

  static FeatureParam None() { return {}; }
  static FeatureParam Str(std::string s) {
    FeatureParam p;
    p.str = std::move(s);
    return p;
  }
  static FeatureParam Num(double n) {
    FeatureParam p;
    p.num = n;
    return p;
  }

  bool has_value() const { return str.has_value() || num.has_value(); }
  /// The numeric parameter as an inclusive length or distance bound:
  /// nullopt when there is none, or when it is negative or NaN (no length
  /// is that small); saturates at UINT64_MAX, so the conversion is always
  /// defined.
  std::optional<uint64_t> LengthBound() const;
  std::string ToString() const;
  bool operator==(const FeatureParam& o) const {
    return str == o.str && num == o.num;
  }
};

/// What kind of parameter a feature expects.
enum class ParamKind : uint8_t { kNone, kString, kNumber };

/// One maximal region returned by Refine. When `exact` is true only the
/// region itself satisfies the constraint (paper: distinct-yes produces
/// exact("35.99")); otherwise every sub-span does too (contain).
struct RefinedRegion {
  Span span;
  bool exact = false;
};

/// A text feature with the two procedures the paper requires
/// (§2.2.2/§4.2): Verify(s,f,v) checks f(s)=v, Refine(s,f,v) returns all
/// maximal sub-spans t of s with f(t)=v. Adding a feature to iFlex means
/// subclassing this once; it is then usable from any Alog program.
class Feature {
 public:
  explicit Feature(std::string name) : name_(std::move(name)) {}
  virtual ~Feature() = default;

  const std::string& name() const { return name_; }

  virtual ParamKind param_kind() const { return ParamKind::kNone; }

  /// Does f(span) = v hold? `param` must match param_kind().
  virtual bool Verify(const Document& doc, const Span& span,
                      const FeatureParam& param, FeatureValue v) const = 0;

  /// All maximal sub-spans t of `span` with f(t) = v. Implementations may
  /// over-approximate (return regions whose sub-spans do not all satisfy
  /// the constraint) but must never under-approximate: every satisfying
  /// sub-span must be inside some returned region. This is what preserves
  /// the processor's superset semantics.
  virtual std::vector<RefinedRegion> Refine(const Document& doc,
                                            const Span& span,
                                            const FeatureParam& param,
                                            FeatureValue v) const = 0;

  /// Verify over bare text with no document context, for scalar values
  /// produced by p-predicates/cleanup procedures. Returns nullopt when the
  /// feature inherently needs document context (markup, labels, position);
  /// the constraint then cannot narrow such values.
  virtual std::optional<bool> VerifyText(std::string_view text,
                                         const FeatureParam& param,
                                         FeatureValue v) const {
    (void)text;
    (void)param;
    (void)v;
    return std::nullopt;
  }

  /// The answers the next-effort assistant may propose for a question
  /// about this feature. Parameterized features return an empty list; the
  /// assistant derives candidate parameters from the data instead.
  virtual std::vector<FeatureValue> AnswerSpace() const {
    return {FeatureValue::kYes, FeatureValue::kNo};
  }

  /// Human-readable question text, e.g. "is <attr> in bold font?".
  virtual std::string QuestionText(const std::string& attr) const;

 private:
  std::string name_;
};

}  // namespace iflex

#endif  // IFLEX_FEATURES_FEATURE_H_
