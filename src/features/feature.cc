#include "features/feature.h"

#include "common/strutil.h"

namespace iflex {

const char* FeatureValueToString(FeatureValue v) {
  switch (v) {
    case FeatureValue::kYes:
      return "yes";
    case FeatureValue::kDistinctYes:
      return "distinct-yes";
    case FeatureValue::kNo:
      return "no";
    case FeatureValue::kDistinctNo:
      return "distinct-no";
    case FeatureValue::kUnknown:
      return "unknown";
  }
  return "?";
}

const char* FeatureValueToToken(FeatureValue v) {
  switch (v) {
    case FeatureValue::kDistinctYes:
      return "distinct_yes";
    case FeatureValue::kDistinctNo:
      return "distinct_no";
    default:
      return FeatureValueToString(v);
  }
}

Result<FeatureValue> FeatureValueFromString(const std::string& s) {
  if (s == "yes") return FeatureValue::kYes;
  if (s == "distinct-yes" || s == "distinct_yes")
    return FeatureValue::kDistinctYes;
  if (s == "no") return FeatureValue::kNo;
  if (s == "distinct-no" || s == "distinct_no") return FeatureValue::kDistinctNo;
  if (s == "unknown") return FeatureValue::kUnknown;
  return Status::ParseError("not a feature value: " + s);
}

std::optional<uint64_t> FeatureParam::LengthBound() const {
  if (!num.has_value() || !(*num >= 0)) return std::nullopt;
  if (*num >= 18446744073709551616.0) return UINT64_MAX;  // 2^64
  return static_cast<uint64_t>(*num);
}

std::string FeatureParam::ToString() const {
  if (str.has_value()) return "\"" + *str + "\"";
  if (num.has_value()) return FormatNumber(*num);
  return "";
}

std::string Feature::QuestionText(const std::string& attr) const {
  return StringPrintf("what is the value of feature %s for attribute %s?",
                      name_.c_str(), attr.c_str());
}

}  // namespace iflex
