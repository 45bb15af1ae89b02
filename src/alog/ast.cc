#include "alog/ast.h"

#include "common/strutil.h"

namespace iflex {

std::string Term::ToString() const {
  switch (kind) {
    case Kind::kVar:
      return var;
    case Kind::kString:
      return "\"" + str + "\"";
    case Kind::kNumber:
      return FormatNumber(num);
    case Kind::kNull:
      return "null";
  }
  return "?";
}

std::string Atom::ToString() const {
  std::string out = predicate + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i].ToString();
  }
  return out + ")";
}

const char* CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
  }
  return "?";
}

std::string Comparison::ToString() const {
  std::string out = lhs.ToString() + " " + CmpOpToString(op) + " " + rhs.ToString();
  if (rhs_offset > 0) {
    out += " + " + Term::Number(rhs_offset).ToString();
  } else if (rhs_offset < 0) {
    out += " - " + Term::Number(-rhs_offset).ToString();
  }
  return out;
}

std::string ConstraintLit::ToString() const {
  std::string out = feature + "(" + var;
  if (param.has_value()) out += ", " + param.ToString();
  out += ") = ";
  out += FeatureValueToToken(value);
  return out;
}

std::string Literal::ToString() const {
  switch (kind) {
    case Kind::kAtom:
      return atom.ToString();
    case Kind::kComparison:
      return cmp.ToString();
    case Kind::kConstraint:
      return constraint.ToString();
  }
  return "?";
}

std::string RuleHead::ToString() const {
  std::string out = predicate + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    bool ann = i < annotated.size() && annotated[i];
    if (ann) out += "<";
    out += args[i];
    if (ann) out += ">";
  }
  out += ")";
  if (existence) out += "?";
  return out;
}

bool Rule::has_annotations() const {
  if (head.existence) return true;
  for (bool a : head.annotated) {
    if (a) return true;
  }
  return false;
}

std::string Rule::ToString() const {
  std::string out = head.ToString() + " :- ";
  for (size_t i = 0; i < body.size(); ++i) {
    if (i > 0) out += ", ";
    out += body[i].ToString();
  }
  return out + ".";
}

}  // namespace iflex
