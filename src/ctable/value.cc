#include "ctable/value.h"

#include "common/strutil.h"

namespace iflex {

namespace {
const std::string& TrueText() {
  static const std::string* t = new std::string("true");
  return *t;
}
const std::string& FalseText() {
  static const std::string* f = new std::string("false");
  return *f;
}
}  // namespace

Value Value::Doc(DocId id) {
  Value v;
  v.kind_ = Kind::kDoc;
  v.doc_ = id;
  v.owned_ =
      std::make_shared<const std::string>(StringPrintf("<doc %u>", id));
  v.text_ = *v.owned_;
  return v;
}

Value Value::OfSpan(const Corpus& corpus, const Span& span) {
  Value v;
  v.kind_ = Kind::kSpan;
  v.span_ = span;
  v.text_ = corpus.TextOf(span);  // document text is frozen: view is stable
  if (auto n = ParseLooseNumber(v.text_)) {
    v.has_num_ = true;
    v.num_ = *n;
  }
  return v;
}

Value Value::String(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.owned_ = std::make_shared<const std::string>(std::move(s));
  v.text_ = *v.owned_;
  if (auto n = ParseLooseNumber(v.text_)) {
    v.has_num_ = true;
    v.num_ = *n;
  }
  return v;
}

Value Value::Number(double n) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.has_num_ = true;
  v.num_ = n;
  v.owned_ = std::make_shared<const std::string>(FormatNumber(n));
  v.text_ = *v.owned_;
  return v;
}

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.num_ = b ? 1 : 0;
  v.text_ = b ? TrueText() : FalseText();
  return v;
}

bool Value::Equals(const Value& other) const {
  if (kind_ == Kind::kDoc || other.kind_ == Kind::kDoc) {
    return kind_ == other.kind_ && doc_ == other.doc_;
  }
  if (kind_ == Kind::kNull || other.kind_ == Kind::kNull) {
    return kind_ == other.kind_;
  }
  if (has_num_ && other.has_num_) return num_ == other.num_;
  return text_ == other.text_;
}

size_t Value::Hash() const {
  switch (kind_) {
    case Kind::kNull:
      return 0x9b1;
    case Kind::kDoc:
      return 0xd0c ^ (static_cast<size_t>(doc_) * 0x9e3779b97f4a7c15ULL);
    default: {
      if (has_num_) {
        // Hash the numeric value so "92" and 92 collide (Equals-consistent).
        double d = num_;
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        __builtin_memcpy(&bits, &d, sizeof(bits));
        return static_cast<size_t>(bits * 0x9e3779b97f4a7c15ULL);
      }
      return static_cast<size_t>(Fingerprint64(text_));
    }
  }
}

bool Value::Less(const Value& other) const {
  if (kind_ != other.kind_) return kind_ < other.kind_;
  switch (kind_) {
    case Kind::kDoc:
      return doc_ < other.doc_;
    case Kind::kNumber:
      return num_ < other.num_;
    case Kind::kSpan:
      if (!(span_ == other.span_)) return span_ < other.span_;
      return false;
    default:
      return text_ < other.text_;
  }
}

std::string Value::ToString() const {
  switch (kind_) {
    case Kind::kNull:
      return "NULL";
    case Kind::kDoc:
      return std::string(text_);
    case Kind::kSpan:
    case Kind::kString:
      return "\"" + std::string(text_) + "\"";
    case Kind::kNumber:
    case Kind::kBool:
      return std::string(text_);
  }
  return "?";
}

}  // namespace iflex
