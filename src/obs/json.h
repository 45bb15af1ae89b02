#ifndef IFLEX_OBS_JSON_H_
#define IFLEX_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace iflex {
namespace obs {

/// Minimal streaming JSON writer used by the trace / metrics / bench
/// exporters. Comma placement is automatic; keys and values must be
/// alternated correctly by the caller (objects) — there is no validation
/// beyond a debug-friendly structure stack.
class JsonWriter {
 public:
  JsonWriter& BeginObject() {
    Prefix();
    out_.push_back('{');
    stack_.push_back(State::kObjectFirst);
    return *this;
  }
  JsonWriter& EndObject() {
    stack_.pop_back();
    out_.push_back('}');
    return *this;
  }
  JsonWriter& BeginArray() {
    Prefix();
    out_.push_back('[');
    stack_.push_back(State::kArrayFirst);
    return *this;
  }
  JsonWriter& EndArray() {
    stack_.pop_back();
    out_.push_back(']');
    return *this;
  }
  /// Object key; the next value call is its value.
  JsonWriter& Key(std::string_view k) {
    Prefix();
    AppendQuoted(k);
    out_.push_back(':');
    after_key_ = true;
    return *this;
  }
  JsonWriter& String(std::string_view v) {
    Prefix();
    AppendQuoted(v);
    return *this;
  }
  JsonWriter& Number(double v);
  JsonWriter& Number(uint64_t v);
  JsonWriter& Number(int v) { return Number(static_cast<uint64_t>(v < 0 ? 0 : v)); }
  JsonWriter& Bool(bool v) {
    Prefix();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& Null() {
    Prefix();
    out_ += "null";
    return *this;
  }

  const std::string& str() const { return out_; }
  std::string Release() { return std::move(out_); }

  /// JSON string escaping (quotes not included).
  static void Escape(std::string_view in, std::string* out);

 private:
  enum class State : uint8_t { kObjectFirst, kObject, kArrayFirst, kArray };

  void Prefix() {
    if (after_key_) {  // value directly after a Key(): no comma
      after_key_ = false;
      return;
    }
    if (stack_.empty()) return;
    State& s = stack_.back();
    if (s == State::kObjectFirst) {
      s = State::kObject;
    } else if (s == State::kArrayFirst) {
      s = State::kArray;
    } else {
      out_.push_back(',');
    }
  }

  void AppendQuoted(std::string_view v) {
    out_.push_back('"');
    Escape(v, &out_);
    out_.push_back('"');
  }

  std::string out_;
  std::vector<State> stack_;
  bool after_key_ = false;
};

}  // namespace obs
}  // namespace iflex

#endif  // IFLEX_OBS_JSON_H_
