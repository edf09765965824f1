//===- support/Json.h - Minimal JSON reader and string writer ----------------===//
///
/// \file
/// The one JSON module of the project. The reader is a small parser for
/// the cloud-policy documents of the paper's Fig. 1, slow-query artifacts
/// and verdict-cache snapshots (objects, arrays, strings with standard
/// escapes, numbers, booleans, null); parse errors carry an offset, and
/// nesting deeper than JsonMaxDepth is a parse error rather than a stack
/// overflow. The writer escapes string literals for every JSON emitter.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SUPPORT_JSON_H
#define SBD_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sbd {

/// One JSON value (tree ownership via value semantics).
class JsonValue {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }

  bool asBool() const { return B; }
  double asNumber() const { return Num; }
  const std::string &asString() const { return Str; }
  const std::vector<JsonValue> &asArray() const { return Arr; }
  const std::map<std::string, JsonValue> &asObject() const { return Obj; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue *get(const std::string &Key) const {
    if (K != Kind::Object)
      return nullptr;
    auto It = Obj.find(Key);
    return It == Obj.end() ? nullptr : &It->second;
  }

  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool V);
  static JsonValue number(double V);
  static JsonValue string(std::string V);
  static JsonValue array(std::vector<JsonValue> V);
  static JsonValue object(std::map<std::string, JsonValue> V);

private:
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::map<std::string, JsonValue> Obj;
};

/// Parse outcome.
struct JsonParseResult {
  bool Ok = false;
  JsonValue Value;
  std::string Error;
  size_t ErrorPos = 0;
};

/// Deepest array/object nesting parseJson accepts.
inline constexpr size_t JsonMaxDepth = 512;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
JsonParseResult parseJson(const std::string &Text);

/// Appends \p S to \p Out as a quoted JSON string literal. Quote,
/// backslash, newline, tab and carriage return get two-character escapes,
/// other control bytes a lowercase `\u00xx`; every other byte (including
/// non-ASCII UTF-8) passes through unchanged.
void appendJsonString(std::string &Out, std::string_view S);

} // namespace sbd

#endif // SBD_SUPPORT_JSON_H
