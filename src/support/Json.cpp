//===- support/Json.cpp - Minimal JSON reader and string writer --------------===//

#include "support/Json.h"

#include "support/Unicode.h"

#include <cctype>
#include <cstdlib>
#include <cstring>

using namespace sbd;

JsonValue JsonValue::boolean(bool V) {
  JsonValue J;
  J.K = Kind::Bool;
  J.B = V;
  return J;
}

JsonValue JsonValue::number(double V) {
  JsonValue J;
  J.K = Kind::Number;
  J.Num = V;
  return J;
}

JsonValue JsonValue::string(std::string V) {
  JsonValue J;
  J.K = Kind::String;
  J.Str = std::move(V);
  return J;
}

JsonValue JsonValue::array(std::vector<JsonValue> V) {
  JsonValue J;
  J.K = Kind::Array;
  J.Arr = std::move(V);
  return J;
}

JsonValue JsonValue::object(std::map<std::string, JsonValue> V) {
  JsonValue J;
  J.K = Kind::Object;
  J.Obj = std::move(V);
  return J;
}

namespace {

class Parser {
public:
  explicit Parser(const std::string &Text) : In(Text) {}

  JsonParseResult run() {
    JsonParseResult R;
    R.Value = parseValue();
    skipWs();
    if (!Failed && Pos != In.size())
      fail("trailing characters after document");
    R.Ok = !Failed;
    R.Error = Err;
    R.ErrorPos = ErrPos;
    return R;
  }

private:
  const std::string &In;
  size_t Pos = 0;
  size_t Depth = 0; ///< open arrays/objects around the current value
  bool Failed = false;
  std::string Err;
  size_t ErrPos = 0;

  bool atEnd() const { return Pos >= In.size(); }
  char peek() const { return In[Pos]; }

  void fail(const std::string &Msg) {
    if (!Failed) {
      Failed = true;
      Err = Msg;
      ErrPos = Pos;
    }
  }

  void skipWs() {
    while (!atEnd() && std::isspace(static_cast<unsigned char>(peek())))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (atEnd() || peek() != C)
      return false;
    ++Pos;
    return true;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (In.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  JsonValue parseValue() {
    skipWs();
    if (atEnd()) {
      fail("unexpected end of document");
      return JsonValue::null();
    }
    char C = peek();
    if (C == '{' || C == '[') {
      if (Depth == JsonMaxDepth) {
        fail("nesting deeper than " + std::to_string(JsonMaxDepth));
        return JsonValue::null();
      }
      ++Depth;
      JsonValue V = C == '{' ? parseObject() : parseArray();
      --Depth;
      return V;
    }
    switch (C) {
    case '"':
      return JsonValue::string(parseString());
    case 't':
      if (literal("true"))
        return JsonValue::boolean(true);
      fail("bad literal");
      return JsonValue::null();
    case 'f':
      if (literal("false"))
        return JsonValue::boolean(false);
      fail("bad literal");
      return JsonValue::null();
    case 'n':
      if (literal("null"))
        return JsonValue::null();
      fail("bad literal");
      return JsonValue::null();
    default:
      return parseNumber();
    }
  }

  JsonValue parseObject() {
    ++Pos; // '{'
    std::map<std::string, JsonValue> Members;
    skipWs();
    if (consume('}'))
      return JsonValue::object(std::move(Members));
    while (!Failed) {
      skipWs();
      if (atEnd() || peek() != '"') {
        fail("expected a member name");
        break;
      }
      std::string Key = parseString();
      if (!consume(':')) {
        fail("expected ':'");
        break;
      }
      Members.emplace(std::move(Key), parseValue());
      if (consume(','))
        continue;
      if (consume('}'))
        break;
      fail("expected ',' or '}'");
    }
    return JsonValue::object(std::move(Members));
  }

  JsonValue parseArray() {
    ++Pos; // '['
    std::vector<JsonValue> Items;
    skipWs();
    if (consume(']'))
      return JsonValue::array(std::move(Items));
    while (!Failed) {
      Items.push_back(parseValue());
      if (consume(','))
        continue;
      if (consume(']'))
        break;
      fail("expected ',' or ']'");
    }
    return JsonValue::array(std::move(Items));
  }

  std::string parseString() {
    ++Pos; // opening quote
    std::string Out;
    while (!atEnd()) {
      char C = In[Pos++];
      if (C == '"')
        return Out;
      if (C != '\\') {
        Out.push_back(C);
        continue;
      }
      if (atEnd())
        break;
      char E = In[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out.push_back(E);
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'u': {
        if (Pos + 4 > In.size()) {
          fail("truncated \\u escape");
          return Out;
        }
        uint32_t V = 0;
        for (int I = 0; I != 4; ++I) {
          char H = In[Pos++];
          V <<= 4;
          if (H >= '0' && H <= '9')
            V |= static_cast<uint32_t>(H - '0');
          else if (H >= 'a' && H <= 'f')
            V |= static_cast<uint32_t>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            V |= static_cast<uint32_t>(H - 'A' + 10);
          else {
            fail("bad \\u escape");
            return Out;
          }
        }
        appendUtf8(V, Out);
        break;
      }
      default:
        fail("unknown escape");
        return Out;
      }
    }
    fail("unterminated string");
    return Out;
  }

  JsonValue parseNumber() {
    size_t Start = Pos;
    if (!atEnd() && (peek() == '-' || peek() == '+'))
      ++Pos;
    bool SawDigit = false;
    while (!atEnd() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                        peek() == '.' || peek() == 'e' || peek() == 'E' ||
                        peek() == '-' || peek() == '+')) {
      if (std::isdigit(static_cast<unsigned char>(peek())))
        SawDigit = true;
      ++Pos;
    }
    if (!SawDigit) {
      fail("expected a value");
      return JsonValue::null();
    }
    return JsonValue::number(std::strtod(In.c_str() + Start, nullptr));
  }
};

} // namespace

JsonParseResult sbd::parseJson(const std::string &Text) {
  Parser P(Text);
  return P.run();
}

void sbd::appendJsonString(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        static constexpr char Hex[] = "0123456789abcdef";
        Out += "\\u00";
        Out += Hex[(C >> 4) & 0xF];
        Out += Hex[C & 0xF];
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}
