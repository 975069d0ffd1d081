#include "obs/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace mdgan::obs::json {

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

struct Parser {
  const std::string& text;
  std::size_t at = 0;
  std::string error;

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at byte " + std::to_string(at);
    }
    return false;
  }

  void skip_ws() {
    while (at < text.size()) {
      const char c = text[at];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++at;
    }
  }

  bool literal(const char* word, std::size_t len) {
    if (text.compare(at, len, word) != 0) return fail("invalid literal");
    at += len;
    return true;
  }

  // Appends the UTF-8 encoding of `cp`; callers validated the range.
  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool hex4(unsigned* out) {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (at >= text.size()) return fail("truncated \\u escape");
      const char c = text[at++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return fail("invalid \\u escape");
      }
    }
    *out = v;
    return true;
  }

  bool parse_string(std::string* out) {
    if (at >= text.size() || text[at] != '"') return fail("expected string");
    ++at;
    out->clear();
    while (at < text.size()) {
      const char c = text[at++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (at >= text.size()) return fail("truncated escape");
      const char e = text[at++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!hex4(&cp)) return false;
          // Surrogate pairs: our own writers never emit them; decode a
          // well-formed pair anyway, reject a lone half.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (text.compare(at, 2, "\\u") != 0) {
              return fail("lone high surrogate");
            }
            at += 2;
            unsigned lo = 0;
            if (!hex4(&lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return fail("invalid low surrogate");
            }
            const unsigned full =
                0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            // 4-byte UTF-8.
            out->push_back(static_cast<char>(0xF0 | (full >> 18)));
            out->push_back(static_cast<char>(0x80 | ((full >> 12) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | ((full >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (full & 0x3F)));
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate");
          } else {
            append_utf8(*out, cp);
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool digit() const {
    return at < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[at])) != 0;
  }

  // Skips one or more digits; fails when there is none.
  bool digits(const char* what) {
    if (!digit()) return fail(what);
    while (digit()) ++at;
    return true;
  }

  // RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  bool parse_number(Value* out) {
    const std::size_t start = at;
    if (text[at] == '-') ++at;
    if (at < text.size() && text[at] == '0') {
      ++at;
    } else if (!digits("expected digit")) {
      return false;
    }
    if (at < text.size() && text[at] == '.') {
      ++at;
      if (!digits("expected fraction digit")) return false;
    }
    if (at < text.size() && (text[at] == 'e' || text[at] == 'E')) {
      ++at;
      if (at < text.size() && (text[at] == '+' || text[at] == '-')) ++at;
      if (!digits("expected exponent digit")) return false;
    }
    out->kind = Value::Kind::kNumber;
    out->number = std::strtod(text.substr(start, at - start).c_str(), nullptr);
    return true;
  }

  bool parse_value(Value* out, int depth) {
    if (depth > 64) return fail("nesting too deep");
    skip_ws();
    if (at >= text.size()) return fail("unexpected end of input");
    const char c = text[at];
    if (c == 'n') {
      if (!literal("null", 4)) return false;
      out->kind = Value::Kind::kNull;
      return true;
    }
    if (c == 't') {
      if (!literal("true", 4)) return false;
      out->kind = Value::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (c == 'f') {
      if (!literal("false", 5)) return false;
      out->kind = Value::Kind::kBool;
      out->boolean = false;
      return true;
    }
    if (c == '"') {
      out->kind = Value::Kind::kString;
      return parse_string(&out->string);
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return parse_number(out);
    }
    if (c == '[') {
      ++at;
      out->kind = Value::Kind::kArray;
      skip_ws();
      if (at < text.size() && text[at] == ']') {
        ++at;
        return true;
      }
      while (true) {
        out->array.emplace_back();
        if (!parse_value(&out->array.back(), depth + 1)) return false;
        skip_ws();
        if (at >= text.size()) return fail("unterminated array");
        if (text[at] == ',') {
          ++at;
          continue;
        }
        if (text[at] == ']') {
          ++at;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '{') {
      ++at;
      out->kind = Value::Kind::kObject;
      skip_ws();
      if (at < text.size() && text[at] == '}') {
        ++at;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        skip_ws();
        if (at >= text.size() || text[at] != ':') {
          return fail("expected ':'");
        }
        ++at;
        out->object.emplace_back(std::move(key), Value{});
        if (!parse_value(&out->object.back().second, depth + 1)) {
          return false;
        }
        skip_ws();
        if (at >= text.size()) return fail("unterminated object");
        if (text[at] == ',') {
          ++at;
          continue;
        }
        if (text[at] == '}') {
          ++at;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    return fail("unexpected character");
  }
};

}  // namespace

bool parse(const std::string& text, Value* out, std::string* error) {
  Parser p{text, 0, {}};
  Value v;
  const bool ok = p.parse_value(&v, 0) && [&] {
    p.skip_ws();
    return p.at == text.size() || p.fail("trailing garbage");
  }();
  if (!ok) {
    if (error != nullptr) *error = p.error;
    return false;
  }
  if (out != nullptr) *out = std::move(v);
  return true;
}

std::string quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace mdgan::obs::json
