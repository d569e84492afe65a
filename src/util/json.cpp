#include "util/json.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace snntest::util {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c) & 0xFF);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  auto it = object.find(key);
  if (it == object.end()) throw std::runtime_error("missing key: " + key);
  return it->second;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;

  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error(std::string(what) + " at offset " + std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) fail("unexpected character");
    ++pos_;
  }
  bool consume(const char* lit) {
    const size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue value() {
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"':
        v.kind = JsonValue::kString;
        v.str = string();
        return v;
      case 't':
        if (!consume("true")) fail("bad literal");
        v.kind = JsonValue::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume("false")) fail("bad literal");
        v.kind = JsonValue::kBool;
        return v;
      case 'n':
        if (!consume("null")) fail("bad literal");
        return v;
      default: return number();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object[std::move(key)] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control char in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("dangling escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u digit");
          }
          // Non-ASCII flattens to '?': the emitters in this tree only
          // produce ASCII, so presence is all consumers ever check.
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' || s_[pos_] == 'e' ||
            s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    JsonValue v;
    v.kind = JsonValue::kNumber;
    try {
      v.number = std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      fail("bad number");
    }
    return v;
  }
};

}  // namespace

JsonValue parse_json(const std::string& text) { return JsonParser(text).parse(); }

}  // namespace snntest::util
