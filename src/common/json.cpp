#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <system_error>

namespace udwn {

namespace {

/// Nesting bound: a request schema is two levels deep; 32 tolerates any
/// legitimate client while keeping a hostile "[[[[..." line from recursing
/// the daemon's stack away.
constexpr int kMaxDepth = 32;

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Json> run() {
    skip_ws();
    Json value;
    if (!parse_value(value, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON value");
      return std::nullopt;
    }
    return value;
  }

 private:
  void fail(const char* reason) {
    if (error_ != nullptr && error_->empty())
      *error_ = "offset " + std::to_string(pos_) + ": " + reason;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool literal(const char* word, Json value, Json& out) {
    const std::size_t len = std::strlen(word);
    if (text_.substr(pos_, len) != word) {
      fail("invalid literal");
      return false;
    }
    pos_ += len;
    out = std::move(value);
    return true;
  }

  bool parse_value(Json& out, int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return false;
    }
    if (at_end()) {
      fail("unexpected end of input");
      return false;
    }
    switch (peek()) {
      case 'n': return literal("null", Json(), out);
      case 't': return literal("true", Json::boolean(true), out);
      case 'f': return literal("false", Json::boolean(false), out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json::string(std::move(s));
        return true;
      }
      case '[': return parse_array(out, depth);
      case '{': return parse_object(out, depth);
      default: return parse_number(out);
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (true) {
      if (at_end()) {
        fail("unterminated string");
        return false;
      }
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
        return false;
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (at_end()) {
        fail("unterminated escape");
        return false;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
          }
          unsigned code = 0;
          for (int h = 0; h < 4; ++h) {
            const int nibble = hex_value(text_[pos_ + h]);
            if (nibble < 0) {
              fail("invalid \\u escape");
              return false;
            }
            code = (code << 4) | static_cast<unsigned>(nibble);
          }
          pos_ += 4;
          // BMP decode, re-encoded as UTF-8. Surrogates are rejected rather
          // than paired: escape() writes \u only for control characters,
          // so a lone surrogate is always an encoding bug.
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate \\u escape unsupported");
            return false;
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape character");
          return false;
      }
    }
  }

  /// RFC 8259 number production: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  static bool valid_number(const std::string& token) {
    std::size_t i = 0;
    const auto digit = [&](std::size_t k) {
      return k < token.size() && token[k] >= '0' && token[k] <= '9';
    };
    if (i < token.size() && token[i] == '-') ++i;
    if (!digit(i)) return false;
    if (token[i] == '0') {
      ++i;
    } else {
      while (digit(i)) ++i;
    }
    if (i < token.size() && token[i] == '.') {
      ++i;
      if (!digit(i)) return false;
      while (digit(i)) ++i;
    }
    if (i < token.size() && (token[i] == 'e' || token[i] == 'E')) {
      ++i;
      if (i < token.size() && (token[i] == '+' || token[i] == '-')) ++i;
      if (!digit(i)) return false;
      while (digit(i)) ++i;
    }
    return i == token.size();
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    bool integral = true;
    bool digits = false;
    while (!at_end()) {
      const char c = peek();
      if (c >= '0' && c <= '9') {
        digits = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    // Strict JSON number grammar: strtod alone is too lenient (it accepts
    // "+1", ".5", "1.", hex) — a gateway parser must not widen the spec.
    if (!digits || !valid_number(token)) {
      pos_ = start;
      fail("invalid number");
      return false;
    }
    // std::from_chars, not strtod: strtod reads LC_NUMERIC, so under a
    // comma-decimal locale (de_DE et al.) it stops at the '.' of "1.5" and
    // the gateway would reject every fractional number. from_chars is
    // locale-independent by specification; the grammar gate above already
    // guarantees the token is a strict RFC 8259 number.
    const char* const first = token.c_str();
    const char* const last = first + token.size();
    double value = 0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ptr != last || ec != std::errc{}) {
      // result_out_of_range (over- or underflow) fails here, matching the
      // old ERANGE rejection.
      pos_ = start;
      fail("unparseable number");
      return false;
    }
    Json number = Json::number(value);
    if (integral) {
      // Re-parse integral literals exactly so 64-bit seeds survive.
      if (token[0] == '-') {
        long long i = 0;
        const auto [iptr, iec] = std::from_chars(first, last, i, 10);
        if (iec == std::errc{} && iptr == last) number = Json::number_int(i);
      } else {
        unsigned long long u = 0;
        const auto [uptr, uec] = std::from_chars(first, last, u, 10);
        if (uec == std::errc{} && uptr == last) number = Json::number_uint(u);
      }
    }
    out = std::move(number);
    return true;
  }

  bool parse_array(Json& out, int depth) {
    ++pos_;  // '['
    std::vector<Json> items;
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      out = Json::array();
      return true;
    }
    while (true) {
      skip_ws();
      Json item;
      if (!parse_value(item, depth + 1)) return false;
      items.push_back(std::move(item));
      skip_ws();
      if (at_end()) {
        fail("unterminated array");
        return false;
      }
      const char c = text_[pos_++];
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
        return false;
      }
    }
    out = Json::array(std::move(items));
    return true;
  }

  bool parse_object(Json& out, int depth) {
    ++pos_;  // '{'
    JsonMembers members;
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      out = Json::object();
      return true;
    }
    while (true) {
      skip_ws();
      if (at_end() || peek() != '"') {
        fail("expected string key in object");
        return false;
      }
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (at_end() || text_[pos_] != ':') {
        fail("expected ':' after object key");
        return false;
      }
      ++pos_;
      skip_ws();
      Json value;
      if (!parse_value(value, depth + 1)) return false;
      members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (at_end()) {
        fail("unterminated object");
        return false;
      }
      const char c = text_[pos_++];
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
        return false;
      }
    }
    out = Json::object(std::move(members));
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::boolean(bool value) {
  Json j;
  j.kind_ = Kind::Bool;
  j.bool_ = value;
  return j;
}

Json Json::number(double value) {
  Json j;
  j.kind_ = Kind::Number;
  j.double_ = value;
  return j;
}

Json Json::number_int(std::int64_t value) {
  Json j = number(static_cast<double>(value));
  j.int_ = value;
  j.has_int_ = true;
  if (value >= 0) {
    j.uint_ = static_cast<std::uint64_t>(value);
    j.has_uint_ = true;
  }
  return j;
}

Json Json::number_uint(std::uint64_t value) {
  Json j = number(static_cast<double>(value));
  j.uint_ = value;
  j.has_uint_ = true;
  if (value <= static_cast<std::uint64_t>(
                   std::numeric_limits<std::int64_t>::max())) {
    j.int_ = static_cast<std::int64_t>(value);
    j.has_int_ = true;
  }
  return j;
}

Json Json::string(std::string value) {
  Json j;
  j.kind_ = Kind::String;
  j.string_ = std::move(value);
  return j;
}

Json Json::array(std::vector<Json> items) {
  Json j;
  j.kind_ = Kind::Array;
  j.items_ = std::move(items);
  return j;
}

Json Json::object(JsonMembers members) {
  Json j;
  j.kind_ = Kind::Object;
  j.members_ = std::move(members);
  return j;
}

std::optional<std::int64_t> Json::as_int64() const {
  if (!has_int_) return std::nullopt;
  return int_;
}

std::optional<std::uint64_t> Json::as_uint64() const {
  if (!has_uint_) return std::nullopt;
  return uint_;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [name, value] : members_)
    if (name == key) return &value;
  return nullptr;
}

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  if (error != nullptr) error->clear();
  return Parser(text, error).run();
}

std::string Json::escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Json::dump() const {
  switch (kind_) {
    case Kind::Null: return "null";
    case Kind::Bool: return bool_ ? "true" : "false";
    case Kind::Number: {
      if (has_uint_) return std::to_string(uint_);
      if (has_int_) return std::to_string(int_);
      if (!std::isfinite(double_)) return "null";
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", double_);
      return buf;
    }
    case Kind::String: return '"' + escape(string_) + '"';
    case Kind::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ',';
        out += items_[i].dump();
      }
      return out + "]";
    }
    case Kind::Object: {
      std::string out = "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ',';
        out += '"' + escape(members_[i].first) + "\":";
        out += members_[i].second.dump();
      }
      return out + "}";
    }
  }
  return "null";
}

}  // namespace udwn
