// Minimal strict JSON: the one codec for every JSON surface of the
// repository — the scenario-service wire protocol (docs/SERVICE.md), the
// JSONL trace import/export (obs/export.h) and the experiments' UDWN_JSON
// documents (bench/exp_common.h).
//
// A gateway must survive arbitrary client bytes and a trace importer must
// refuse a damaged file, so the parser is deliberately small and strict:
// UTF-8 in, full-input consumption, bounded nesting depth, objects kept as
// ordered (insertion-order) vectors so parsing is deterministic and never
// touches an unordered container (tools/udwn_analyze.py, rule
// det-unordered-iter). Parse failures return a position-tagged error string
// instead of throwing: malformed input is an expected event, not an
// exception.
//
// Numbers keep three views (double, int64, uint64 where representable) so
// 64-bit seeds survive without floating-point truncation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace udwn {

class Json;

/// Ordered key/value storage for objects: preserves wire order, no hashing.
using JsonMembers = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  enum class Kind : std::uint8_t {
    Null,
    Bool,
    Number,
    String,
    Array,
    Object,
  };

  Json() = default;  // null
  static Json boolean(bool value);
  static Json number(double value);
  static Json number_int(std::int64_t value);
  static Json number_uint(std::uint64_t value);
  static Json string(std::string value);
  static Json array(std::vector<Json> items = {});
  static Json object(JsonMembers members = {});

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }

  /// Typed reads; call only when the kind matches (checked by contract in
  /// debug, undefined garbage never escapes — callers in request.cpp always
  /// test kind() first and map mismatches to bad_type errors).
  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_double() const { return double_; }
  /// Integral views: present iff the literal was integral and in range.
  [[nodiscard]] std::optional<std::int64_t> as_int64() const;
  [[nodiscard]] std::optional<std::uint64_t> as_uint64() const;
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const std::vector<Json>& items() const { return items_; }
  [[nodiscard]] const JsonMembers& members() const { return members_; }

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Parse one complete JSON document (trailing whitespace allowed,
  /// anything else is an error). On failure returns nullopt and, when
  /// `error` is non-null, stores "offset N: reason".
  static std::optional<Json> parse(std::string_view text,
                                   std::string* error = nullptr);

  /// Compact deterministic serialization (no whitespace, members in stored
  /// order, doubles via %.17g so values round-trip; a non-finite double
  /// becomes `null`, since JSON has no NaN or infinity).
  [[nodiscard]] std::string dump() const;

  /// JSON string-escape `raw` (without the surrounding quotes).
  static std::string escape(std::string_view raw);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double double_ = 0;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  bool has_int_ = false;
  bool has_uint_ = false;
  std::string string_;
  std::vector<Json> items_;
  JsonMembers members_;
};

}  // namespace udwn
