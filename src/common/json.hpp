/// \file
/// Minimal JSON reader for suite manifests (src/cli/suite.cpp).
///
/// Supports the full JSON value grammar (objects, arrays, strings, numbers,
/// booleans, null) with two deliberate properties the suite runner depends
/// on:
///
///   * object member order is PRESERVED (members_ is a vector, not a map),
///     so grid axes expand in the order the manifest author wrote them and
///     cell ids / CSV filenames are stable across platforms;
///   * numbers keep their RAW source text alongside the parsed double, so a
///     manifest value like `0.25` or `4096` can be forwarded to a bench flag
///     byte-for-byte instead of being re-formatted through double round-trip;
///   * duplicate object keys are a parse ERROR (RFC 8259 leaves the choice
///     open) — a manifest with two "cells" keys would otherwise silently
///     drop a whole block of experiments.
///
/// No external dependency: the container must not grow one (see ROADMAP),
/// and manifests are small enough that a recursive-descent parser is plenty.
///
/// json_quote() is the one escaper every JSON artifact writer shares.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cr {

class JsonValue;

/// Parse outcome: either a value or a position-annotated error message.
struct JsonParseResult {
  std::shared_ptr<JsonValue> value;  ///< null on error
  std::string error;                 ///< empty on success, "line L: msg" otherwise

  bool ok() const { return value != nullptr; }
};

/// One JSON value. Immutable after parsing; cheap to share.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// kBool only (CR_CHECK otherwise).
  bool as_bool() const;
  /// kNumber only.
  double as_number() const;
  /// kNumber only: the literal as written in the source ("0.25", "4096").
  const std::string& raw_number() const;
  /// The raw literal as an exact uint64 (seeds above 2^53 do not survive a
  /// double). False, leaving `*out` alone, for any other kind, a sign, a
  /// fraction, an exponent or a value past 2^64-1.
  bool exact_u64(std::uint64_t* out) const;
  /// kString only: the decoded string.
  const std::string& as_string() const;
  /// kNumber or kString: the natural flag-value text (raw literal for
  /// numbers, decoded text for strings). CR_CHECK on other kinds.
  std::string scalar_text() const;

  /// kArray only.
  const std::vector<std::shared_ptr<JsonValue>>& items() const;
  /// kObject only, in source order.
  const std::vector<std::pair<std::string, std::shared_ptr<JsonValue>>>& members() const;
  /// kObject only: first member with `key`, nullptr when absent.
  const JsonValue* find(const std::string& key) const;

  /// Parse a complete JSON document (trailing garbage is an error).
  static JsonParseResult parse(const std::string& text);
  /// Read + parse a file; errors mention the path.
  static JsonParseResult parse_file(const std::string& path);

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string text_;  ///< kString: decoded value; kNumber: raw literal
  std::vector<std::shared_ptr<JsonValue>> items_;
  std::vector<std::pair<std::string, std::shared_ptr<JsonValue>>> members_;
};

/// `text` as a JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped, \n \r \t use their short escapes, other control bytes
/// become \u00XX, and every other byte (UTF-8 included) passes through.
/// JsonValue::parse decodes the result back to `text` exactly.
std::string json_quote(const std::string& text);

}  // namespace cr
