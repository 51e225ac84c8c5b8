#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/check.hpp"
#include "common/file_io.hpp"

namespace cr {

bool JsonValue::as_bool() const {
  CR_CHECK(kind_ == Kind::kBool);
  return bool_;
}

double JsonValue::as_number() const {
  CR_CHECK(kind_ == Kind::kNumber);
  return number_;
}

const std::string& JsonValue::raw_number() const {
  CR_CHECK(kind_ == Kind::kNumber);
  return text_;
}

bool JsonValue::exact_u64(std::uint64_t* out) const {
  if (kind_ != Kind::kNumber) return false;
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text_.data(), text_.data() + text_.size(), value);
  if (ec != std::errc() || end != text_.data() + text_.size()) return false;
  *out = value;
  return true;
}

const std::string& JsonValue::as_string() const {
  CR_CHECK(kind_ == Kind::kString);
  return text_;
}

std::string JsonValue::scalar_text() const {
  CR_CHECK(kind_ == Kind::kNumber || kind_ == Kind::kString);
  return text_;
}

const std::vector<std::shared_ptr<JsonValue>>& JsonValue::items() const {
  CR_CHECK(kind_ == Kind::kArray);
  return items_;
}

const std::vector<std::pair<std::string, std::shared_ptr<JsonValue>>>& JsonValue::members()
    const {
  CR_CHECK(kind_ == Kind::kObject);
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  CR_CHECK(kind_ == Kind::kObject);
  for (const auto& [name, value] : members_)
    if (name == key) return value.get();
  return nullptr;
}

/// Recursive-descent parser over the whole document string.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult out;
    auto value = parse_value();
    if (!error_.empty()) {
      out.error = error_;
      return out;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      out.error = at("trailing characters after the top-level value");
      return out;
    }
    out.value = std::move(value);
    return out;
  }

 private:
  std::string at(const std::string& msg) {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i)
      if (text_[i] == '\n') ++line;
    std::ostringstream os;
    os << "line " << line << ": " << msg;
    return os.str();
  }

  void fail(const std::string& msg) {
    if (error_.empty()) error_ = at(msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::shared_ptr<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return nullptr;
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string_value();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    if (text_.compare(pos_, 4, "true") == 0) return literal(4, JsonValue::Kind::kBool, true);
    if (text_.compare(pos_, 5, "false") == 0) return literal(5, JsonValue::Kind::kBool, false);
    if (text_.compare(pos_, 4, "null") == 0) return literal(4, JsonValue::Kind::kNull, false);
    fail("expected a JSON value");
    return nullptr;
  }

  std::shared_ptr<JsonValue> literal(std::size_t len, JsonValue::Kind kind, bool b) {
    pos_ += len;
    auto v = std::make_shared<JsonValue>();
    v->kind_ = kind;
    v->bool_ = b;
    return v;
  }

  std::shared_ptr<JsonValue> parse_object() {
    ++pos_;  // '{'
    auto v = std::make_shared<JsonValue>();
    v->kind_ = JsonValue::Kind::kObject;
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected a quoted object key");
        return nullptr;
      }
      std::string key;
      if (!parse_string_text(&key)) return nullptr;
      if (!consume(':')) {
        fail("expected ':' after object key");
        return nullptr;
      }
      auto member = parse_value();
      if (!error_.empty()) return nullptr;
      // Duplicate keys are rejected rather than silently shadowed: in a
      // suite manifest a second "cells" key would otherwise drop a whole
      // block of experiments with no error.
      for (const auto& [existing, unused] : v->members_) {
        if (existing == key) {
          fail("duplicate object key \"" + key + "\"");
          return nullptr;
        }
      }
      v->members_.emplace_back(std::move(key), std::move(member));
      if (consume(',')) continue;
      if (consume('}')) return v;
      fail("expected ',' or '}' in object");
      return nullptr;
    }
  }

  std::shared_ptr<JsonValue> parse_array() {
    ++pos_;  // '['
    auto v = std::make_shared<JsonValue>();
    v->kind_ = JsonValue::Kind::kArray;
    if (consume(']')) return v;
    while (true) {
      auto item = parse_value();
      if (!error_.empty()) return nullptr;
      v->items_.push_back(std::move(item));
      if (consume(',')) continue;
      if (consume(']')) return v;
      fail("expected ',' or ']' in array");
      return nullptr;
    }
  }

  bool parse_string_text(std::string* out) {
    ++pos_;  // opening '"'
    std::string s;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        *out = std::move(s);
        return true;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          case 'b': s += '\b'; break;
          case 'f': s += '\f'; break;
          case 'n': s += '\n'; break;
          case 'r': s += '\r'; break;
          case 't': s += '\t'; break;
          case 'u': {
            // Manifests are ASCII in practice; decode BMP escapes to UTF-8,
            // enough for any key/label a suite would use.
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return false;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9')
                code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code += static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("invalid \\u escape");
                return false;
              }
            }
            if (code < 0x80) {
              s += static_cast<char>(code);
            } else if (code < 0x800) {
              s += static_cast<char>(0xC0 | (code >> 6));
              s += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              s += static_cast<char>(0xE0 | (code >> 12));
              s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              s += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail("unknown escape character");
            return false;
        }
        continue;
      }
      if (c == '\n') {
        fail("unterminated string");
        return false;
      }
      s += c;
    }
    fail("unterminated string");
    return false;
  }

  std::shared_ptr<JsonValue> parse_string_value() {
    std::string s;
    if (!parse_string_text(&s)) return nullptr;
    auto v = std::make_shared<JsonValue>();
    v->kind_ = JsonValue::Kind::kString;
    v->text_ = std::move(s);
    return v;
  }

  std::shared_ptr<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    const std::string raw = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double parsed = std::strtod(raw.c_str(), &end);
    if (raw.empty() || end != raw.c_str() + raw.size()) {
      fail("malformed number");
      return nullptr;
    }
    auto v = std::make_shared<JsonValue>();
    v->kind_ = JsonValue::Kind::kNumber;
    v->number_ = parsed;
    v->text_ = raw;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

JsonParseResult JsonValue::parse(const std::string& text) {
  return JsonParser(text).run();
}

JsonParseResult JsonValue::parse_file(const std::string& path) {
  std::string text;
  if (!read_file(path, &text)) {
    JsonParseResult out;
    out.error = path + ": cannot open file";
    return out;
  }
  JsonParseResult out = parse(text);
  if (!out.ok()) out.error = path + ": " + out.error;
  return out;
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
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
  return out + '"';
}

}  // namespace cr
