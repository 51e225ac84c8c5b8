#include "adversary/param_schema.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <utility>

#include "common/check.hpp"
#include "common/cli.hpp"

namespace cr {

std::string param_type_name(ParamType type) {
  switch (type) {
    case ParamType::kUint: return "uint";
    case ParamType::kDouble: return "double";
    case ParamType::kText: return "text";
  }
  return "?";
}

namespace {

/// Whether `text` parses as a value of `type`.
bool parses_as(ParamType type, const std::string& text) {
  std::uint64_t u = 0;
  double d = 0.0;
  if (type == ParamType::kText) return true;
  return type == ParamType::kUint ? parse_uint_text(text, &u) : parse_double_text(text, &d);
}

/// Integers exactly ("2147483647", not "2.14748e+09"), other values as %g.
std::string bound_number(double v) {
  char buf[32];
  if (v == std::floor(v) && std::fabs(v) < 0x1p53)
    std::snprintf(buf, sizeof buf, "%.0f", v);
  else
    std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

ParamSchema::ParamSchema(std::vector<ParamDef> defs) : defs_(std::move(defs)) {
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    const ParamDef& def = defs_[i];
    CR_CHECK(!def.name.empty());
    // Declared defaults must themselves validate — they are what the docs
    // advertise and what ParamValues falls back to.
    CR_CHECK(parses_as(def.type, def.default_text));
    CR_CHECK(def.quick_text.empty() || parses_as(def.type, def.quick_text));
    for (std::size_t j = 0; j < i; ++j) CR_CHECK(defs_[j].name != def.name);
    // A text row takes no bound, and a bound names a numeric row.
    CR_CHECK(def.type != ParamType::kText || bound_text(def.bound).empty());
    const ParamDef* cap = find(def.bound.max_param);
    CR_CHECK(def.bound.max_param.empty() || (cap != nullptr && cap->type != ParamType::kText));
  }
}

std::string bound_text(const ParamBound& bound) {
  std::string out;
  const auto term = [&](const std::string& text) { out += (out.empty() ? "" : ", ") + text; };
  if (bound.min > -std::numeric_limits<double>::infinity())
    term((bound.min_open ? "> " : ">= ") + bound_number(bound.min));
  if (bound.max < std::numeric_limits<double>::infinity()) term("<= " + bound_number(bound.max));
  if (!bound.max_param.empty()) term("<= " + bound.max_param);
  return out;
}

std::string param_facts(const ParamDef& def) {
  const char* quote = def.type == ParamType::kText ? "\"" : "";
  const std::string bound = bound_text(def.bound);
  std::string out = "(";
  out.append(param_type_name(def.type));
  if (!bound.empty()) out.append(", ").append(bound);
  out.append(", default ").append(quote).append(def.default_text).append(quote);
  if (!def.quick_text.empty() && def.quick_text != def.default_text)
    out.append(", quick ").append(quote).append(def.quick_text).append(quote);
  return out + ")";
}

const ParamDef* ParamSchema::find(const std::string& name) const {
  for (const ParamDef& def : defs_)
    if (def.name == name) return &def;
  return nullptr;
}

bool parse_uint_text(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

std::string double_param_text(double v) {
  char buf[32];
  const std::to_chars_result end = std::to_chars(buf, buf + sizeof buf, v);
  CR_CHECK(end.ec == std::errc());
  return std::string(buf, end.ptr);
}

bool parse_double_text(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

std::uint64_t ParamValues::as_uint(const std::string& name) const {
  const ParamDef* def = schema_ == nullptr ? nullptr : schema_->find(name);
  CR_CHECK(def != nullptr && def->type == ParamType::kUint);
  std::uint64_t value = 0;
  CR_CHECK(parse_uint_text(text(name), &value));
  return value;
}

double ParamValues::as_double(const std::string& name) const {
  const ParamDef* def = schema_ == nullptr ? nullptr : schema_->find(name);
  CR_CHECK(def != nullptr && def->type == ParamType::kDouble);
  double value = 0.0;
  CR_CHECK(parse_double_text(text(name), &value));
  return value;
}

const std::string& ParamValues::text(const std::string& name) const {
  CR_CHECK(schema_ != nullptr);
  const auto& defs = schema_->defs();
  for (std::size_t i = 0; i < defs.size(); ++i)
    if (defs[i].name == name) return texts_[i];
  CR_CHECK(false);  // unreachable: getters are schema-checked above
  return texts_.front();
}

ParamValidation ParamValidation::check(
    const ParamSchema& schema, const std::vector<std::pair<std::string, std::string>>& params,
    const std::string& subject, bool quick) {
  ParamValidation out;
  out.values.schema_ = &schema;
  out.values.texts_.reserve(schema.defs().size());
  for (const ParamDef& def : schema.defs())
    out.values.texts_.push_back(quick && !def.quick_text.empty() ? def.quick_text
                                                                 : def.default_text);

  std::set<std::string> seen;
  for (const auto& [key, value] : params) {
    const ParamDef* def = schema.find(key);
    if (def == nullptr) {
      std::vector<std::string> known;
      known.reserve(schema.defs().size());
      for (const ParamDef& d : schema.defs()) known.push_back(d.name);
      out.error = subject + " does not take a parameter \"" + key + "\"";
      const std::string hint = closest_match(key, known);
      if (!hint.empty()) out.error += " (did you mean \"" + hint + "\"?)";
      if (known.empty()) {
        out.error += "; it takes no parameters";
      } else {
        out.error += "; its parameters are:";
        for (const std::string& name : known) out.error += " " + name;
      }
      return out;
    }
    if (!seen.insert(key).second) {
      out.error = subject + ": parameter \"" + key + "\" given twice";
      return out;
    }
    if (!parses_as(def->type, value)) {
      out.error = subject + ": parameter \"" + key + "\" expects a " +
                  param_type_name(def->type) + ", got \"" + value + "\"";
      return out;
    }
    for (std::size_t i = 0; i < schema.defs().size(); ++i)
      if (schema.defs()[i].name == key) out.values.texts_[i] = value;
  }
  // Bounds hold for every value in force, defaults included, so a bound on
  // another parameter (periodic's burst <= period) sees the value it runs with.
  const auto number = [&](const std::string& name) {
    return schema.find(name)->type == ParamType::kUint
               ? static_cast<double>(out.values.as_uint(name))
               : out.values.as_double(name);
  };
  for (const ParamDef& def : schema.defs()) {
    if (def.type == ParamType::kText) continue;  // takes no bound
    const std::string& text = out.values.text(def.name);
    const double value = number(def.name);
    const ParamBound& bound = def.bound;
    std::string broken;
    if (value < bound.min || (bound.min_open && value == bound.min))
      broken = (bound.min_open ? "> " : ">= ") + bound_number(bound.min);
    else if (value > bound.max)
      broken = "<= " + bound_number(bound.max);
    else if (!bound.max_param.empty()) {
      if (value > number(bound.max_param))
        broken = "<= " + bound.max_param + " (" + out.values.text(bound.max_param) + ")";
    }
    if (!broken.empty()) {
      out.error = subject + ": parameter \"" + def.name + "\" must be " + broken + ", got \"" +
                  text + "\"";
      return out;
    }
  }
  return out;
}

}  // namespace cr
