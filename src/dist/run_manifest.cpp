#include "dist/run_manifest.hpp"

#include <cmath>

#include "common/file_io.hpp"
#include "common/json.hpp"
#include "common/table.hpp"

namespace cr {

namespace {

/// Kind-checked reads of one JSON object's members. The first defect lands
/// in `*error`, prefixed with `where` ("cells[3]: "); an absent optional
/// member leaves its output untouched.
struct Fields {
  /// The member if present with `kind`, else nullptr (and a diagnostic when
  /// it is mistyped, or absent but `required`).
  const JsonValue* get(const char* key, JsonValue::Kind kind, const char* kind_name,
                       bool required = false) {
    const JsonValue* value = object.find(key);
    if (value != nullptr && value->kind() == kind) return value;
    if (value != nullptr || required)
      fail(std::string("\"") + key + "\" must be " + (value ? "" : "present and ") + kind_name);
    return nullptr;
  }

  /// A string; with `nullable`, null reads as "" (unknown).
  void text(const char* key, std::string* out, bool required = false, bool nullable = false) {
    const JsonValue* value = object.find(key);
    if (nullable && value != nullptr && value->is_null()) return;
    if ((value = get(key, JsonValue::Kind::kString, "a string", required)))
      *out = value->as_string();
  }

  /// A finite number ("1e999" parses as inf, which to_json() cannot write).
  void number(const char* key, double* out) {
    const JsonValue* value = get(key, JsonValue::Kind::kNumber, "a number");
    if (value == nullptr) return;
    if (std::isfinite(value->as_number()))
      *out = value->as_number();
    else
      fail(std::string("\"") + key + "\" must be a finite number");
  }

  /// Null, or an unsigned integer literal taken exactly.
  void seed(const char* key, std::optional<std::uint64_t>* out) {
    const JsonValue* value = object.find(key);
    std::uint64_t seed = 0;
    if (value == nullptr || value->is_null()) return;
    if (value->exact_u64(&seed))
      *out = seed;
    else
      fail(std::string("\"") + key + "\" must be null or an unsigned 64-bit integer");
  }

  void fail(const std::string& message) {
    if (error->empty()) *error = where + message;
  }

  const JsonValue& object;
  std::string where;
  std::string* error;
};

}  // namespace

std::string RunManifest::to_json() const {
  std::string out = "{\n";
  out += "  \"suite\": " + json_quote(suite) + ",\n";
  out += "  \"description\": " + json_quote(description) + ",\n";
  if (worker) out += "  \"worker\": " + json_quote(*worker) + ",\n";
  out += "  \"git_sha\": " + json_quote(git_sha) + ",\n";
  out += "  \"config_hash\": " + json_quote(config_hash) + ",\n";
  out += "  \"shard\": " + json_quote(shard) + ",\n";
  out += std::string("  \"quick\": ") + (quick ? "true" : "false") + ",\n";
  out += "  \"started_utc\": " + json_quote(started_utc) + ",\n";
  out += "  \"finished_utc\": " + json_quote(finished_utc) + ",\n";
  out += "  \"wall_seconds\": " + format_double(wall_seconds, 3) + ",\n";
  if (merged_from) {
    out += "  \"merged_from\": [";
    for (std::size_t i = 0; i < merged_from->size(); ++i)
      out += (i ? ", " : "") + json_quote((*merged_from)[i]);
    out += "],\n";
  }
  out += "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    out += "    {\"id\": " + json_quote(cell.id) + ", \"bench\": " + json_quote(cell.bench) +
           ", \"seed\": " + (cell.seed ? std::to_string(*cell.seed) : "null") +
           ", \"status\": " + json_quote(cell.status) +
           ", \"seconds\": " + format_double(cell.seconds, 3) +
           ", \"csv_fnv\": " + (cell.csv_fnv.empty() ? "null" : json_quote(cell.csv_fnv)) + "}" +
           (i + 1 < cells.size() ? "," : "") + "\n";
  }
  out += "  ]\n}\n";
  return out;
}

ManifestParse RunManifest::parse(const std::string& text) {
  ManifestParse out;
  const JsonParseResult json = JsonValue::parse(text);
  if (!json.ok() || !json.value->is_object()) {
    out.error = json.ok() ? "a run manifest must be a JSON object" : json.error;
    return out;
  }
  RunManifest& m = out.manifest;
  Fields top{*json.value, "", &out.error};
  top.text("suite", &m.suite, true);
  top.text("description", &m.description);
  if (json.value->find("worker") != nullptr) top.text("worker", &m.worker.emplace());
  top.text("git_sha", &m.git_sha);
  top.text("config_hash", &m.config_hash, true);
  top.text("shard", &m.shard);
  if (const JsonValue* quick = top.get("quick", JsonValue::Kind::kBool, "a boolean", true))
    m.quick = quick->as_bool();
  top.text("started_utc", &m.started_utc);
  top.text("finished_utc", &m.finished_utc);
  top.number("wall_seconds", &m.wall_seconds);
  if (const JsonValue* from = top.get("merged_from", JsonValue::Kind::kArray, "an array")) {
    m.merged_from.emplace();
    for (const auto& name : from->items()) {
      if (!name->is_string()) {
        top.fail("\"merged_from\" must hold only strings");
        break;
      }
      m.merged_from->push_back(name->as_string());
    }
  }
  if (const JsonValue* cells = top.get("cells", JsonValue::Kind::kArray, "an array", true)) {
    for (std::size_t i = 0; i < cells->items().size() && out.ok(); ++i) {
      const JsonValue& item = *cells->items()[i];
      const std::string where = "cells[" + std::to_string(i) + "]: ";
      if (!item.is_object()) {
        top.fail(where + "must be an object");
        break;
      }
      Cell& cell = m.cells.emplace_back();
      Fields fields{item, where, &out.error};
      fields.text("id", &cell.id, true);
      fields.text("bench", &cell.bench);
      fields.seed("seed", &cell.seed);
      fields.text("status", &cell.status, true);
      fields.number("seconds", &cell.seconds);
      fields.text("csv_fnv", &cell.csv_fnv, false, true);
    }
  }
  if (!out.ok()) out.manifest = RunManifest{};
  return out;
}

ManifestParse RunManifest::load(const std::string& path) {
  std::string text;
  ManifestParse out = read_file(path, &text) ? parse(text) : ManifestParse{{}, "cannot open file"};
  if (!out.ok()) out.error = path + ": " + out.error;
  return out;
}

}  // namespace cr
