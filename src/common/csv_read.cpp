#include "common/csv_read.hpp"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <sstream>

#include "common/file_io.hpp"

namespace cr {
namespace {

// The UTF-8 encoding of '±', as row() receives it from the bench drivers.
constexpr std::string_view kPlusMinus = "\xC2\xB1";

struct FieldParser {
  std::string_view text;
  std::size_t pos = 0;
  std::size_t line = 1;

  bool done() const { return pos >= text.size(); }

  // Parses one record (ending at newline or EOF) into `out`. Returns false
  // with *error set on malformed quoting.
  bool record(std::vector<std::string>* out, std::string* error) {
    out->clear();
    std::string field;
    bool quoted = false;
    bool after_quote = false;  // just closed a quoted field
    const std::size_t start_line = line;
    while (pos < text.size()) {
      const char ch = text[pos];
      if (quoted) {
        if (ch == '"') {
          if (pos + 1 < text.size() && text[pos + 1] == '"') {
            field += '"';
            pos += 2;
          } else {
            quoted = false;
            after_quote = true;
            ++pos;
          }
        } else {
          if (ch == '\n') ++line;
          field += ch;
          ++pos;
        }
        continue;
      }
      if (ch == '"' && field.empty() && !after_quote) {
        quoted = true;
        ++pos;
        continue;
      }
      if (ch == ',') {
        out->push_back(std::move(field));
        field.clear();
        after_quote = false;
        ++pos;
        continue;
      }
      if (ch == '\n' || ch == '\r') {
        if (ch == '\r' && pos + 1 < text.size() && text[pos + 1] == '\n') ++pos;
        ++pos;
        ++line;
        out->push_back(std::move(field));
        return true;
      }
      if (after_quote) {
        std::ostringstream os;
        os << "line " << line << ": text after closing quote";
        *error = os.str();
        return false;
      }
      field += ch;
      ++pos;
    }
    if (quoted) {
      std::ostringstream os;
      os << "line " << start_line << ": unterminated quoted field";
      *error = os.str();
      return false;
    }
    out->push_back(std::move(field));
    return true;
  }
};

}  // namespace

std::optional<std::size_t> CsvTable::column(std::string_view name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  return std::nullopt;
}

std::optional<std::string_view> CsvTable::cell(std::size_t row, std::string_view name) const {
  const auto col = column(name);
  if (!col || row >= rows.size() || *col >= rows[row].size()) return std::nullopt;
  return std::string_view(rows[row][*col]);
}

std::optional<CsvTable> read_csv(std::string_view text, std::string* error) {
  CsvTable table;
  FieldParser parser{text};
  if (parser.done()) {
    *error = "empty CSV (no header row)";
    return std::nullopt;
  }
  if (!parser.record(&table.header, error)) return std::nullopt;
  while (!parser.done()) {
    const std::size_t line = parser.line;
    std::vector<std::string> row;
    if (!parser.record(&row, error)) return std::nullopt;
    if (row.size() == 1 && row[0].empty()) continue;  // trailing newline
    if (row.size() != table.header.size()) {
      std::ostringstream os;
      os << "line " << line << ": " << row.size() << " fields, header has "
         << table.header.size();
      *error = os.str();
      return std::nullopt;
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

std::optional<CsvTable> read_csv_file(const std::string& path, std::string* error) {
  std::string text;
  if (!read_file(path, &text)) {
    *error = path + ": cannot open";
    return std::nullopt;
  }
  std::string local;
  auto table = read_csv(text, &local);
  if (!table) *error = path + ": " + local;
  return table;
}

std::optional<NumericCell> parse_numeric_cell(std::string_view text, std::string* error) {
  NumericCell cell;
  std::string_view rest = text;
  if (!rest.empty() && rest.front() == '>') {
    cell.censored = true;
    rest.remove_prefix(1);
  }
  std::string_view mean_part = rest;
  std::string_view sd_part;
  if (const auto pm = rest.find(kPlusMinus); pm != std::string_view::npos) {
    mean_part = rest.substr(0, pm);
    sd_part = rest.substr(pm + kPlusMinus.size());
  }
  const auto parse_double = [](std::string_view s, double* out) {
    const auto res = std::from_chars(s.data(), s.data() + s.size(), *out);
    return res.ec == std::errc() && res.ptr == s.data() + s.size() && !s.empty();
  };
  if (!parse_double(mean_part, &cell.value)) {
    *error = "not numeric: \"" + std::string(text) + "\"";
    return std::nullopt;
  }
  if (!sd_part.empty()) {
    double sd = 0.0;
    if (!parse_double(sd_part, &sd)) {
      *error = "bad \xC2\xB1 spread: \"" + std::string(text) + "\"";
      return std::nullopt;
    }
    cell.spread = sd;
  }
  return cell;
}

}  // namespace cr
