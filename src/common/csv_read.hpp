// Shared reader for the CSVs that CsvWriter emits.
//
// Every suite cell writes its results through CsvWriter (RFC 4180 quoting,
// std::to_chars shortest-round-trip doubles). Until now nothing in-tree read
// them back — `cr verify` does, so the inverse lives here: an RFC 4180
// parser that re-parses row_numeric output bit-exactly (std::from_chars on
// the unquoted cell text), plus the domain-specific numeric-cell forms the
// bench CSVs use ("mean±sd" summary cells and ">20.0" censored medians).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cr {

/// One parsed CSV file: a header row plus data rows, all unescaped.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of `name` in the header, or nullopt.
  std::optional<std::size_t> column(std::string_view name) const;

  /// Cell text at (row, header column `name`); nullopt when the column is
  /// missing or the row is short.
  std::optional<std::string_view> cell(std::size_t row, std::string_view name) const;
};

/// Parses CSV text (RFC 4180: quoted fields, doubled quotes, embedded
/// newlines; accepts both \n and \r\n row endings). The first record is the
/// header. On malformed input (no header, unterminated quote, text after a
/// closing quote, a row whose field count differs from the header's)
/// returns nullopt and sets *error to a message naming the offending 1-based
/// line.
std::optional<CsvTable> read_csv(std::string_view text, std::string* error);

/// read_csv over a file's contents; the error message names the path.
std::optional<CsvTable> read_csv_file(const std::string& path, std::string* error);

/// A numeric cell value as the bench CSVs write them. `value` is the point
/// estimate; `censored` marks ">x" cells (horizon-capped medians — the true
/// value is at least `value`); `spread` carries the sd of "mean±sd" cells.
struct NumericCell {
  double value = 0.0;
  bool censored = false;
  std::optional<double> spread;
};

/// Parses a numeric cell: plain doubles round-trip std::to_chars output
/// bit-exactly, "mean±sd" splits on the UTF-8 ± sign, and a leading '>'
/// sets `censored`. Returns nullopt (with *error describing the text) on
/// anything else — empty cells, non-numeric text, "nan"/"inf" and a "±"
/// with no spread after it are errors, not zeros.
std::optional<NumericCell> parse_numeric_cell(std::string_view text, std::string* error);

}  // namespace cr
