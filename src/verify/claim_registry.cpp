#include "verify/claim_registry.hpp"

#include <charconv>
#include <system_error>

#include "common/check.hpp"

namespace cr::verify {

const CsvTable& ClaimContext::table(const std::string& cell_id) {
  auto it = cache_.find(cell_id);
  if (it != cache_.end()) return it->second;
  std::string error;
  auto parsed = read_csv_file(csv_path(cell_id), &error);
  if (!parsed) throw EvidenceError("evidence cell \"" + cell_id + "\": " + error);
  return cache_.emplace(cell_id, std::move(*parsed)).first->second;
}

std::vector<NumericCell> ClaimContext::column(const std::string& cell_id,
                                              const std::string& column) {
  const CsvTable& csv = table(cell_id);
  const auto col = csv.column(column);
  if (!col) {
    throw EvidenceError(csv_path(cell_id) + ": no column \"" + column +
                        "\" (columns change when a bench's schema does — update the claim)");
  }
  if (csv.rows.empty())
    throw EvidenceError(csv_path(cell_id) + ": no data rows under column \"" + column + "\"");
  std::vector<NumericCell> out;
  out.reserve(csv.rows.size());
  for (std::size_t r = 0; r < csv.rows.size(); ++r) {
    std::string error;
    const auto value = parse_numeric_cell(csv.rows[r][*col], &error);
    if (!value) {
      throw EvidenceError(csv_path(cell_id) + ": row " + std::to_string(r + 1) + " column \"" +
                          column + "\": " + error);
    }
    out.push_back(*value);
  }
  return out;
}

std::vector<NumericCell> ClaimContext::column_where(const std::string& cell_id,
                                                    const std::string& column,
                                                    const std::string& key_column,
                                                    const std::string& key) {
  const CsvTable& csv = table(cell_id);
  const auto key_col = csv.column(key_column);
  if (!key_col)
    throw EvidenceError(csv_path(cell_id) + ": no column \"" + key_column + "\"");
  const auto col = csv.column(column);
  if (!col) throw EvidenceError(csv_path(cell_id) + ": no column \"" + column + "\"");
  std::vector<NumericCell> out;
  for (std::size_t r = 0; r < csv.rows.size(); ++r) {
    if (csv.rows[r][*key_col] != key) continue;
    std::string error;
    const auto value = parse_numeric_cell(csv.rows[r][*col], &error);
    if (!value) {
      throw EvidenceError(csv_path(cell_id) + ": row " + std::to_string(r + 1) + " column \"" +
                          column + "\": " + error);
    }
    out.push_back(*value);
  }
  if (out.empty()) {
    throw EvidenceError(csv_path(cell_id) + ": no row with " + key_column + "=\"" + key +
                        "\"");
  }
  return out;
}

NumericCell ClaimContext::single_where(const std::string& cell_id, const std::string& column,
                                       const std::string& key_column, const std::string& key) {
  const auto values = column_where(cell_id, column, key_column, key);
  if (values.size() != 1) {
    throw EvidenceError(csv_path(cell_id) + ": expected exactly one row with " + key_column +
                        "=\"" + key + "\", found " + std::to_string(values.size()));
  }
  return values.front();
}

void ClaimContext::observe(const std::string& name, double value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  CR_CHECK(res.ec == std::errc());
  observed_.emplace_back(name, std::string(buf, res.ptr));
}

std::string ClaimContext::csv_path(const std::string& cell_id) const {
  return out_dir_ + "/" + cell_id + ".csv";
}

ClaimRegistry::ClaimRegistry() : Registry("claim", "claims") { register_paper_claims(*this); }

ClaimRegistry& ClaimRegistry::instance() {
  static ClaimRegistry registry;
  return registry;
}

}  // namespace cr::verify
