/// \file
/// ClaimRegistry — every paper claim the repo reproduces registers an
/// executable acceptance test here, and `cr verify` / tests/test_claims both
/// evaluate the same entries — one assertion path, two harnesses. Like every
/// name-keyed table it is a Registry (src/common/registry.hpp), keyed by the
/// claim id.
///
/// A ClaimSpec names the claim (paper-anchored id like "thm1.2-tradeoff"),
/// the suite cell(s) whose CSVs supply the evidence, the columns it reads,
/// and a check function built from the cr::stat predicates
/// (src/common/stat_assert.hpp). Checks read evidence through a
/// ClaimContext, which loads + caches the per-cell CSVs from a suite run's
/// output directory and turns every malformed-evidence condition (missing
/// file, missing column, non-numeric cell) into an EvidenceError naming the
/// claim, the file and the cell — reported as verdict "error", distinct
/// from a scientific "fail".
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/csv_read.hpp"
#include "common/registry.hpp"
#include "common/stat_assert.hpp"

namespace cr::verify {

/// Evidence could not be read or has the wrong shape. Carries a message
/// naming the file/column/row that is wrong; evaluate_claims() converts it
/// into a per-claim "error" verdict instead of aborting the whole run.
class EvidenceError : public std::runtime_error {
 public:
  explicit EvidenceError(const std::string& message) : std::runtime_error(message) {}
};

/// Accessor a claim's check function uses to read suite-run evidence.
/// Loads `<out_dir>/<cell id>.csv` lazily and caches per evaluation run; all
/// accessors throw EvidenceError with a file-and-column-naming message on
/// anything missing or non-numeric.
class ClaimContext {
 public:
  ClaimContext(std::string out_dir, bool quick) : out_dir_(std::move(out_dir)), quick_(quick) {}

  /// True when the evidence comes from a `--quick` suite run: checks widen
  /// their tolerances per the claim's registered quick bounds.
  bool quick() const { return quick_; }

  /// The evidence cell ids of the claim under evaluation
  /// (ClaimSpec::evidence_cells for the active mode; set by the evaluator).
  /// Checks that treat every evidence cell uniformly iterate this instead
  /// of hard-coding ids, so the quick/full cell grids can differ freely.
  const std::vector<std::string>& cells() const { return cells_; }
  void set_cells(std::vector<std::string> cells) { cells_ = std::move(cells); }

  /// The parsed CSV of one evidence cell.
  const CsvTable& table(const std::string& cell_id);

  /// `column` of every data row, parsed as numeric cells, in file order.
  std::vector<NumericCell> column(const std::string& cell_id, const std::string& column);

  /// `column` of the rows whose `key_column` text equals `key`; throws when
  /// no row matches (a vanished protocol/regime name is an evidence bug).
  std::vector<NumericCell> column_where(const std::string& cell_id, const std::string& column,
                                        const std::string& key_column, const std::string& key);

  /// `column` of the single row whose `key_column` equals `key`; throws
  /// unless exactly one row matches.
  NumericCell single_where(const std::string& cell_id, const std::string& column,
                           const std::string& key_column, const std::string& key);

  /// Record an observed scalar for the report ("what did the run measure").
  /// Doubles are formatted shortest-round-trip (std::to_chars).
  void observe(const std::string& name, double value);
  const std::vector<std::pair<std::string, std::string>>& observed() const { return observed_; }

  /// Path the evidence for `cell_id` is loaded from (diagnostics).
  std::string csv_path(const std::string& cell_id) const;

 private:
  std::string out_dir_;
  bool quick_ = false;
  std::vector<std::string> cells_;
  std::map<std::string, CsvTable> cache_;
  std::vector<std::pair<std::string, std::string>> observed_;
};

/// One machine-checked paper claim.
struct ClaimSpec {
  std::string id;         ///< paper-anchored slug, e.g. "claim3.5.1-completion"
  std::string title;      ///< one-line human title (verify table, docs)
  std::string statement;  ///< the paper claim being checked, prose
  /// Human-readable acceptance bound at full evidence sizes, e.g.
  /// "per-regime ratio spread <= 2.5x".
  std::string bound;
  /// Bound at --quick sizes when it differs (empty = same as `bound`). The
  /// optional fields carry default initializers so designated-initializer
  /// registrations may omit them without -Wmissing-field-initializers.
  std::string quick_bound{};
  /// Evidence cell ids in a full suite run (suites/paper_repro.json).
  std::vector<std::string> cells;
  /// Evidence cell ids in a --quick run of suites/quick.json, when the cell
  /// grid differs there (empty = same ids as `cells`).
  std::vector<std::string> quick_cells{};
  /// CSV columns the check reads (docs: the claim table names its inputs).
  std::vector<std::string> columns;
  /// The executable check. Reads evidence via `ctx`, records observed
  /// values, returns pass/fail with a diagnostic message. May throw
  /// EvidenceError (via the ctx accessors).
  stat::CheckResult (*check)(ClaimContext& ctx);

  const std::vector<std::string>& evidence_cells(bool quick) const {
    return quick && !quick_cells.empty() ? quick_cells : cells;
  }
  const std::string& bound_text(bool quick) const {
    return quick && !quick_bound.empty() ? quick_bound : bound;
  }
};

/// Id-keyed registry of the paper's claims, seeded in registration order
/// with the 12 E-bench claims plus the scenario-sweep claims (claims.cpp).
class ClaimRegistry final : public Registry<ClaimSpec, &ClaimSpec::id> {
 public:
  static ClaimRegistry& instance();

 private:
  ClaimRegistry();
};

/// Seeds `registry` with the paper claims (defined in claims.cpp; called by
/// the ClaimRegistry constructor).
void register_paper_claims(ClaimRegistry& registry);

}  // namespace cr::verify
