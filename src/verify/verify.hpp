/// \file
/// `cr verify <out_dir>` — evaluate every registered paper claim against a
/// suite run's CSVs, print a pass/fail table, write verify_report.json.
///
/// The report is the machine-readable artifact downstream steps consume
/// (CI gating now; the distributed-runner merge step per ROADMAP item 5
/// later). It is deliberately byte-deterministic for a given evidence
/// directory: no timestamps and no git SHA of the *verifying* checkout —
/// provenance comes from the evidence run's own manifest (suite name +
/// config_hash), which the suite runner already stamps with its git SHA.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "verify/claim_registry.hpp"

namespace cr::verify {

/// Result of evaluating one claim.
struct ClaimOutcome {
  std::string id;
  std::string title;
  std::string verdict;  ///< "pass", "fail", or "error" (unreadable evidence)
  std::string bound;    ///< the acceptance bound that was applied (mode-aware)
  std::string detail;   ///< check diagnostic (observed vs bound) or evidence error
  /// Observed (name, value-text) pairs the check recorded.
  std::vector<std::pair<std::string, std::string>> observed;
  std::vector<std::string> cells;  ///< evidence cell ids consulted

  bool passed() const { return verdict == "pass"; }
};

/// Evidence-run provenance, from `<out_dir>/manifest.json`.
struct RunInfo {
  bool manifest_found = false;
  std::string suite;        ///< manifest "suite" name ("" when not found)
  std::string config_hash;  ///< suite_config_hash of the evidence expansion
  bool quick = false;       ///< the evidence run's own --quick flag
  /// Non-empty when manifest.json exists but is not a readable run manifest
  /// (dist/run_manifest.hpp): the path and the parser's diagnostic.
  std::string error;
};

/// Read `<out_dir>/manifest.json`. A missing file leaves manifest_found
/// false (verification still runs, with empty provenance); a present but
/// malformed one sets `error`.
RunInfo load_run_info(const std::string& out_dir);

/// Evaluate `claims` (default: the full ClaimRegistry) against the CSVs in
/// `out_dir`. Never throws: evidence problems become "error" verdicts.
std::vector<ClaimOutcome> evaluate_claims(const std::string& out_dir, bool quick,
                                          const std::vector<ClaimSpec>* claims = nullptr);

/// Serialize the report (schema cr-verify-report/1). Deterministic for a
/// given evidence directory; doubles are shortest-round-trip formatted.
std::string report_json(const RunInfo& info, const std::vector<ClaimOutcome>& outcomes);

struct VerifyOptions {
  std::string out_dir;      ///< suite run directory holding <cell>.csv + manifest.json
  bool quick = false;       ///< evaluate quick cells/tolerances
  std::string report_path;  ///< empty = <out_dir>/verify_report.json
  /// Override the registry (tests inject fixture claims); null = registry.
  const std::vector<ClaimSpec>* claims = nullptr;
};

/// Evaluate, print the verdict table to `os`, write the report JSON.
/// Returns 0 when every claim passes, 1 when any fails or errors, 2 on
/// setup errors (unwritable report, a malformed evidence manifest, quick-mode
/// mismatch with the evidence manifest).
int run_verify(const VerifyOptions& opts, std::ostream& os);

}  // namespace cr::verify
