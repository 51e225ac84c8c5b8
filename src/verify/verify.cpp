#include "verify/verify.hpp"

#include <filesystem>
#include <ostream>
#include <sstream>

#include "common/file_io.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "dist/run_manifest.hpp"

namespace cr::verify {
namespace {

/// Compact observed summary for the terminal table ("name=value, ...").
std::string observed_summary(const ClaimOutcome& outcome, std::size_t max_entries = 2) {
  std::string out;
  for (std::size_t i = 0; i < outcome.observed.size() && i < max_entries; ++i) {
    if (i) out += ", ";
    out += outcome.observed[i].first + "=" + outcome.observed[i].second;
  }
  if (outcome.observed.size() > max_entries) out += ", ...";
  return out;
}

}  // namespace

RunInfo load_run_info(const std::string& out_dir) {
  RunInfo info;
  const std::string path = out_dir + "/manifest.json";
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return info;
  const ManifestParse loaded = RunManifest::load(path);  // empty on error
  info.manifest_found = loaded.ok();
  info.error = loaded.error;
  info.suite = loaded.manifest.suite;
  info.config_hash = loaded.manifest.config_hash;
  info.quick = loaded.manifest.quick;
  return info;
}

std::vector<ClaimOutcome> evaluate_claims(const std::string& out_dir, bool quick,
                                          const std::vector<ClaimSpec>* claims) {
  const std::vector<ClaimSpec>& specs =
      claims != nullptr ? *claims : ClaimRegistry::instance().entries();
  std::vector<ClaimOutcome> outcomes;
  outcomes.reserve(specs.size());
  for (const ClaimSpec& spec : specs) {
    ClaimOutcome outcome;
    outcome.id = spec.id;
    outcome.title = spec.title;
    outcome.bound = spec.bound_text(quick);
    outcome.cells = spec.evidence_cells(quick);
    ClaimContext ctx(out_dir, quick);
    ctx.set_cells(outcome.cells);
    try {
      const stat::CheckResult result = spec.check(ctx);
      outcome.verdict = result.passed ? "pass" : "fail";
      outcome.detail = result.message;
    } catch (const EvidenceError& error) {
      // Claim id first: with 15 claims sharing cells, "which claim couldn't
      // read what" is the question the message must answer.
      outcome.verdict = "error";
      outcome.detail = "claim " + spec.id + ": " + error.what();
    }
    outcome.observed = ctx.observed();
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

std::string report_json(const RunInfo& info, const std::vector<ClaimOutcome>& outcomes) {
  std::size_t pass = 0, fail = 0, errors = 0;
  for (const ClaimOutcome& outcome : outcomes) {
    if (outcome.verdict == "pass") ++pass;
    else if (outcome.verdict == "fail") ++fail;
    else ++errors;
  }
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"cr-verify-report/1\",\n";
  os << "  \"suite\": " << json_quote(info.suite) << ",\n";
  os << "  \"config_hash\": " << json_quote(info.config_hash) << ",\n";
  os << "  \"quick\": " << (info.quick ? "true" : "false") << ",\n";
  os << "  \"summary\": {\"claims\": " << outcomes.size() << ", \"pass\": " << pass
     << ", \"fail\": " << fail << ", \"error\": " << errors << "},\n";
  os << "  \"claims\": [";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ClaimOutcome& outcome = outcomes[i];
    os << (i ? ",\n" : "\n");
    os << "    {\n";
    os << "      \"id\": " << json_quote(outcome.id) << ",\n";
    os << "      \"title\": " << json_quote(outcome.title) << ",\n";
    os << "      \"verdict\": " << json_quote(outcome.verdict) << ",\n";
    os << "      \"bound\": " << json_quote(outcome.bound) << ",\n";
    os << "      \"observed\": {";
    for (std::size_t j = 0; j < outcome.observed.size(); ++j) {
      os << (j ? ", " : "") << json_quote(outcome.observed[j].first) << ": "
         << json_quote(outcome.observed[j].second);
    }
    os << "},\n";
    os << "      \"detail\": " << json_quote(outcome.detail) << ",\n";
    os << "      \"cells\": [";
    for (std::size_t j = 0; j < outcome.cells.size(); ++j)
      os << (j ? ", " : "") << json_quote(outcome.cells[j]);
    os << "]\n";
    os << "    }";
  }
  os << "\n  ]\n";
  os << "}\n";
  return os.str();
}

int run_verify(const VerifyOptions& opts, std::ostream& os) {
  const RunInfo info = load_run_info(opts.out_dir);
  if (!info.error.empty()) {
    // A present manifest that does not parse says nothing about the
    // evidence's --quick mode, so the bounds to apply are unknown.
    os << "error: " << info.error << "\n";
    return 2;
  }
  if (!info.manifest_found) {
    os << "warning: no readable manifest.json in " << opts.out_dir
       << " (report provenance will be empty)\n";
  } else if (info.quick != opts.quick) {
    // Full bounds against quick evidence guarantee spurious failures (and
    // vice versa masks regressions); make the mismatch a hard setup error.
    os << "error: evidence in " << opts.out_dir << " was "
       << (info.quick ? "a --quick run" : "a full run") << " but cr verify was invoked "
       << (opts.quick ? "with" : "without") << " --quick\n";
    return 2;
  }

  const std::vector<ClaimOutcome> outcomes =
      evaluate_claims(opts.out_dir, opts.quick, opts.claims);

  Table table({"claim", "verdict", "observed", "bound"});
  std::ostringstream title;
  title << "cr verify — " << (info.suite.empty() ? opts.out_dir : info.suite)
        << (opts.quick ? " (quick bounds)" : "") << ", " << outcomes.size() << " claims";
  table.set_title(title.str());
  std::size_t failed = 0;
  for (const ClaimOutcome& outcome : outcomes) {
    if (!outcome.passed()) ++failed;
    table.add_row({outcome.id, outcome.verdict == "pass" ? "PASS" :
                       outcome.verdict == "fail" ? "FAIL" : "ERROR",
                   observed_summary(outcome), outcome.bound});
  }
  table.print(os);
  for (const ClaimOutcome& outcome : outcomes) {
    if (outcome.passed()) continue;
    os << "\n" << outcome.id << " [" << outcome.verdict << "]: " << outcome.detail << "\n";
    for (const auto& [name, value] : outcome.observed)
      os << "    observed " << name << " = " << value << "\n";
  }
  os << "\n" << (outcomes.size() - failed) << "/" << outcomes.size() << " claims pass\n";

  const std::string report_path =
      opts.report_path.empty() ? opts.out_dir + "/verify_report.json" : opts.report_path;
  std::string error;
  if (!write_file_atomic(report_path, report_json(info, outcomes), &error)) {
    os << "error: cannot write report to " << report_path << ": " << error << "\n";
    return 2;
  }
  os << "report: " << report_path << "\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace cr::verify
