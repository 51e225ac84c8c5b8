/// \file
/// BenchRegistry — the third name-keyed registry (after EngineRegistry and
/// ScenarioRegistry): every CLI experiment registers its name, paper claim,
/// flag declarations and CSV column schema here, and the `cr` tool derives
/// everything else from it:
///
///   * `cr bench <name> [flags]` dispatches to the registered run function;
///   * `cr suite run <manifest>` validates manifest cells against the
///     declared flags before running anything;
///   * `cr list --md` renders docs/EXPERIMENTS.md from these specs, and the
///     `docs`-labelled CTest entry diffs the committed file against that
///     output — so the registry is the single source of truth and the docs
///     cannot drift from the code.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "exp/bench_driver.hpp"

namespace cr {

/// Everything `cr` needs to run and document one experiment.
struct BenchSpec {
  std::string name;     ///< subcommand, e.g. "latency"
  std::string id;       ///< experiment number, e.g. "E9"
  std::string summary;  ///< one-line description (--help, `cr list`)
  std::string claim;    ///< paper claim / section the bench exercises
  std::string outcome;  ///< expected qualitative outcome (docs index table)
  /// Bench-specific flags beyond the uniform BenchDriver set.
  std::vector<BenchFlag> flags;
  /// Column schema of the --csv output (machine-readable names; the
  /// rendered table may use prettier display headers).
  std::vector<std::string> csv_columns;
  /// What one CSV row is (docs: e.g. "one (regime, t, burst) cell,
  /// means over reps").
  std::string csv_row_desc;
  /// Entry point: argv[0] is a display name; flags follow. Returns the
  /// process exit code.
  int (*run)(int argc, const char* const* argv);

  /// Optional: accept flags whose names are dynamic (the workload bench's
  /// `arrival.<param>`/`jammer.<param>` keys) — consulted by the suite
  /// validator in addition to `flags`, and forwarded as
  /// BenchInfo::dynamic_flag by the bench itself.
  bool (*allows_flag)(const std::string& name) = nullptr;

  /// Optional: semantic validation of one fully-expanded suite cell (the
  /// flag list the cell would pass, minus runner-controlled flags). Returns
  /// "" when valid, else a message naming the offending key. Runs at
  /// manifest-parse time, so a bad cell fails BEFORE anything executes.
  std::string (*validate_cell)(const std::vector<std::pair<std::string, std::string>>& flags) =
      nullptr;
};

/// Name-keyed registry of all CLI benches. Seeded with the 12 paper
/// experiments plus the generic "scenario" runner; register_bench() is the
/// extension point. Registration is not thread-safe — register before
/// fanning out runs.
class BenchRegistry {
 public:
  static BenchRegistry& instance();

  /// nullptr when unknown.
  const BenchSpec* find(const std::string& name) const;
  /// Exits 2 with the known-name list on unknown names (CLI contract).
  const BenchSpec& at(const std::string& name) const;

  std::vector<std::string> names() const;
  const std::vector<BenchSpec>& entries() const { return entries_; }

  void register_bench(BenchSpec spec);

  /// Dispatch to `at(name).run` with a synthetic argv whose argv[0] names
  /// the subcommand ("cr bench <name>"); `args` are the remaining flags.
  int run(const std::string& name, const std::vector<std::string>& args) const;

 private:
  BenchRegistry();
  std::vector<BenchSpec> entries_;
};

}  // namespace cr
